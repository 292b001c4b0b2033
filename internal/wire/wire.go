// Package wire defines the FOBS wire formats shared by the simulated and
// real-network runtimes.
//
// FOBS uses three message families, mirroring the paper's three channels:
//
//   - DATA packets on the sender→receiver UDP flow,
//   - ACK packets on the receiver→sender UDP flow, and
//   - control messages on the reliable TCP channel: the announcement a
//     sender writes in one piece (CHECK, then HELLO), the receiver's answer
//     (HAVE, followed by COMPLETE when it already holds the object), the
//     terminal COMPLETE, and ABORT from either side.
//
// That is seven message types. The codes of retired ones — 5 (HELLO-ACK),
// 7 (HELLOX), 8 (RESUME) and 10 (TRACE) — are refused by PeekType and never
// reused.
//
// All integers are big-endian. Every decoder bounds-checks so a corrupted or
// hostile datagram can never panic a peer; decoders return an error and the
// runtimes drop the packet, exactly as a UDP protocol must.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"

	"github.com/hpcnet/fobs/internal/bitmap"
)

// Magic identifies FOBS datagrams. Packets with a different magic are
// dropped silently.
const Magic uint16 = 0xF0B5

// Message types. Codes 5, 7, 8 and 10 belonged to retired control frames.
const (
	TypeData     uint8 = 1  // sender → receiver, carries object bytes
	TypeAck      uint8 = 2  // receiver → sender, carries status bitmap fragments
	TypeHello    uint8 = 3  // control channel, announces a transfer and its stripes
	TypeComplete uint8 = 4  // control channel, "all data received"
	TypeAbort    uint8 = 6  // control channel, either side terminates the transfer
	TypeHave     uint8 = 9  // control channel, the receiver's answer to an announcement
	TypeCheck    uint8 = 11 // control channel, the announcement's versioned content identity
)

// Header sizes in bytes.
const (
	// UDPIPOverhead is what UDP and IPv4 add to every datagram on the wire.
	UDPIPOverhead = 28
	DataHeaderLen = 2 + 1 + 1 + 4 + 4 + 4 + 2 + 4 // magic,type,flags,xfer,seq,total,len,crc = 22
	AckHeaderLen  = 2 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 2
	// HelloLen is the fixed prefix of a HELLO frame:
	// magic,type,stripes,xfer,objsize,psize = 20; StripeDescLen bytes per
	// announced stripe follow.
	HelloLen      = 2 + 1 + 1 + 4 + 8 + 4
	StripeDescLen = 4 + 8 + 8
	CompleteLen   = 2 + 1 + 1 + 4 + 8 + 4
	AbortLen      = 2 + 1 + 1 + 4 + 1
	// HaveFixedLen is the fixed prefix of a HAVE frame:
	// magic,type,window,xfer,received,words = 16; 8 bytes per bitmap word
	// follow.
	HaveFixedLen = 2 + 1 + 1 + 4 + 4 + 4
	// CheckLen is a CHECK frame:
	// magic,type,version,flags,xfer,objsize,psize,digest(32),trace(16) = 69.
	CheckLen = 2 + 1 + 1 + 1 + 4 + 8 + 4 + ContentDigestLen + 16
	// ContentDigestLen is the byte length of a content digest (SHA-256).
	ContentDigestLen = 32
)

// Flag bits in the data header.
const (
	// FlagChecksum marks a data packet whose header carries a CRC-32C of
	// the payload. UDP's 16-bit checksum misses real corruption on
	// multi-gigabyte transfers; object-based transfers add their own.
	FlagChecksum uint8 = 1 << 0
)

// castagnoli is the CRC-32C table (the polynomial with hardware support).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by decoders.
var (
	ErrShort    = errors.New("wire: datagram too short")
	ErrBadMagic = errors.New("wire: bad magic")
	ErrBadType  = errors.New("wire: unexpected message type")
	ErrChecksum = errors.New("wire: payload checksum mismatch")
	// ErrCheckVersion rejects an announcement of another protocol revision,
	// older or newer: the CHECK's version byte is the announcement's one
	// version, and the layout after it is only defined for the revision this
	// build speaks. The runtime answers with an ABORT (unsupported), which
	// the sender takes as final.
	ErrCheckVersion = errors.New("wire: unsupported CHECK version")
)

// Data is one object packet. Seq numbers the packet within the object;
// Total is the object's packet count (so a receiver can sanity-check);
// Payload is the object bytes (the final packet may be short).
type Data struct {
	Transfer uint32
	Seq      uint32
	Total    uint32
	Payload  []byte
	// Checksum requests a CRC-32C over the payload on encode; on decode
	// it reports whether the packet carried (and passed) one.
	Checksum bool
}

// AppendData serializes d onto buf and returns the extended slice: the
// header AppendDataHeader frames, then the payload.
func AppendData(buf []byte, d *Data) []byte {
	return append(AppendDataHeader(buf, d), d.Payload...)
}

// AppendDataHeader serializes the DataHeaderLen-byte header of d onto buf —
// everything of the datagram but the payload, whose length and checksum it
// carries — and returns the extended slice. A sender that gathers each
// datagram from its header and the payload where it lies in the object
// (batchio.Sender.SendGather) frames with this, and never copies the payload.
func AppendDataHeader(buf []byte, d *Data) []byte {
	if len(d.Payload) > 0xFFFF {
		panic(fmt.Sprintf("wire: payload %d exceeds 64KiB framing limit", len(d.Payload)))
	}
	var flags uint8
	var crc uint32
	if d.Checksum {
		flags |= FlagChecksum
		crc = crc32.Checksum(d.Payload, castagnoli)
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeData, flags)
	buf = binary.BigEndian.AppendUint32(buf, d.Transfer)
	buf = binary.BigEndian.AppendUint32(buf, d.Seq)
	buf = binary.BigEndian.AppendUint32(buf, d.Total)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(d.Payload)))
	return binary.BigEndian.AppendUint32(buf, crc)
}

// DecodeData parses a DATA datagram, verifying the payload checksum when
// the packet carries one. The returned payload aliases b.
func DecodeData(b []byte) (Data, error) {
	var d Data
	if len(b) < DataHeaderLen {
		return d, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return d, ErrBadMagic
	}
	if b[2] != TypeData {
		return d, ErrBadType
	}
	flags := b[3]
	d.Transfer = binary.BigEndian.Uint32(b[4:])
	d.Seq = binary.BigEndian.Uint32(b[8:])
	d.Total = binary.BigEndian.Uint32(b[12:])
	n := int(binary.BigEndian.Uint16(b[16:]))
	crc := binary.BigEndian.Uint32(b[18:])
	if len(b) < DataHeaderLen+n {
		return d, ErrShort
	}
	d.Payload = b[DataHeaderLen : DataHeaderLen+n]
	if d.Total == 0 || d.Seq >= d.Total {
		return d, fmt.Errorf("wire: data seq %d outside object of %d packets", d.Seq, d.Total)
	}
	if flags&FlagChecksum != 0 {
		if crc32.Checksum(d.Payload, castagnoli) != crc {
			return d, ErrChecksum
		}
		d.Checksum = true
	}
	return d, nil
}

// Ack is one acknowledgement packet. AckSeq numbers acks so the sender can
// ignore reordered stale ones. Received is the receiver's cumulative count
// of distinct packets; Delta is how many arrived since the previous ack —
// the signal the adaptive batch policy consumes. Frag carries a
// word-aligned slice of the status bitmap.
type Ack struct {
	Transfer uint32
	AckSeq   uint32
	Received uint32
	Delta    uint32
	Frag     bitmap.Fragment
}

// MaxFragWords returns how many bitmap words fit in an ack constrained to
// packetSize bytes on the wire.
func MaxFragWords(packetSize int) int {
	n := (packetSize - AckHeaderLen) / 8
	if n < 1 {
		n = 1 // always carry at least one word, even if it bloats a tiny MTU
	}
	return n
}

// AppendAck serializes a onto buf and returns the extended slice.
func AppendAck(buf []byte, a *Ack) []byte {
	if a.Frag.Start%64 != 0 || a.Frag.Start < 0 {
		panic(fmt.Sprintf("wire: fragment start %d not word-aligned", a.Frag.Start))
	}
	if len(a.Frag.Words) > 0xFFFF {
		panic("wire: fragment too large to frame")
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeAck, 0)
	buf = binary.BigEndian.AppendUint32(buf, a.Transfer)
	buf = binary.BigEndian.AppendUint32(buf, a.AckSeq)
	buf = binary.BigEndian.AppendUint32(buf, a.Received)
	buf = binary.BigEndian.AppendUint32(buf, a.Delta)
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.Frag.Start))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(a.Frag.Words)))
	for _, w := range a.Frag.Words {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodeAck parses an ACK datagram, allocating a fresh word slice.
func DecodeAck(b []byte) (Ack, error) {
	return DecodeAckInto(b, nil)
}

// DecodeAckInto parses an ACK datagram into a caller-owned word buffer:
// the returned fragment's Words is words (grown as needed), letting a
// sender's ack poll loop decode without per-packet allocations. The
// caller must consume the fragment before the next DecodeAckInto reusing
// the same buffer.
func DecodeAckInto(b []byte, words []uint64) (Ack, error) {
	var a Ack
	if len(b) < AckHeaderLen {
		return a, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return a, ErrBadMagic
	}
	if b[2] != TypeAck {
		return a, ErrBadType
	}
	a.Transfer = binary.BigEndian.Uint32(b[4:])
	a.AckSeq = binary.BigEndian.Uint32(b[8:])
	a.Received = binary.BigEndian.Uint32(b[12:])
	a.Delta = binary.BigEndian.Uint32(b[16:])
	start := binary.BigEndian.Uint32(b[20:])
	nw := int(binary.BigEndian.Uint16(b[24:]))
	if len(b) < AckHeaderLen+8*nw {
		return a, ErrShort
	}
	if start%64 != 0 || start > 1<<31 {
		return a, fmt.Errorf("wire: ack fragment start %d not word-aligned", start)
	}
	a.Frag.Start = int(start)
	words = words[:0]
	for i := 0; i < nw; i++ {
		words = append(words, binary.BigEndian.Uint64(b[AckHeaderLen+8*i:]))
	}
	a.Frag.Words = words
	return a, nil
}

// MaxStreams bounds the stripe count a HELLO may announce. It caps the
// frame size a hostile control peer can demand and keeps per-transfer
// receiver state small; GridFTP-style deployments rarely profit beyond a
// few tens of parallel streams.
const MaxStreams = 64

// StripeDesc places one stripe of a striped transfer: the stripe's own
// transfer tag (its UDP flows carry this id), and the contiguous
// [Offset, Offset+Length) byte range of the object it covers.
type StripeDesc struct {
	Transfer uint32
	Offset   uint64
	Length   uint64
}

// Hello announces a transfer on the control channel: the object size in
// bytes and the data packet payload size, from which both sides derive the
// packet count, and the stripe table of a striped transfer. Its fourth byte
// is the stripe count: zero is the single-stripe short form (the whole
// object under Transfer, one flow), and 1..MaxStreams is followed by that
// many StripeDesc entries in offset order, which must tile the object. A
// one-entry table describes the same transfer as the short form.
type Hello struct {
	Transfer   uint32
	ObjectSize uint64
	PacketSize uint32
	// Stripes is the stripe table; nil for the short form.
	Stripes []StripeDesc
}

// AppendHello serializes h onto buf.
func AppendHello(buf []byte, h *Hello) []byte {
	if len(h.Stripes) > MaxStreams {
		panic(fmt.Sprintf("wire: %d stripes exceed %d", len(h.Stripes), MaxStreams))
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeHello, uint8(len(h.Stripes)))
	buf = binary.BigEndian.AppendUint32(buf, h.Transfer)
	buf = binary.BigEndian.AppendUint64(buf, h.ObjectSize)
	buf = binary.BigEndian.AppendUint32(buf, h.PacketSize)
	for _, s := range h.Stripes {
		buf = binary.BigEndian.AppendUint32(buf, s.Transfer)
		buf = binary.BigEndian.AppendUint64(buf, s.Offset)
		buf = binary.BigEndian.AppendUint64(buf, s.Length)
	}
	return buf
}

// DecodeHello parses a HELLO control message, stripe table and all.
func DecodeHello(b []byte) (Hello, error) {
	var h Hello
	if len(b) < HelloLen {
		return h, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return h, ErrBadMagic
	}
	if b[2] != TypeHello {
		return h, ErrBadType
	}
	n, err := helloStripeCount(b)
	if err != nil {
		return h, err
	}
	if len(b) < HelloLen+n*StripeDescLen {
		return h, ErrShort
	}
	h.Transfer = binary.BigEndian.Uint32(b[4:])
	h.ObjectSize = binary.BigEndian.Uint64(b[8:])
	h.PacketSize = binary.BigEndian.Uint32(b[16:])
	if h.PacketSize == 0 {
		return h, errors.New("wire: hello with zero packet size")
	}
	if n == 0 {
		return h, nil
	}
	h.Stripes = make([]StripeDesc, n)
	var at uint64
	for i := range h.Stripes {
		o := HelloLen + i*StripeDescLen
		s := StripeDesc{
			Transfer: binary.BigEndian.Uint32(b[o:]),
			Offset:   binary.BigEndian.Uint64(b[o+4:]),
			Length:   binary.BigEndian.Uint64(b[o+12:]),
		}
		// The stripes must tile the object exactly: contiguous, in order,
		// nothing missing, nothing overlapping. Rejecting here means no
		// runtime ever sees a plan it could mis-place.
		if s.Offset != at || s.Length == 0 {
			return h, fmt.Errorf("wire: hello stripe %d at offset %d, want contiguous %d", i, s.Offset, at)
		}
		at += s.Length
		h.Stripes[i] = s
	}
	if at != h.ObjectSize {
		return h, fmt.Errorf("wire: hello stripes cover %d bytes of a %d-byte object", at, h.ObjectSize)
	}
	return h, nil
}

// helloStripeCount reads the stripe count out of a HELLO's fixed prefix,
// bounds-checked against MaxStreams.
func helloStripeCount(b []byte) (int, error) {
	if n := int(b[3]); n <= MaxStreams {
		return n, nil
	}
	return 0, fmt.Errorf("wire: hello stripe count %d exceeds %d", b[3], MaxStreams)
}

// Complete is the receiver's "all data received" signal on the control
// channel. Received echoes the byte count; Digest is the end-to-end
// integrity echo: ContentTag of the 256-bit content identity the sender
// computed from its own bytes and announced in its CHECK, which the
// receiver has verified the assembled object against (or, on a dedup hit,
// holds the bytes under) — neither end walks the object again for it.
type Complete struct {
	Transfer uint32
	Received uint64
	Digest   uint32
}

// ContentTag is what Complete carries: the first four bytes of the content
// identity both ends already agree on.
func ContentTag(id [ContentDigestLen]byte) uint32 { return binary.BigEndian.Uint32(id[:]) }

// AppendComplete serializes c onto buf.
func AppendComplete(buf []byte, c *Complete) []byte {
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeComplete, 0)
	buf = binary.BigEndian.AppendUint32(buf, c.Transfer)
	buf = binary.BigEndian.AppendUint64(buf, c.Received)
	buf = binary.BigEndian.AppendUint32(buf, c.Digest)
	return buf
}

// DecodeComplete parses a COMPLETE control message.
func DecodeComplete(b []byte) (Complete, error) {
	var c Complete
	if len(b) < CompleteLen {
		return c, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return c, ErrBadMagic
	}
	if b[2] != TypeComplete {
		return c, ErrBadType
	}
	c.Transfer = binary.BigEndian.Uint32(b[4:])
	c.Received = binary.BigEndian.Uint64(b[8:])
	c.Digest = binary.BigEndian.Uint32(b[16:])
	return c, nil
}

// Window is a receive window as the answer to an announcement carries it: the
// base-two logarithm of how many payload bytes of one data flow the receiver
// undertakes to hold unread, in the fourth byte of HAVE. Zero is "no window
// advertised": a receiver that predates the window wrote that byte zero and
// asks for no flow control, and a sender that predates it never looks.
type Window uint8

// WindowOf returns the largest window not above n bytes (none below two).
func WindowOf(n int) Window {
	if n < 2 {
		return 0
	}
	return Window(bits.Len(uint(n)) - 1)
}

// Bytes is the window in bytes, zero for none. A logarithm no object size can
// reach bounds nothing, and reads as the largest window there is.
func (w Window) Bytes() int {
	if w == 0 {
		return 0
	}
	return 1 << min(int(w), bits.UintSize-2)
}

// MaxHaveWords bounds the bitmap a HAVE frame may carry. At 64 packets per
// word it covers objects of up to 2^28 packets while capping the trailer a
// hostile control peer can make a sender buffer at 32 MiB.
const MaxHaveWords = 1 << 22

// Have is the receiver's one answer to an announcement: a summary of what it
// already holds of the object the CHECK named, and its acceptance. Received
// counts distinct packets held; Words is the full got-bitmap (word 0 covers
// packets 0–63, bit i of word w is packet w*64+i), so the sender can mark them
// acknowledged and transmit only the gaps. A HAVE of every packet is followed
// by COMPLETE and no data phase; any other HAVE accepts the transfer. Window
// is the receive window each of the transfer's data flows may fill. A HAVE
// with Received == 0 and a single zero word is the encodable "hold nothing".
type Have struct {
	Transfer uint32
	Received uint32
	Words    []uint64
	Window   Window
}

// HaveLen returns the framed length of a HAVE carrying n bitmap words.
func HaveLen(n int) int { return HaveFixedLen + n*8 }

// AppendHave serializes h onto buf. The word count rides inside the fixed
// prefix so a stream reader can size the trailer (TrailerLen).
func AppendHave(buf []byte, h *Have) []byte {
	if len(h.Words) < 1 || len(h.Words) > MaxHaveWords {
		panic(fmt.Sprintf("wire: %d have words outside 1..%d", len(h.Words), MaxHaveWords))
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeHave, byte(h.Window))
	buf = binary.BigEndian.AppendUint32(buf, h.Transfer)
	buf = binary.BigEndian.AppendUint32(buf, h.Received)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(h.Words)))
	for _, w := range h.Words {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodeHave parses a HAVE control message, allocating a fresh word slice.
func DecodeHave(b []byte) (Have, error) {
	var h Have
	if len(b) < HaveFixedLen {
		return h, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return h, ErrBadMagic
	}
	if b[2] != TypeHave {
		return h, ErrBadType
	}
	h.Window = Window(b[3])
	h.Transfer = binary.BigEndian.Uint32(b[4:])
	h.Received = binary.BigEndian.Uint32(b[8:])
	n, err := HaveWordCount(b)
	if err != nil {
		return h, err
	}
	if len(b) < HaveLen(n) {
		return h, ErrShort
	}
	h.Words = make([]uint64, n)
	for i := 0; i < n; i++ {
		h.Words[i] = binary.BigEndian.Uint64(b[HaveFixedLen+8*i:])
	}
	return h, nil
}

// CheckVersion is the announcement revision this build speaks. It rides in
// the CHECK, the announcement's first frame, and names both the digest
// scheme — core.ContentID's leaf-hashed identity; version 1 carried plain
// SHA-256 digests — and the layout of the whole announcement: version 2 had
// per-stripe digests and travelled with TRACE, HELLOX and HELLO-ACK frames.
// Decoders reject any other version with ErrCheckVersion before reading the
// layout behind it; the runtimes turn that into an ABORT (unsupported).
const CheckVersion uint8 = 3

// CheckFlagDedup permits the receiver to answer the CHECK from its content
// cache: a full HAVE bitmap plus COMPLETE, skipping the data phase entirely.
// Without it the receiver must answer "miss" even when it holds the object,
// so the transfer always moves the bytes the receiver did not retain.
const CheckFlagDedup uint8 = 1 << 1

// Check is the announcement's first frame: the content identity
// (core.ContentID) of the object about to move, with the geometry it names —
// which must be the HELLO's that follows it — and the trace id. It is the
// identity the receiver verifies the object against, caches it under, and
// retains a failed transfer's partial state under.
//
// The receiver answers every announcement from one lookup, with a HAVE: the
// full got-bitmap (followed by COMPLETE) when CheckFlagDedup is set and it
// holds the object whole and verified, or when it retained the whole object; the
// bitmap of what it retained of the object from an earlier, failed transfer;
// or the "hold nothing" HAVE.
type Check struct {
	Version    uint8
	Flags      uint8
	Transfer   uint32
	ObjectSize uint64
	PacketSize uint32
	// Digest is the whole object's content identity.
	Digest [32]byte
	// Trace is the id both endpoints' span logs file the transfer under, so
	// they join into one cross-host timeline; zero when the sender traces
	// nothing.
	Trace [16]byte
}

// AppendCheck serializes c onto buf.
func AppendCheck(buf []byte, c *Check) []byte {
	v := c.Version
	if v == 0 {
		v = CheckVersion
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeCheck, v, c.Flags)
	buf = binary.BigEndian.AppendUint32(buf, c.Transfer)
	buf = binary.BigEndian.AppendUint64(buf, c.ObjectSize)
	buf = binary.BigEndian.AppendUint32(buf, c.PacketSize)
	buf = append(buf, c.Digest[:]...)
	return append(buf, c.Trace[:]...)
}

// DecodeCheck parses a CHECK control message. Every version but this
// build's is refused with ErrCheckVersion before any layout assumptions are
// made; the caller maps that onto AbortUnsupported.
func DecodeCheck(b []byte) (Check, error) {
	var c Check
	if len(b) < 4 {
		return c, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return c, ErrBadMagic
	}
	if b[2] != TypeCheck {
		return c, ErrBadType
	}
	c.Version = b[3]
	if c.Version != CheckVersion {
		return c, fmt.Errorf("%w: got %d, speak %d", ErrCheckVersion, c.Version, CheckVersion)
	}
	if len(b) < CheckLen {
		return c, ErrShort
	}
	c.Flags = b[4]
	c.Transfer = binary.BigEndian.Uint32(b[5:])
	c.ObjectSize = binary.BigEndian.Uint64(b[9:])
	c.PacketSize = binary.BigEndian.Uint32(b[17:])
	if c.PacketSize == 0 {
		return c, errors.New("wire: check with zero packet size")
	}
	if c.ObjectSize == 0 {
		return c, errors.New("wire: check with zero object size")
	}
	copy(c.Digest[:], b[21:])
	copy(c.Trace[:], b[21+ContentDigestLen:])
	return c, nil
}

// AbortReason explains why a transfer was terminated.
type AbortReason uint8

const (
	// AbortUnspecified is a generic termination.
	AbortUnspecified AbortReason = iota
	// AbortDuplicateTransfer rejects a HELLO whose transfer id is already
	// in flight at the receiver.
	AbortDuplicateTransfer
	// AbortIdleTimeout is the receiver's liveness watchdog: no data
	// arrived for the configured idle window.
	AbortIdleTimeout
	// AbortStalled is the sender's liveness watchdog: no acknowledgement
	// arrived for the configured stall window.
	AbortStalled
	// AbortCancelled reports a local context cancellation or endpoint
	// shutdown.
	AbortCancelled
	// AbortBadHello rejects a malformed or unacceptable handshake.
	AbortBadHello
	// AbortUnsupported rejects a well-formed announcement of a protocol
	// revision this endpoint does not speak.
	AbortUnsupported
	// AbortDigestMismatch reports an assembled object that does not match
	// the content identity its CHECK announced. The sender must not retry:
	// the bytes that arrived are not the object it named.
	AbortDigestMismatch
	// Codes 8 and 9 are reserved: they were sent by earlier builds to refuse
	// a RESUME they held no state for and a striped announcement they could
	// not reassemble. They decode, print as reason(n) and are never reused.
)

func (r AbortReason) String() string {
	switch r {
	case AbortUnspecified:
		return "unspecified"
	case AbortDuplicateTransfer:
		return "duplicate transfer id"
	case AbortIdleTimeout:
		return "receiver idle timeout"
	case AbortStalled:
		return "sender stalled"
	case AbortCancelled:
		return "cancelled"
	case AbortBadHello:
		return "handshake rejected"
	case AbortUnsupported:
		return "unsupported by peer"
	case AbortDigestMismatch:
		return "object digest mismatch"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Abort terminates a transfer from either side of the control channel. It
// replaces the silent connection drop, which left the greedy peer running
// until (at best) a watchdog fired.
type Abort struct {
	Transfer uint32
	Reason   AbortReason
}

// AppendAbort serializes a onto buf.
func AppendAbort(buf []byte, a *Abort) []byte {
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeAbort, 0)
	buf = binary.BigEndian.AppendUint32(buf, a.Transfer)
	return append(buf, uint8(a.Reason))
}

// DecodeAbort parses an ABORT control message.
func DecodeAbort(b []byte) (Abort, error) {
	var a Abort
	if len(b) < AbortLen {
		return a, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return a, ErrBadMagic
	}
	if b[2] != TypeAbort {
		return a, ErrBadType
	}
	a.Transfer = binary.BigEndian.Uint32(b[4:])
	a.Reason = AbortReason(b[8])
	return a, nil
}

// ControlLen returns the fixed length of a control message type, letting a
// stream reader consume exactly one frame after peeking the 4-byte header:
// the whole frame for COMPLETE, ABORT and CHECK, and the fixed prefix for
// HELLO and HAVE, whose trailer TrailerLen sizes from that prefix. Any other
// type, retired ones included, is ErrBadType.
func ControlLen(typ uint8) (int, error) {
	switch typ {
	case TypeHello:
		return HelloLen, nil
	case TypeComplete:
		return CompleteLen, nil
	case TypeAbort:
		return AbortLen, nil
	case TypeHave:
		return HaveFixedLen, nil
	case TypeCheck:
		return CheckLen, nil
	default:
		return 0, ErrBadType
	}
}

// TrailerLen returns how many bytes follow the ControlLen-byte prefix of a
// control frame: a HELLO's stripe table or a HAVE's bitmap, sized from the
// count inside the prefix and bounds-checked, so a stream reader sizes the
// rest of the frame before decoding it; zero for the fixed-length types.
func TrailerLen(prefix []byte) (int, error) {
	typ, err := PeekType(prefix)
	if err != nil {
		return 0, err
	}
	if fixed, _ := ControlLen(typ); len(prefix) < fixed {
		return 0, ErrShort
	}
	switch typ {
	case TypeHello:
		n, err := helloStripeCount(prefix)
		return n * StripeDescLen, err
	case TypeHave:
		n, err := HaveWordCount(prefix)
		return n * 8, err
	}
	return 0, nil
}

// HaveWordCount reads the bitmap word count out of a HAVE frame prefix
// (at least HaveFixedLen bytes), bounds-checked against MaxHaveWords, so a
// stream reader can size the variable trailer before parsing the whole
// frame.
func HaveWordCount(b []byte) (int, error) {
	if len(b) < HaveFixedLen {
		return 0, ErrShort
	}
	n := int(binary.BigEndian.Uint32(b[12:]))
	if n < 1 || n > MaxHaveWords {
		return 0, fmt.Errorf("wire: have word count %d outside 1..%d", n, MaxHaveWords)
	}
	return n, nil
}

// PeekType returns the message type of a datagram without fully decoding
// it, or an error if it cannot possibly be a FOBS message.
func PeekType(b []byte) (uint8, error) {
	if len(b) < 3 {
		return 0, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return 0, ErrBadMagic
	}
	t := b[2]
	if t == TypeData || t == TypeAck {
		return t, nil
	}
	if _, err := ControlLen(t); err != nil {
		return 0, err // unknown, or retired
	}
	return t, nil
}
