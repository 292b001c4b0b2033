// Package wire defines the FOBS wire formats shared by the simulated and
// real-network runtimes.
//
// FOBS uses three message families, mirroring the paper's three channels:
//
//   - DATA packets on the sender→receiver UDP flow,
//   - ACK packets on the receiver→sender UDP flow, and
//   - control messages (HELLO/COMPLETE) on the reliable TCP channel.
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

// Message types.
const (
	TypeData     uint8 = 1 // sender → receiver, carries object bytes
	TypeAck      uint8 = 2 // receiver → sender, carries status bitmap fragments
	TypeHello    uint8 = 3 // control channel, announces a transfer
	TypeComplete uint8 = 4 // control channel, "all data received"
	TypeHelloAck uint8 = 5 // control channel, receiver accepts the transfer
	TypeAbort    uint8 = 6 // control channel, either side terminates the transfer
	TypeHelloX   uint8 = 7 // control channel, versioned extended announcement (striping)
	// Type 8 was RESUME, retired when retained state came to be found by
	// content identity; PeekType refuses it, and it is never reused.
	TypeHave  uint8 = 9  // control channel, receiver's got-bitmap summary answering a CHECK
	TypeTrace uint8 = 10 // control channel, versioned trace-id prelude ahead of an announcement
	TypeCheck uint8 = 11 // control channel, versioned content-digest query ahead of an announcement
)

// Header sizes in bytes.
const (
	// UDPIPOverhead is what UDP and IPv4 add to every datagram on the wire.
	UDPIPOverhead = 28
	DataHeaderLen = 2 + 1 + 1 + 4 + 4 + 4 + 2 + 4 // magic,type,flags,xfer,seq,total,len,crc = 22
	AckHeaderLen  = 2 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 2
	HelloLen      = 2 + 1 + 1 + 4 + 8 + 4
	CompleteLen   = 2 + 1 + 1 + 4 + 8 + 4
	HelloAckLen   = 2 + 1 + 1 + 4
	AbortLen      = 2 + 1 + 1 + 4 + 1
	// HelloXFixedLen is the fixed prefix of a HELLOX frame:
	// magic,type,version,streams,xfer,objsize,psize = 22; StripeDescLen
	// bytes per stripe follow.
	HelloXFixedLen = 2 + 1 + 1 + 2 + 4 + 8 + 4
	StripeDescLen  = 4 + 8 + 8
	// HaveFixedLen is the fixed prefix of a HAVE frame:
	// magic,type,flags,xfer,received,words = 16; 8 bytes per bitmap word
	// follow.
	HaveFixedLen = 2 + 1 + 1 + 4 + 4 + 4
	// TraceLen is a TRACE frame: magic,type,version,id(16) = 20.
	TraceLen = 2 + 1 + 1 + 16
	// CheckFixedLen is the fixed prefix of a CHECK frame:
	// magic,type,version,flags,nstripes,xfer,objsize,psize,digest(32) = 54;
	// ContentDigestLen bytes per stripe digest follow.
	CheckFixedLen = 2 + 1 + 1 + 1 + 1 + 4 + 8 + 4 + 32
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
	// ErrHelloXVersion rejects a HELLOX from a future protocol revision.
	// The layout after the version byte is only defined for versions this
	// build knows, so an unknown version must be refused outright (the
	// runtime answers with an ABORT) rather than half-parsed.
	ErrHelloXVersion = errors.New("wire: unsupported HELLOX version")
	// ErrTraceVersion rejects a TRACE prelude from a future protocol
	// revision, for the same reason: the runtime answers with an ABORT
	// (unsupported) and the sender retries the handshake untraced.
	ErrTraceVersion = errors.New("wire: unsupported TRACE version")
	// ErrCheckVersion rejects a CHECK prelude of another protocol revision
	// (older or newer: the revision names the digest scheme, and a digest of
	// one scheme proves nothing under another). The runtime answers with an
	// ABORT (unsupported); the CHECK names the object every transfer is
	// verified, cached and retained under, so the sender fails rather than
	// announce without it.
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

// AppendData serializes d onto buf and returns the extended slice.
func AppendData(buf []byte, d *Data) []byte {
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
	buf = binary.BigEndian.AppendUint32(buf, crc)
	return append(buf, d.Payload...)
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

// Hello announces a transfer on the control channel: the object size in
// bytes and the data packet payload size, from which both sides derive the
// packet count.
type Hello struct {
	Transfer   uint32
	ObjectSize uint64
	PacketSize uint32
}

// AppendHello serializes h onto buf.
func AppendHello(buf []byte, h *Hello) []byte {
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeHello, 0)
	buf = binary.BigEndian.AppendUint32(buf, h.Transfer)
	buf = binary.BigEndian.AppendUint64(buf, h.ObjectSize)
	buf = binary.BigEndian.AppendUint32(buf, h.PacketSize)
	return buf
}

// DecodeHello parses a HELLO control message.
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
	h.Transfer = binary.BigEndian.Uint32(b[4:])
	h.ObjectSize = binary.BigEndian.Uint64(b[8:])
	h.PacketSize = binary.BigEndian.Uint32(b[16:])
	if h.PacketSize == 0 {
		return h, errors.New("wire: hello with zero packet size")
	}
	return h, nil
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

// HelloAck is the receiver's acceptance of a HELLO on the control channel.
// Until it arrives the sender does not place data on the network, so a dead
// or rejecting receiver can never cause an open-loop UDP blast. Window is the
// receive window the acceptance advertises (see Window).
type HelloAck struct {
	Transfer uint32
	Window   Window
}

// Window is a receive window as the answer to an announcement carries it: the
// base-two logarithm of how many payload bytes of one data flow the receiver
// undertakes to hold unread, in the fourth byte of HELLO-ACK and HAVE. That
// byte was written zero and read by nobody before the window existed, so zero
// is "no window advertised": a receiver that predates it asks for no flow
// control, and a sender that predates it never looks.
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

// AppendHelloAck serializes h onto buf.
func AppendHelloAck(buf []byte, h *HelloAck) []byte {
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeHelloAck, byte(h.Window))
	return binary.BigEndian.AppendUint32(buf, h.Transfer)
}

// DecodeHelloAck parses a HELLO-ACK control message.
func DecodeHelloAck(b []byte) (HelloAck, error) {
	var h HelloAck
	if len(b) < HelloAckLen {
		return h, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return h, ErrBadMagic
	}
	if b[2] != TypeHelloAck {
		return h, ErrBadType
	}
	h.Window = Window(b[3])
	h.Transfer = binary.BigEndian.Uint32(b[4:])
	return h, nil
}

// HelloXVersion is the HELLOX revision this build speaks. Decoders reject
// anything newer with ErrHelloXVersion; the runtimes turn that into an
// ABORT (unsupported) so a future sender fails fast instead of corrupting
// data against a receiver that cannot place its stripes.
const HelloXVersion uint8 = 1

// MaxStreams bounds the stripe count a HELLOX may announce. It caps the
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

// HelloX is the versioned extended announcement: one control frame
// describing a whole striped transfer. Transfer tags the transfer as a
// unit (the HELLO-ACK and COMPLETE echo it); ObjectSize and PacketSize
// are object-wide, exactly as in HELLO; Stripes lists every stripe in
// offset order. A single-stripe HelloX is legal and equivalent to HELLO.
type HelloX struct {
	Version    uint8
	Transfer   uint32
	ObjectSize uint64
	PacketSize uint32
	Stripes    []StripeDesc
}

// HelloXLen returns the framed length of a HELLOX announcing n stripes.
func HelloXLen(n int) int { return HelloXFixedLen + n*StripeDescLen }

// AppendHelloX serializes h onto buf. The stripe count rides directly
// after the 4-byte frame header so a stream reader can size the remainder
// from one extra 2-byte read.
func AppendHelloX(buf []byte, h *HelloX) []byte {
	if len(h.Stripes) < 1 || len(h.Stripes) > MaxStreams {
		panic(fmt.Sprintf("wire: %d stripes outside 1..%d", len(h.Stripes), MaxStreams))
	}
	v := h.Version
	if v == 0 {
		v = HelloXVersion
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeHelloX, v)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.Stripes)))
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

// DecodeHelloX parses a HELLOX control message. Unknown future versions
// are refused with ErrHelloXVersion before any layout assumptions are
// made; the caller maps that onto AbortUnsupported.
func DecodeHelloX(b []byte) (HelloX, error) {
	var h HelloX
	if len(b) < HelloXFixedLen {
		return h, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return h, ErrBadMagic
	}
	if b[2] != TypeHelloX {
		return h, ErrBadType
	}
	h.Version = b[3]
	if h.Version != HelloXVersion {
		return h, fmt.Errorf("%w: got %d, speak %d", ErrHelloXVersion, h.Version, HelloXVersion)
	}
	n := int(binary.BigEndian.Uint16(b[4:]))
	if n < 1 || n > MaxStreams {
		return h, fmt.Errorf("wire: hellox stripe count %d outside 1..%d", n, MaxStreams)
	}
	if len(b) < HelloXLen(n) {
		return h, ErrShort
	}
	h.Transfer = binary.BigEndian.Uint32(b[6:])
	h.ObjectSize = binary.BigEndian.Uint64(b[10:])
	h.PacketSize = binary.BigEndian.Uint32(b[18:])
	if h.PacketSize == 0 {
		return h, errors.New("wire: hellox with zero packet size")
	}
	h.Stripes = make([]StripeDesc, n)
	for i := 0; i < n; i++ {
		o := HelloXFixedLen + i*StripeDescLen
		h.Stripes[i] = StripeDesc{
			Transfer: binary.BigEndian.Uint32(b[o:]),
			Offset:   binary.BigEndian.Uint64(b[o+4:]),
			Length:   binary.BigEndian.Uint64(b[o+12:]),
		}
	}
	// The stripes must tile the object exactly: contiguous, in order,
	// nothing missing, nothing overlapping. Rejecting here means no
	// runtime ever sees a plan it could mis-place.
	var at uint64
	for i, s := range h.Stripes {
		if s.Offset != at || s.Length == 0 {
			return h, fmt.Errorf("wire: hellox stripe %d at offset %d, want contiguous %d", i, s.Offset, at)
		}
		at += s.Length
	}
	if at != h.ObjectSize {
		return h, fmt.Errorf("wire: hellox stripes cover %d bytes of a %d-byte object", at, h.ObjectSize)
	}
	return h, nil
}

// MaxHaveWords bounds the bitmap a HAVE frame may carry. At 64 packets per
// word it covers objects of up to 2^28 packets while capping the trailer a
// hostile control peer can make a sender buffer at 32 MiB.
const MaxHaveWords = 1 << 22

// Have is the receiver's answer to a CHECK: a summary of what it already
// holds of the named object. Received counts distinct packets held; Words is
// the full got-bitmap (word 0 covers packets 0–63, bit i of word w is packet
// w*64+i), so the sender can mark them acknowledged and transmit only the
// gaps. Window is the receive window a HELLO-ACK also carries; the receiver
// leaves it zero here and advertises it in the HELLO-ACK that follows.
type Have struct {
	Transfer uint32
	Received uint32
	Words    []uint64
	Window   Window
}

// HaveLen returns the framed length of a HAVE carrying n bitmap words.
func HaveLen(n int) int { return HaveFixedLen + n*8 }

// AppendHave serializes h onto buf. The word count rides inside the fixed
// prefix so a stream reader can size the trailer, like HELLOX.
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

// TraceVersion is the TRACE revision this build speaks. Decoders reject
// anything newer with ErrTraceVersion; the runtimes turn that into an
// ABORT (unsupported) and the sender retries the handshake without the
// prelude — tracing is observability, never worth failing a transfer
// over.
const TraceVersion uint8 = 1

// Trace is the trace-id prelude: an optional control frame a sender
// writes immediately before its announcement (HELLO/HELLOX) so
// both endpoints' span logs carry the same 16-byte correlation id. It
// deliberately precedes — rather than extends — the announcement frames,
// leaving their layouts untouched for old peers; a receiver that never
// learned TypeTrace rejects the unknown frame and the sender degrades to
// an untraced handshake.
type Trace struct {
	Version uint8
	ID      [16]byte
}

// AppendTrace serializes t onto buf.
func AppendTrace(buf []byte, t *Trace) []byte {
	v := t.Version
	if v == 0 {
		v = TraceVersion
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeTrace, v)
	return append(buf, t.ID[:]...)
}

// DecodeTrace parses a TRACE control message. Unknown future versions
// are refused with ErrTraceVersion before any layout assumptions are
// made; the caller maps that onto AbortUnsupported.
func DecodeTrace(b []byte) (Trace, error) {
	var t Trace
	if len(b) < TraceLen {
		return t, ErrShort
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return t, ErrBadMagic
	}
	if b[2] != TypeTrace {
		return t, ErrBadType
	}
	t.Version = b[3]
	if t.Version != TraceVersion {
		return t, fmt.Errorf("%w: got %d, speak %d", ErrTraceVersion, t.Version, TraceVersion)
	}
	copy(t.ID[:], b[4:])
	return t, nil
}

// CheckVersion is the CHECK revision this build speaks, and it names the
// digest scheme rather than the frame layout: version 1 carried plain
// SHA-256 digests, version 2 carries core.ContentID's leaf-hashed identity
// in the same bytes. Decoders reject any other version with
// ErrCheckVersion; the runtimes turn that into an ABORT (unsupported) and
// the sender retries the handshake without the content query — content
// addressing is an optimization plus an integrity layer, never worth
// failing a transfer a plain HELLO could open (unless the sender demands
// verification, which it signals by failing locally).
const CheckVersion uint8 = 2

// CHECK flag bits.
const (
	// CheckFlagVerify asks the receiver to verify every stripe digest it
	// was given, not just the whole-object digest, before COMPLETE.
	CheckFlagVerify uint8 = 1 << 0
	// CheckFlagDedup permits the receiver to answer the query from its
	// content cache: a full HAVE bitmap plus COMPLETE in place of the
	// handshake, skipping the data phase entirely. Without it the receiver
	// must answer "miss" even when it holds the object, so a
	// verification-only transfer always moves its bytes.
	CheckFlagDedup uint8 = 1 << 1
)

// Check is the versioned content-identity prelude: a control frame a
// sender writes immediately before its announcement (HELLO/HELLOX)
// declaring the content identity (core.ContentID) of the object about to
// move — and, for a striped plan, of each stripe. Like TRACE it precedes
// rather than extends the announcement frames, leaving their layouts
// untouched. Every announcement carries one: it is the identity the
// receiver verifies the object against, caches it under, and retains a
// failed transfer's partial state under.
//
// The receiver answers every CHECK from one lookup, with a HAVE: the full
// got-bitmap (followed by COMPLETE) when CheckFlagDedup is set and its
// content cache holds the digest; the bitmap of what it retained of the
// object from an earlier, failed transfer (followed by HELLO-ACK); or a
// HAVE with Received == 0 and a single zero word — the encodable "hold
// nothing" answer — followed by HELLO-ACK.
type Check struct {
	Version    uint8
	Flags      uint8
	Transfer   uint32
	ObjectSize uint64
	PacketSize uint32
	// Digest is the whole object's content identity.
	Digest [32]byte
	// StripeDigests carries one content identity per stripe for a striped
	// plan, in stripe order; empty for a single-flow transfer (the
	// whole-object digest covers it).
	StripeDigests [][32]byte
}

// CheckLen returns the framed length of a CHECK carrying n stripe digests.
func CheckLen(n int) int { return CheckFixedLen + n*ContentDigestLen }

// AppendCheck serializes c onto buf. The stripe-digest count rides inside
// the fixed prefix so a stream reader can size the trailer, like HELLOX.
func AppendCheck(buf []byte, c *Check) []byte {
	if len(c.StripeDigests) > MaxStreams {
		panic(fmt.Sprintf("wire: %d stripe digests exceed %d", len(c.StripeDigests), MaxStreams))
	}
	v := c.Version
	if v == 0 {
		v = CheckVersion
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, TypeCheck, v, c.Flags, uint8(len(c.StripeDigests)))
	buf = binary.BigEndian.AppendUint32(buf, c.Transfer)
	buf = binary.BigEndian.AppendUint64(buf, c.ObjectSize)
	buf = binary.BigEndian.AppendUint32(buf, c.PacketSize)
	buf = append(buf, c.Digest[:]...)
	for i := range c.StripeDigests {
		buf = append(buf, c.StripeDigests[i][:]...)
	}
	return buf
}

// DecodeCheck parses a CHECK control message. Every version but this
// build's is refused with ErrCheckVersion before any layout assumptions are made;
// the caller maps that onto AbortUnsupported.
func DecodeCheck(b []byte) (Check, error) {
	var c Check
	if len(b) < CheckFixedLen {
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
	c.Flags = b[4]
	n := int(b[5])
	if n > MaxStreams {
		return c, fmt.Errorf("wire: check stripe count %d exceeds %d", n, MaxStreams)
	}
	if len(b) < CheckLen(n) {
		return c, ErrShort
	}
	c.Transfer = binary.BigEndian.Uint32(b[6:])
	c.ObjectSize = binary.BigEndian.Uint64(b[10:])
	c.PacketSize = binary.BigEndian.Uint32(b[18:])
	if c.PacketSize == 0 {
		return c, errors.New("wire: check with zero packet size")
	}
	if c.ObjectSize == 0 {
		return c, errors.New("wire: check with zero object size")
	}
	copy(c.Digest[:], b[22:])
	if n > 0 {
		c.StripeDigests = make([][32]byte, n)
		for i := 0; i < n; i++ {
			copy(c.StripeDigests[i][:], b[CheckFixedLen+i*ContentDigestLen:])
		}
	}
	return c, nil
}

// CheckStripeCount reads the stripe-digest count out of a CHECK frame
// prefix (at least 6 bytes), bounds-checked against MaxStreams, so a
// stream reader can size the variable trailer before parsing the whole
// frame — a position every CHECK revision keeps.
func CheckStripeCount(b []byte) (int, error) {
	if len(b) < 6 {
		return 0, ErrShort
	}
	n := int(b[5])
	if n > MaxStreams {
		return 0, fmt.Errorf("wire: check stripe count %d exceeds %d", n, MaxStreams)
	}
	return n, nil
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
	// AbortUnsupported rejects a well-formed handshake this endpoint
	// cannot serve: a HELLOX from a future protocol version, or striping
	// toward an endpoint without stripe reassembly.
	AbortUnsupported
	// AbortDigestMismatch reports an assembled object that does not match
	// the content identity its CHECK announced (or a stripe that does not
	// match its announced digest). The sender must not retry: the bytes
	// that arrived are not the object it named.
	AbortDigestMismatch
	// AbortResumeUnknown rejected a RESUME for a transfer the endpoint held
	// no retained state for. RESUME is retired — retained state answers a
	// CHECK — so no endpoint of this build sends it; the code point stays
	// decodable.
	AbortResumeUnknown
	// AbortStripingUnsupported rejected a well-formed striped HELLOX toward
	// an endpoint that could not reassemble stripes. Sent by builds before
	// the concurrent Server shared the Listener's receive lifecycle; no
	// endpoint of this build sends it, but the code point stays decodable,
	// and surfaces as any other deliberate, non-retryable rejection.
	AbortStripingUnsupported
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
	case AbortResumeUnknown:
		return "no resumable state for transfer"
	case AbortStripingUnsupported:
		return "striped transfers unsupported by peer"
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

// ControlLen returns the frame length of a control message type, letting a
// stream reader consume exactly one frame after peeking the 4-byte header.
// For the variable-length TypeHelloX and TypeHave it returns the fixed
// prefix length; the full frame is that prefix plus a trailer sized by a
// count inside the prefix (HelloXStripeCount / HaveWordCount).
func ControlLen(typ uint8) (int, error) {
	switch typ {
	case TypeHello:
		return HelloLen, nil
	case TypeHelloAck:
		return HelloAckLen, nil
	case TypeComplete:
		return CompleteLen, nil
	case TypeAbort:
		return AbortLen, nil
	case TypeHelloX:
		return HelloXFixedLen, nil
	case TypeHave:
		return HaveFixedLen, nil
	case TypeTrace:
		return TraceLen, nil
	case TypeCheck:
		return CheckFixedLen, nil
	default:
		return 0, ErrBadType
	}
}

// HelloXStripeCount reads the stripe count out of a HELLOX frame prefix
// (at least 6 bytes), bounds-checked against MaxStreams, so a stream
// reader can size the variable trailer before parsing the whole frame.
func HelloXStripeCount(b []byte) (int, error) {
	if len(b) < 6 {
		return 0, ErrShort
	}
	n := int(binary.BigEndian.Uint16(b[4:]))
	if n < 1 || n > MaxStreams {
		return 0, fmt.Errorf("wire: hellox stripe count %d outside 1..%d", n, MaxStreams)
	}
	return n, nil
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
		return 0, err // unknown, or retired like RESUME's 8
	}
	return t, nil
}
