package core

import (
	"fmt"
	"time"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/wire"
)

// ReceiverStats counts receive-side events.
type ReceiverStats struct {
	// Received is the number of distinct packets held, including any
	// restored from a previous run via Restore.
	Received int
	// Restored is the number of packets carried over from an interrupted
	// transfer via Restore; they are counted in Received but never passed
	// through the data path, so fresh arrivals = Received - Restored.
	Restored int
	// PacketsNeeded is the object's packet count, fixed at construction —
	// the denominator for partial-transfer progress reports.
	PacketsNeeded int
	// BytesReceived is the payload bytes of the packets received through
	// HandleData (restored ones excluded).
	BytesReceived int
	// Duplicates counts retransmissions of packets already held — the
	// receive-side view of the sender's greediness.
	Duplicates int
	// AcksBuilt counts acknowledgement packets generated.
	AcksBuilt int
	// Rejected counts malformed or mismatched packets dropped.
	Rejected int
	// IdleTimeouts counts firings of the driver's idle watchdog: the
	// object was incomplete and no data arrived for the configured window.
	IdleTimeouts int
	// Deduped reports that this transfer was answered from an object the
	// receiver held whole: the sender's digest query matched it, no
	// data flow was dialed, and Restored covers the whole object. Set by
	// the driver, never by the state machine.
	Deduped bool
	// Elapsed is how long the transfer took from the moment its announcement
	// was read, not counting the wait for a sender to dial. Set by the
	// driver.
	Elapsed time.Duration
}

// Receiver is the FOBS data-receiving state machine: it places each packet
// at its offset in the preallocated object buffer, and after every
// AckFrequency newly received packets reports that an acknowledgement is
// due. The driver then calls BuildAck and puts it on the wire.
type Receiver struct {
	cfg Config
	n   int
	obj []byte // nil when cfg.Discard
	got *bitmap.Bitmap

	sinceAck     int
	highest      int // highest sequence number received; -1 initially
	lastReported int // Received at the time of the previous ack
	ackSeq       uint32
	rot          int      // rotating bitmap-fragment cursor (packet index)
	fragBuf      []uint64 // reused by BuildAck's bitmap extraction

	stats ReceiverStats
}

// NewReceiver prepares a receiver for an object of size bytes. Size and
// packet size normally arrive in the HELLO control message.
func NewReceiver(size int64, cfg Config) *Receiver {
	cfg = cfg.withDefaults()
	if size <= 0 {
		panic("core: cannot receive an empty object")
	}
	r := newReceiver(size, cfg)
	if !cfg.Discard {
		r.obj = make([]byte, size)
	}
	return r
}

// NewReceiverInto prepares a receiver that assembles directly into buf
// instead of allocating its own object buffer. A striped transfer hands
// each stripe's receiver the stripe's slice of the one pre-allocated
// object, so reassembly is placement — no copy joins the stripes at the
// end. Config.Discard is ignored: a provided buffer means assemble.
func NewReceiverInto(buf []byte, cfg Config) *Receiver {
	cfg = cfg.withDefaults()
	if len(buf) == 0 {
		panic("core: cannot receive an empty object")
	}
	r := newReceiver(int64(len(buf)), cfg)
	r.obj = buf
	return r
}

// newReceiver builds the bufferless common state; cfg already defaulted.
func newReceiver(size int64, cfg Config) *Receiver {
	n := NumPackets(size, cfg.PacketSize)
	r := &Receiver{cfg: cfg, n: n, got: bitmap.New(n), highest: -1}
	r.stats.PacketsNeeded = n
	return r
}

// NumPackets returns the object's packet count.
func (r *Receiver) NumPackets() int { return r.n }

// Config returns the receiver's effective (defaulted) configuration.
func (r *Receiver) Config() Config { return r.cfg }

// Object returns the assembled object; valid once Complete reports true.
// It returns nil for Discard receivers.
func (r *Receiver) Object() []byte { return r.obj }

// Complete reports whether every packet has been received.
func (r *Receiver) Complete() bool { return r.got.Full() }

// Stats returns a snapshot of the receiver counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// NoteIdle records one firing of the driver's idle watchdog (the state
// machines never read a clock, so liveness deadlines live in the driver).
func (r *Receiver) NoteIdle() { r.stats.IdleTimeouts++ }

// HaveWords appends a snapshot of the got-bitmap's raw words to dst and
// returns the extended slice — the payload of a HAVE frame or a
// checkpoint. Word 0 covers packets 0–63, bit i of word w is packet
// w*64+i.
func (r *Receiver) HaveWords(dst []uint64) []uint64 { return r.got.AppendWords(dst) }

// Restore seeds a fresh receiver with the got-bitmap of an interrupted
// transfer, before any data is processed. The corresponding object bytes
// must already sit in the receiver's buffer (NewReceiverInto with the
// retained buffer). It returns the number of packets restored. Restoring
// into a receiver that has already seen data is a programming error.
func (r *Receiver) Restore(words []uint64) (int, error) {
	if r.stats.Received != 0 || r.stats.Restored != 0 {
		return 0, fmt.Errorf("core: Restore on a receiver that already holds %d packets", r.stats.Received)
	}
	n, err := r.got.Merge(bitmap.Fragment{Start: 0, Words: words})
	if err != nil {
		return 0, fmt.Errorf("core: restore bitmap: %w", err)
	}
	r.stats.Restored = n
	r.stats.Received = n
	// The restored packets predate this run's ack stream: the first ack's
	// delta must count only fresh arrivals, and the rotation should start
	// at the first gap so the sender learns the missing region early.
	r.lastReported = n
	if first := r.got.FirstUnset(0); first > 0 {
		r.highest = first - 1
		r.rot = first
	} else if first < 0 {
		r.highest = r.n - 1
	}
	return n, nil
}

// HandleData incorporates one data packet. It reports whether an
// acknowledgement packet is now due (AckFrequency new packets arrived since
// the last one, or the object just completed).
func (r *Receiver) HandleData(d wire.Data) (ackDue bool, err error) {
	if d.Transfer != r.cfg.Transfer {
		return false, nil
	}
	if int(d.Total) != r.n || int(d.Seq) >= r.n {
		r.stats.Rejected++
		return false, fmt.Errorf("core: packet %d/%d does not match object of %d packets",
			d.Seq, d.Total, r.n)
	}
	seq := int(d.Seq)
	lo := seq * r.cfg.PacketSize
	wantLen := r.cfg.PacketSize
	if last := int64(lo) + int64(wantLen); r.obj != nil && last > int64(len(r.obj)) {
		wantLen = len(r.obj) - lo
	} else if r.obj == nil && seq == r.n-1 {
		wantLen = len(d.Payload) // Discard mode cannot check the tail length
	}
	if r.obj != nil && len(d.Payload) != wantLen {
		r.stats.Rejected++
		return false, fmt.Errorf("core: packet %d has %d payload bytes, want %d",
			seq, len(d.Payload), wantLen)
	}
	if !r.got.Set(seq) {
		r.stats.Duplicates++
		return false, nil
	}
	r.stats.Received++
	r.stats.BytesReceived += len(d.Payload)
	r.sinceAck++
	if seq > r.highest {
		r.highest = seq
	}
	if r.obj != nil {
		copy(r.obj[lo:], d.Payload)
	}
	if r.sinceAck >= r.cfg.AckFrequency || r.Complete() {
		return true, nil
	}
	return false, nil
}

// BuildAck produces the next acknowledgement packet: cumulative count, the
// count newly received since the previous ack (the adaptive batch policy's
// signal), and a bitmap fragment.
//
// With 1024-byte packets a 40 MB object's full bitmap (5 KB) does not fit
// in one ack, so each ack carries as many words as fit and the region
// rotates: the fragment starts at the lowest packet the receiver is still
// missing when that region is stale, otherwise at a cursor that cycles
// through the object, so the sender eventually learns every status.
//
// The returned ack's bitmap fragment aliases a buffer reused by the next
// BuildAck; serialize (or copy) it first. Every driver does — an ack is
// encoded and put on the wire before any more data is processed.
func (r *Receiver) BuildAck() wire.Ack {
	r.stats.AcksBuilt++
	r.ackSeq++
	delta := r.stats.Received - r.lastReported
	r.lastReported = r.stats.Received
	r.sinceAck = 0

	words := wire.MaxFragWords(r.cfg.AckPacketSize)
	frag := r.got.ExtractInto(r.fragBuf, r.rot, words)
	r.fragBuf = frag.Words[:0]
	// Advance the rotation; wrap to the first missing packet so the
	// region the sender most needs is refreshed every cycle.
	r.rot = frag.Start + len(frag.Words)*64
	if r.rot >= r.n {
		if first := r.got.FirstUnset(0); first >= 0 {
			r.rot = first
		} else {
			r.rot = 0
		}
	}
	return wire.Ack{
		Transfer: r.cfg.Transfer,
		AckSeq:   r.ackSeq,
		Received: uint32(r.stats.Received),
		Delta:    uint32(delta),
		Frag:     frag,
	}
}

// Missing returns how many packets have not yet arrived.
func (r *Receiver) Missing() int { return r.n - r.got.Count() }

// HighestReceived returns the largest sequence number received so far, or
// -1. Gap-based loss detectors (SABUL) NAK only below this point.
func (r *Receiver) HighestReceived() int { return r.highest }

// MissingSeqs appends the sequence numbers of every packet not yet received
// to buf and returns it. Baselines that synchronize on explicit missing
// lists (RUDP) use this; FOBS itself never does.
func (r *Receiver) MissingSeqs(buf []uint32) []uint32 {
	q := 0
	for q < r.n {
		next := r.got.FirstUnset(q)
		if next < 0 || next < q {
			break // bitmap full, or the circular search wrapped around
		}
		buf = append(buf, uint32(next))
		q = next + 1
	}
	return buf
}
