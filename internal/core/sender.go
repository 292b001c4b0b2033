package core

import (
	"fmt"
	"time"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/wire"
)

// SenderStats counts the quantities the paper reports for the data sender.
type SenderStats struct {
	// PacketsSent is every data packet placed on the network, including
	// retransmissions — the numerator of the wasted-resources metric.
	PacketsSent int
	// BytesSent is the payload bytes of those packets.
	BytesSent int
	// Rounds counts the batch-send rounds that selected at least one packet.
	Rounds int
	// PacketsNeeded is the object's packet count.
	PacketsNeeded int
	// AcksProcessed counts acknowledgement packets consumed.
	AcksProcessed int
	// StaleAcks counts reordered acks whose sequence number had already
	// been passed (their bitmap is still merged — bits only ever add).
	StaleAcks int
	// KnownReceived is how many packets the sender knows arrived.
	KnownReceived int
	// Stalls counts firings of the driver's stall watchdog: the transfer
	// was incomplete and no acknowledgement arrived for the configured
	// window (the paper's greedy sender has no such exit; production
	// movers need one).
	Stalls int
	// Restored is the number of packets marked already-received before the
	// first send, from a resume handshake's HAVE bitmap. They count toward
	// KnownReceived but were never sent this run, so a resumed run's
	// PacketsSent covers only the gaps (plus retransmissions).
	Restored int
	// Retransmits counts the packets of PacketsSent whose sequence number
	// had been sent before this run: the one classification there is, which
	// rate policy (a Controller's LossEvents are its increments) and the
	// live registry both read.
	// Conservation: PacketsSent = first sends + Retransmits.
	Retransmits int
	// RoundTrips counts the round trips the sender's probe measured, one at a
	// time, and RTT is the latest of them.
	RoundTrips int
	RTT        time.Duration
	// WaitsOut counts the waits for news that ran out with nothing heard, and
	// WrittenOff the first sends they wrote off as lost (flow.go).
	WaitsOut, WrittenOff int
	// Deduped reports that the receiver answered the content-digest query
	// with a full HAVE: it already held the object, the data phase was
	// skipped entirely, and PacketsSent is zero while Restored covers the
	// whole object. Set by the driver, never by the state machine.
	Deduped bool
}

// Waste is the paper's wasted-network-resources metric: packets sent beyond
// the minimum, as a fraction of the minimum ("approximately 3%").
func (s SenderStats) Waste() float64 {
	if s.PacketsNeeded == 0 {
		return 0
	}
	return float64(s.PacketsSent-s.PacketsNeeded) / float64(s.PacketsNeeded)
}

// AckObserver sees the sender-internal acknowledgement processing that a
// driver cannot reconstruct from outside: which acknowledgement was
// processed, and exactly which packets its bitmap fragment newly marked
// received. The flight recorder hangs off this hook; implementations must
// not call back into the Sender.
type AckObserver interface {
	// OnAck is called once per acknowledgement processed for this
	// transfer, before the fragment merge: serial is the ack sequence
	// number, received the cumulative delivered count it carried, stale
	// whether the serial had already been passed (a reordered ack).
	OnAck(serial uint32, received int, stale bool)
	// OnPacketAcked is called after OnAck for each packet the fragment
	// newly acknowledged, in ascending sequence order.
	OnPacketAcked(seq uint32)
}

// Sender is the FOBS data-sending state machine. Its drivers use HandleAck for
// each acknowledgement available (never blocking for one), Step for each look
// (step.go: the one sender loop), and SetComplete when the completion signal
// arrives on the control channel.
type Sender struct {
	cfg   Config
	obj   []byte
	n     int
	acked *bitmap.Bitmap
	// sent marks every sequence number transmitted at least once, so a
	// repeat selection is classified as a retransmission (test-and-set per
	// packet).
	sent *bitmap.Bitmap
	obs  AckObserver
	// onAcked adapts obs.OnPacketAcked to the bitmap's merge callback; it
	// is built once in SetObserver so the ack path allocates nothing.
	onAcked func(i int)

	cursor    int // circular schedule position
	lastAck   uint32
	lastDelta int
	sentSince int  // packets sent since the previous processed ack
	planned   bool // a round was planned and has selected no packet yet
	complete  bool

	// cc is the rate-control policy, fed here and nowhere else: fresh
	// acknowledgements by HandleAck, losses — the part of stats.Retransmits
	// beyond lossSeen — ahead of the next OnAck or Tick, round trips by
	// probeRTT.
	cc       Controller
	lossSeen int
	// The one round-trip probe in flight: probeSeq is the sequence number it
	// rides on (probeIdle: none; probeArmed: the next packet selected),
	// probeAt the driver's clock when the round that carries it was planned.
	probeSeq int
	probeAt  time.Duration
	// flow is the rest of the send decision: the turn-over rule and the
	// receive window (flow.go), inert until SetFlow.
	flow flow
	loop loop // Step's, between looks (step.go)
	// pace is added to every round's gap, and cap, when set, is the rate
	// cap the sender shares (SetPace): capAt is the cap's clock when the
	// sender's reads zero, capEnd where its last reservation on it ends.
	pace          time.Duration
	cap           *RateCap
	capAt, capEnd time.Duration

	// content memoizes ContentID(obj) — computed on first demand, not at
	// construction, so the simulation harnesses that build thousands of
	// senders never pay for hashing they don't use.
	content    [32]byte
	hasContent bool

	stats SenderStats
}

// NewSender prepares a sender for the given object.
func NewSender(obj []byte, cfg Config) *Sender {
	cfg = cfg.withDefaults()
	if len(obj) == 0 {
		panic("core: cannot send an empty object")
	}
	n := NumPackets(int64(len(obj)), cfg.PacketSize)
	return &Sender{
		cfg:   cfg,
		obj:   obj,
		n:     n,
		acked: bitmap.New(n),
		sent:  bitmap.New(n),
		stats: SenderStats{PacketsNeeded: n},
		cc:    Greedy{}, probeSeq: probeIdle,
	}
}

// SetController installs the sender's rate-control policy in Greedy's place,
// before the first round is planned. A controller serves one sender.
func (s *Sender) SetController(c Controller) { s.cc = c }

// SetPace slows every round the sender plans, before the first: pace is
// added to the controller's gap, and then c, when not nil, takes the stricter
// of its verdict and the round's. c's clock reads at when the step's clock
// reads zero.
func (s *Sender) SetPace(pace time.Duration, c *RateCap, at time.Duration) {
	s.pace, s.cap, s.capAt, s.capEnd = pace, c, at, 0
}

const (
	probeIdle  = -1
	probeArmed = -2
	// rttProbeStale bounds how long one round-trip probe stays armed: if the
	// probed packet's acknowledgement has not appeared in a second (lost
	// packet, or a stalled flow), it is abandoned and a later round arms a
	// new one.
	rttProbeStale = time.Second
)

// reportLoss tells the controller of the retransmissions selected since the
// last report.
func (s *Sender) reportLoss() {
	if d := s.stats.Retransmits - s.lossSeen; d > 0 {
		s.lossSeen = s.stats.Retransmits
		s.cc.OnLoss(LossEvent{Retransmits: d})
	}
}

// planRound plans the next batch-send round of a step: the batch policy asks,
// the controller may cap the ask and names the pacing gap to charge per
// packet sent, SetPace's pace is added to it, and a shared rate cap then
// takes the stricter of its verdict and the round's: smaller batch, longer
// gap. Nothing to ask for (batch <= 0) bypasses them all. The clamps are the
// sender's own guarantee — no controller can push a round outside [1, ask] or
// make the gap negative. now is the step's clock: with no round-trip probe in
// flight, the round's first packet becomes one.
func (s *Sender) planRound(now time.Duration) (batch int, gap time.Duration) {
	want := s.BatchSize()
	if want <= 0 {
		return want, 0
	}
	s.reportLoss()
	s.planned = true
	d := s.cc.Tick(want)
	if s.probeSeq < 0 {
		s.probeSeq, s.probeAt = probeArmed, now
	}
	batch, gap = min(want, max(d.Batch, 1)), max(d.Gap+s.pace, 0)
	if s.cap != nil {
		var capGap time.Duration
		batch, capGap, s.capEnd = s.cap.grant(s.capAt+now, batch, float64(8*(s.cfg.PacketSize+wire.UDPIPOverhead)), s.capEnd)
		gap = max(gap, capGap)
	}
	return batch, gap
}

// probeRTT resolves the round-trip probe against the caller's clock (any
// monotonic reading; the sender only subtracts): the moment the probed
// sequence number shows acknowledged, plan-to-acknowledgement bounds one
// network round trip — an overestimate by up to the receiver's ack-batching
// delay, which is part of the control loop anyway. The controller and the
// flow account hear of the sample; look is the step's way in.
func (s *Sender) probeRTT(now time.Duration) (rtt time.Duration, ok bool) {
	if s.probeSeq < 0 {
		return 0, false
	}
	if !s.acked.Test(s.probeSeq) {
		if now-s.probeAt > rttProbeStale {
			s.probeSeq = probeIdle
		}
		return 0, false
	}
	s.probeSeq = probeIdle
	rtt = now - s.probeAt
	s.stats.RoundTrips++
	s.stats.RTT = rtt
	s.cc.OnRTT(rtt)
	s.flow.rtt(rtt)
	return rtt, true
}

// SetObserver installs the acknowledgement observer (nil to remove).
// Drivers set it before the first HandleAck.
func (s *Sender) SetObserver(o AckObserver) {
	s.obs = o
	s.onAcked = nil
	if o != nil {
		s.onAcked = func(i int) { o.OnPacketAcked(uint32(i)) }
	}
}

// NumPackets returns the object's packet count.
func (s *Sender) NumPackets() int { return s.n }

// ObjectSize returns the object's size in bytes.
func (s *Sender) ObjectSize() int64 { return int64(len(s.obj)) }

// ContentID returns the object's SHA-256 content identity, memoized on
// first call. Drivers hash here — once per object, off the per-packet
// path — rather than calling core.ContentID on every handshake attempt.
func (s *Sender) ContentID() [32]byte {
	if !s.hasContent {
		s.content = ContentID(s.obj)
		s.hasContent = true
	}
	return s.content
}

// Config returns the sender's effective (defaulted) configuration.
func (s *Sender) Config() Config { return s.cfg }

// Done reports whether the completion signal has been received.
func (s *Sender) Done() bool { return s.complete }

// SetComplete records the receiver's "all data received" control signal;
// afterwards NextPacket stops yielding packets.
func (s *Sender) SetComplete() { s.complete = true }

// NoteStall records one firing of the driver's stall watchdog. The state
// machines never read a clock, so liveness deadlines live in the driver;
// this keeps the count in the transfer's statistics.
func (s *Sender) NoteStall() { s.stats.Stalls++ }

// Restore marks the packets of a HAVE bitmap as already received, before
// the first send, so a resumed transfer transmits only the gaps. It
// returns the number of packets restored. Restoring after packets have
// been sent is a programming error — the schedule would already have
// covered them.
func (s *Sender) Restore(words []uint64) (int, error) {
	if s.stats.PacketsSent != 0 || s.stats.Restored != 0 {
		return 0, fmt.Errorf("core: Restore on a sender that already sent %d packets", s.stats.PacketsSent)
	}
	// No observer callback: these packets were never sent this run, so
	// per-packet latency instrumentation must not see them.
	n, err := s.acked.Merge(bitmap.Fragment{Start: 0, Words: words})
	if err != nil {
		return 0, fmt.Errorf("core: restore bitmap: %w", err)
	}
	s.stats.Restored = n
	return n, nil
}

// Stats returns a snapshot of the sender counters.
func (s *Sender) Stats() SenderStats {
	st := s.stats
	st.KnownReceived = s.acked.Count()
	return st
}

// BatchSize returns the number of packets for the next batch-send
// operation, per the configured policy.
func (s *Sender) BatchSize() int {
	return s.cfg.Batch.Next(s.lastDelta, s.n-s.acked.Count())
}

// NextPacket selects and returns the next data packet per the configured
// schedule, or ok=false when nothing remains to send (every packet is known
// received, or the transfer is complete). The returned payload aliases the
// object.
func (s *Sender) NextPacket() (pkt wire.Data, ok bool) {
	if s.complete {
		return wire.Data{}, false
	}
	seq := s.selectSeq()
	if seq < 0 {
		return wire.Data{}, false
	}
	s.stats.PacketsSent++
	s.sentSince++
	s.flow.turn++
	if !s.sent.Set(seq) {
		s.stats.Retransmits++
	}
	if s.planned {
		s.planned = false
		s.stats.Rounds++
	}
	if s.probeSeq == probeArmed {
		s.probeSeq = seq
	}
	lo := seq * s.cfg.PacketSize
	hi := lo + s.cfg.PacketSize
	if hi > len(s.obj) {
		hi = len(s.obj)
	}
	s.stats.BytesSent += hi - lo
	return wire.Data{
		Transfer: s.cfg.Transfer,
		Seq:      uint32(seq),
		Total:    uint32(s.n),
		Payload:  s.obj[lo:hi],
		Checksum: s.cfg.Checksum,
	}, true
}

// selectSeq implements the three packet-choice policies.
func (s *Sender) selectSeq() int {
	switch s.cfg.Schedule {
	case Circular:
		seq := s.acked.FirstUnset(s.cursor)
		if seq < 0 {
			return -1
		}
		s.cursor = seq + 1
		if s.cursor >= s.n {
			s.cursor = 0
		}
		return seq
	case Restart:
		return s.acked.FirstUnset(0)
	case RandomUnacked:
		unacked := s.n - s.acked.Count()
		if unacked == 0 {
			return -1
		}
		// Pick a random starting point and take the next unacked packet
		// from there: uniform enough, and O(1) amortized.
		return s.acked.FirstUnset(s.cfg.Rand.Intn(s.n))
	default:
		panic(fmt.Sprintf("core: unknown schedule %v", s.cfg.Schedule))
	}
}

// HandleAck folds an acknowledgement packet into the sender's knowledge.
// Acks from other transfers are ignored; corrupted fragments are rejected
// with an error and otherwise ignored.
func (s *Sender) HandleAck(a wire.Ack) error {
	if a.Transfer != s.cfg.Transfer {
		return nil
	}
	s.stats.AcksProcessed++
	s.flow.ack(int(a.Received))
	fresh := a.AckSeq > s.lastAck
	if fresh {
		s.lastAck = a.AckSeq
		s.lastDelta = int(a.Delta)
		s.reportLoss()
		s.cc.OnAck(AckEvent{Sent: s.sentSince, Acked: int(a.Delta)})
		s.sentSince = 0
	} else {
		s.stats.StaleAcks++
	}
	if s.obs != nil {
		// The observer hears about the ack even when the fragment is then
		// rejected, matching the driver-level accounting (which counts
		// every decoded ack for this transfer).
		s.obs.OnAck(a.AckSeq, int(a.Received), !fresh)
	}
	if _, err := s.acked.MergeFunc(a.Frag, s.onAcked); err != nil {
		return fmt.Errorf("core: rejecting ack fragment: %w", err)
	}
	// The cumulative count can outrun the fragments we have seen. Short of
	// the packet count it says nothing about which packets are held, and
	// the bitmap stays authoritative for scheduling; at the packet count
	// it is the receiver stating that it holds every one, whatever slice
	// of the bitmap this fragment happened to cover.
	if int(a.Received) >= s.n && !s.acked.Full() {
		s.ackAll()
	}
	return nil
}

// ackAll marks every packet acknowledged through the fragment-merge path, so
// the observer sees each newly acknowledged packet exactly as it would from
// the receiver's own fragments. It runs at most once per transfer. The merge
// masks the bits past the last packet and cannot fail: the fragment is the
// bitmap's own length.
func (s *Sender) ackAll() {
	words := make([]uint64, s.acked.WordCount())
	for i := range words {
		words[i] = ^uint64(0)
	}
	s.acked.MergeFunc(bitmap.Fragment{Words: words}, s.onAcked)
}

// KnownComplete reports whether the sender's own bitmap already shows every
// packet received (the control-channel signal usually arrives first, since
// acks only cover bitmap fragments).
func (s *Sender) KnownComplete() bool { return s.acked.Full() }
