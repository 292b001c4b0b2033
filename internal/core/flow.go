package core

import "time"

// flow is the half of the send decision that is not rate control: whether a
// look may send at all. It reads no clock: HandleAck tells it the receiver's
// cumulative counts, probeRTT the round trips, look dates the news on the
// caller's clock and asks, quiet says a wait ran out. Two rules make it. The
// turn-over rule: once as many packets have been selected since the last news
// as are not known received — a full turn of the circular buffer — a further
// turn tells the receiver nothing the sender knows it lacks. The receive
// window, when the receiver advertised one: the first sends beyond the largest
// count it reported — queued in its socket buffer, on the wire, or lost — are
// held to the window (room), widened by what is on the wire (news), less what
// the waits that run out write off as lost (quiet). Retransmissions are not
// charged: the count they would be credited by cannot tell one that filled a
// gap from a duplicate.
type flow struct {
	on bool // SetFlow was called
	// pkts is the window in packets; zero, the turn-over rule alone.
	pkts int
	// ackEvery is the packets between two acknowledgements. The window is
	// never less than two, so that one is always on its way when it closes.
	ackEvery int
	// turn counts the packets selected since the last news or wait run out.
	turn int
	// fresh marks news HandleAck took since the last look; heardAt is the
	// caller's clock at the look that last found some.
	fresh   bool
	heardAt time.Duration
	// heard is the largest cumulative count an acknowledgement carried (a
	// resumed receiver's count starts at what it restored).
	heard int
	// forgiven is how many first sends waits that ran out have written off.
	forgiven int
	// clocked is set once the window has closed: the object is larger than
	// the window and the transfer runs on its acknowledgements.
	clocked bool
	// onWire is the allowance for packets in flight, re-read once per minRTT
	// from the count heard since epochAt, when it stood at epochHeard.
	onWire     int
	minRTT     time.Duration
	epochAt    time.Duration
	epochHeard int
	idle       time.Duration // how long the caller's waits for news last
	// lastRTT is how long a packet has lately taken to be reported, the
	// receiver's queue and its acknowledgement interval included: the latest
	// probed round trip, or half the figure before it when that is longer, so
	// that one quick probe does not make a slow receiver look dead. Until one
	// has been probed it is taken for firstWaits waits for news.
	lastRTT time.Duration
}

// firstWaits is how many waits for news a packet is taken to need to be
// reported before any has been: a receiver touching a fresh 32 MiB buffer
// takes ten milliseconds over its first sixty-four packets, and nothing is
// lost by being slow to write off a path that was dead from the start.
const firstWaits = 8

// SetFlow installs flow control in the paper sender's place, after any
// Restore and before the first look, as SetController installs rate control.
// windowBytes is what the receiver undertook to hold unread in its socket
// buffer (zero: it said nothing, and the turn-over rule alone applies); idle
// is how long the caller's waits for news last.
func (s *Sender) SetFlow(windowBytes int, idle time.Duration) {
	s.flow = flow{
		on: true, pkts: (windowBytes + s.cfg.PacketSize - 1) / s.cfg.PacketSize, ackEvery: s.cfg.AckFrequency,
		heard: s.stats.Restored, epochHeard: s.stats.Restored, idle: idle, lastRTT: firstWaits * idle,
	}
}

// look is Step's first move, after HandleAck took what the look found, at
// now. It dates the news, resolves the round-trip probe and returns how many
// packets, at most limit, the look may send — none means wait for news, and
// quiet if the wait ran out; always limit with no flow installed.
func (s *Sender) look(now time.Duration, limit int) int {
	f := &s.flow
	if f.fresh {
		f.fresh, f.heardAt = false, now
		f.news(now)
	}
	s.probeRTT(now)
	if f.on {
		limit = f.room(s.stats, min(limit, s.n-s.acked.Count()-f.turn))
	}
	return limit
}

// Silence is how long the receiver has been silent at now on the caller's
// clock: zero when an acknowledgement arrived since the last step. A driver's
// stall watchdog reads it before each step.
func (s *Sender) Silence(now time.Duration) time.Duration {
	if s.flow.fresh {
		return 0
	}
	return now - s.flow.heardAt
}

// quiet notes that a wait for news ran out at now with nothing heard: the
// next look starts another turn, and the window may write off what is
// outstanding.
func (s *Sender) quiet(now time.Duration) {
	s.flow.turn = 0
	s.stats.WaitsOut++
	s.stats.WrittenOff += s.flow.quiet(s.stats, now-s.flow.heardAt)
}

// unheard is how many first sends the receiver has not reported received nor
// a wait forgiven.
func (f *flow) unheard(st SenderStats) int {
	return st.PacketsSent - st.Retransmits - (f.heard - st.Restored) - f.forgiven
}

// ack notes an acknowledgement's cumulative count — a reordered one carries a
// smaller count, which is ignored, but it is news all the same — and a new
// turn.
func (f *flow) ack(received int) {
	f.heard = max(f.heard, received)
	f.fresh, f.turn = true, 0
}

// rtt notes one probed round trip.
func (f *flow) rtt(d time.Duration) {
	f.lastRTT = max(d, f.lastRTT/2)
	if f.minRTT == 0 || d < f.minRTT {
		f.minRTT = d
	}
}

// news notes a look, at now, that found acknowledgements, and once per
// shortest-probed round trip re-reads what is on the wire: the count reported
// over the stretch since the last reading, scaled to one round trip — the
// delivery rate times the round trip — so that a long fat path is not held to
// a window per round trip. The acknowledgement that resolves a probe leaves
// when the receiver has counted to the end of an interval, up to a whole
// interval after it took the probed packet: that much of even the shortest
// probe is time in the receiver, and comes off the allowance.
func (f *flow) news(now time.Duration) {
	if dt := now - f.epochAt; f.minRTT > 0 && dt >= f.minRTT {
		f.onWire = max(0, int(int64(f.heard-f.epochHeard)*int64(f.minRTT)/int64(dt))-f.ackEvery)
		f.epochAt, f.epochHeard = now, f.heard
	}
}

// quiet notes a wait that ran out with nothing heard for silence. Twice as
// long as a packet has lately taken to be reported, and what is outstanding
// is taken for lost and written off: first sends lost on the wire must not
// close the window for ever. A receiver merely slower than the caller's wait
// (sixty-four 32 KiB packets take longer than 2 ms to read; a busy host's
// receive loop loses its processor longer) is not forgiven its buffer.
func (f *flow) quiet(st SenderStats, silence time.Duration) int {
	n := f.unheard(st)
	if n <= 0 || silence < 2*f.lastRTT {
		return 0
	}
	f.forgiven += n
	return n
}

// room cuts want, what the turn-over rule allows, to what the window has room
// for; none or less means wait for news. An acknowledgement that arrives
// after all for packets a wait had written off takes the forgiveness back.
//
// Once an ack-clocked transfer has sent every packet once, what it would send
// next is a retransmission, and while first sends are still unheard-of there
// is no telling lost from queued: the packets the sender's bitmap misses are
// the ones at the back of the receiver's queue, and sending them again as
// each acknowledgement makes room fills that room with duplicates. The
// acknowledgements that are coming, or the wait that runs out on them, say
// which it was.
func (f *flow) room(st SenderStats, want int) int {
	if f.pkts == 0 {
		return want
	}
	out := f.unheard(st)
	if out < 0 {
		f.forgiven, out = f.forgiven+out, 0
	}
	open := max(f.pkts+f.onWire, 2*f.ackEvery) - out
	if open <= 0 {
		f.clocked = true
	}
	if f.clocked && out > 0 && st.PacketsSent-st.Retransmits == st.PacketsNeeded-st.Restored {
		return 0
	}
	return min(want, open)
}
