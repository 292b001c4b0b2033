package udprt

import (
	"time"

	"github.com/hpcnet/fobs/internal/core"
)

// flowWindow is a sender engine's account of how much of its flow may sit
// unread in the receiver's socket buffer: the receiver's half of
// senderEngine.run's wait discipline, kept apart from the loop so that it can
// be driven without sockets. It reads no clock and plans nothing; the engine
// tells it what the acknowledgements, the round-trip probes and the waits
// say, and asks it how many packets may go out.
//
// The account is in packets. Each fresh acknowledgement carries the
// receiver's cumulative count of packets received; the first sends beyond the
// largest such count are what the receiver has not been heard to take out of
// its buffer — queued there, on the wire, or lost. They are held to the window
// the receiver advertised, widened by what is on the wire (news); what is
// lost is written off by the waits that run out on it (quiet).
// Retransmissions are not charged: the count they would be credited by cannot
// tell one that filled a gap from one that was a duplicate.
type flowWindow struct {
	// pkts is the receiver's window in packets. Zero: the receiver
	// advertised none, and room never cuts anything.
	pkts int
	// ackEvery is the packets between two acknowledgements. The window, wire
	// included, is never counted as less than two such intervals, so that an
	// acknowledgement is always on its way when it closes.
	ackEvery int
	// heard is the largest cumulative count a fresh acknowledgement carried
	// (a resumed receiver's count starts at what it restored).
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
	epochAt    time.Time
	epochHeard int
	// lastRTT is how long a packet has lately taken to be reported, the
	// receiver's queue and its acknowledgement interval included: the latest
	// probed round trip, or half the figure before it when that is longer, so
	// that one quick probe does not make a slow receiver look dead. Until one
	// has been probed it is taken for firstWaits IdlePolls.
	lastRTT time.Duration
}

// firstWaits is how many IdlePolls a packet is taken to need to be reported
// before any has been: the silence before a transfer's first acknowledgement
// is the one no measurement explains, a receiver touching a fresh 32 MiB
// buffer for the first time takes ten milliseconds over its first sixty-four
// packets, and nothing is lost by being slow to write off a path that was
// dead from the start.
const firstWaits = 8

// newFlowWindow opens the account for a flow whose receiver advertised a
// window of that many bytes (zero: none) and whose sender stands at st and
// waits idlePoll at a time.
func newFlowWindow(bytes int, cfg core.Config, st core.SenderStats, idlePoll time.Duration) flowWindow {
	return flowWindow{
		pkts: (bytes + cfg.PacketSize - 1) / cfg.PacketSize, ackEvery: cfg.AckFrequency,
		heard: st.Restored, epochHeard: st.Restored, lastRTT: firstWaits * idlePoll,
	}
}

// unheard is how many first sends the receiver has not reported received nor
// a wait forgiven.
func (w *flowWindow) unheard(st core.SenderStats) int {
	return st.PacketsSent - st.Retransmits - (w.heard - st.Restored) - w.forgiven
}

// ack notes the cumulative count of a fresh acknowledgement.
func (w *flowWindow) ack(received int) { w.heard = max(w.heard, received) }

// rtt notes one probed round trip.
func (w *flowWindow) rtt(d time.Duration) {
	w.lastRTT = max(d, w.lastRTT/2)
	if w.minRTT == 0 || d < w.minRTT {
		w.minRTT = d
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
func (w *flowWindow) news(now time.Time) {
	if dt := now.Sub(w.epochAt); w.minRTT > 0 && dt >= w.minRTT {
		w.onWire = max(0, int(int64(w.heard-w.epochHeard)*int64(w.minRTT)/int64(dt))-w.ackEvery)
		w.epochAt, w.epochHeard = now, w.heard
	}
}

// quiet notes a wait that ran out with nothing heard for silence. Twice as
// long as a packet has lately taken to be reported, and what is outstanding
// is taken for lost rather than queued and written off for good: first sends
// lost on the wire never come out of anybody's buffer, and must not close the
// window for ever. A receiver that is merely slower than Options.IdlePoll —
// sixty-four 32 KiB packets take longer than two milliseconds to read, and a
// receive loop on a busy host loses its processor for longer than that — is
// not forgiven a buffer it has yet to empty.
func (w *flowWindow) quiet(st core.SenderStats, silence time.Duration) {
	if silence >= 2*w.lastRTT {
		w.forgiven += w.unheard(st)
	}
}

// room cuts want, the packets the engine means to put on the wire, to what
// the window has room for; none or less means wait for news. An
// acknowledgement that arrives after all for packets a wait had written off
// takes the forgiveness back.
//
// Once an ack-clocked transfer has sent every packet once, what it would send
// next is a retransmission, and while first sends are still unheard-of there
// is no telling lost from queued: the packets the sender's bitmap misses are
// the ones at the back of the receiver's queue, and sending them again as
// each acknowledgement makes room fills that room with duplicates. The
// acknowledgements that are coming, or the wait that runs out on them, say
// which it was.
func (w *flowWindow) room(st core.SenderStats, want int) int {
	if w.pkts == 0 {
		return want
	}
	out := w.unheard(st)
	if out < 0 {
		w.forgiven, out = w.forgiven+out, 0
	}
	open := max(w.pkts+w.onWire, 2*w.ackEvery) - out
	if open <= 0 {
		w.clocked = true
	}
	if w.clocked && out > 0 && st.PacketsSent-st.Retransmits == st.PacketsNeeded-st.Restored {
		return 0
	}
	return min(want, open)
}
