package core

import (
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/wire"
)

// The sender loop's step against a recording wire: what a look sends, how it
// cuts rounds into flushes, and what it says to wait for. Its drivers' own
// tests are internal/udprt's (the socket engine, TestSenderHotPathZeroAllocs,
// the golden schedule) and internal/simrun's (TestSimulatorRunsTheSocketsPacer).

// tape is a Vector of size slots that records every round and flush, and
// whose wire takes at most take packets of a flush (negative: all of them).
type tape struct {
	size, take int
	rounds     []int           // batch of each round planned
	gaps       []time.Duration // and its gap
	flushes    []int           // packets handed to each flush
	seqs       []uint32
}

func (v *tape) Len() int { return v.size }
func (v *tape) Round(batch int, gap time.Duration) {
	v.rounds, v.gaps = append(v.rounds, batch), append(v.gaps, gap)
}
func (v *tape) Put(_ int, pkt wire.Data, _ int) { v.seqs = append(v.seqs, pkt.Seq) }
func (v *tape) Flush(k int) (int, bool) {
	v.flushes = append(v.flushes, k)
	if v.take >= 0 && v.take < k {
		return v.take, false
	}
	return k, true
}

// gapController asks for the batch policy's ask at a fixed gap.
type gapController struct {
	Greedy
	gap time.Duration
}

func (c gapController) Tick(max int) Directive { return Directive{Batch: max, Gap: c.gap} }

// TestStepQueuesUnpacedRounds: rounds without a gap queue up in the vector
// and leave in flushes of its length until the look's room is used up.
func TestStepQueuesUnpacedRounds(t *testing.T) {
	s := NewSender(makeObject(100*DefaultPacketSize), Config{Batch: FixedBatch(3)})
	v := &tape{size: 4, take: -1}
	if wait, at := s.Step(time.Millisecond, v); wait != Poll || at != 0 {
		t.Fatalf("an unpaced look says wait %v until %v", wait, at)
	}
	// Room 4: a round of 3, then one cut to the 1 left.
	if len(v.rounds) != 2 || len(v.seqs) != 4 || len(v.flushes) != 1 || v.flushes[0] != 4 {
		t.Fatalf("rounds %v, %d packets, flushes %v; want two rounds, four packets, one flush of 4",
			v.rounds, len(v.seqs), v.flushes)
	}
}

// TestStepPacedRoundGoesAlone: a round with a gap leaves on its own, whole,
// in flushes of the vector's length, and ends the look; the pacing clock is
// charged for it and a later look before the instant sends nothing.
func TestStepPacedRoundGoesAlone(t *testing.T) {
	const gap = 500 * time.Microsecond
	s := NewSender(makeObject(100*DefaultPacketSize), Config{Batch: FixedBatch(10)})
	s.SetController(gapController{gap: gap})
	v := &tape{size: 4, take: -1}
	now := 10 * time.Millisecond
	wait, at := s.Step(now, v)
	if len(v.rounds) != 1 || len(v.seqs) != 10 || len(v.flushes) != 3 {
		t.Fatalf("rounds %v, %d packets, flushes %v; want one round of 10 in flushes of 4, 4, 2",
			v.rounds, len(v.seqs), v.flushes)
	}
	// The clock starts a burst behind: the round is booked from now-PaceBurst.
	if want := now - PaceBurst + 10*gap; wait != Pace || at != want {
		t.Fatalf("after a paced round: wait %v until %v, want Pace until %v", wait, at, want)
	}
	if w, a := s.Step(at-time.Microsecond, v); w != Pace || a != at || len(v.seqs) != 10 {
		t.Fatalf("a look before the instant: wait %v until %v, %d packets sent", w, a, len(v.seqs))
	}
	if s.Step(at, v); len(v.seqs) != 20 {
		t.Fatalf("the look at the instant sent %d packets, want the next round of 10", len(v.seqs)-10)
	}
}

// TestStepShortWriteEndsTheLook: a flush the wire took only part of ends
// the look, and the pacing clock is charged for what it took.
func TestStepShortWriteEndsTheLook(t *testing.T) {
	s := NewSender(makeObject(100*DefaultPacketSize), Config{Batch: FixedBatch(3)})
	v := &tape{size: 8, take: 2}
	s.Step(time.Millisecond, v)
	if len(v.flushes) != 1 || s.Stats().PacketsSent != 8 {
		t.Fatalf("flushes %v after %d packets selected", v.flushes, s.Stats().PacketsSent)
	}
	v.take = 0
	if wait, _ := s.Step(2*time.Millisecond, v); wait != News {
		t.Fatalf("a look whose write failed says wait %v, want News", wait)
	}
}

// TestStepNewsWaitRunsOutAtItsInstant: a look with no room waits for news
// until the idle poll runs out; a look before then that found nothing (a
// datagram that was not news woke the driver) writes nothing off, one at or
// after it does, and one that found an acknowledgement does not.
func TestStepNewsWaitRunsOutAtItsInstant(t *testing.T) {
	const idle = 2 * time.Millisecond
	s := NewSender(makeObject(64*DefaultPacketSize), Config{Transfer: 9})
	s.SetFlow(0, idle)
	v := &tape{size: 32, take: -1}
	now := time.Millisecond
	for s.Step(now, v); len(v.seqs) < 64; s.Step(now, v) {
		now += time.Microsecond
	}
	wait, at := s.Step(now, v) // a full turn and no news
	if wait != News || at != now+idle {
		t.Fatalf("after a full turn: wait %v until %v, want News until %v", wait, at, now+idle)
	}
	if s.Step(at-time.Microsecond, v); s.Stats().WaitsOut != 0 || len(v.seqs) != 64 {
		t.Fatalf("an early wake: %d waits out, %d packets", s.Stats().WaitsOut, len(v.seqs))
	}
	_, at = s.Step(at, v) // still early: the early wake restarted the wait
	if s.Step(at, v); s.Stats().WaitsOut != 1 || len(v.seqs) != 64+32 {
		t.Fatalf("a wait that ran out: %d waits out, %d packets; want 1 and a new turn", s.Stats().WaitsOut, len(v.seqs))
	}
	for s.Step(at, v); len(v.seqs) < 128; s.Step(at, v) {
	}
	wait, at = s.Step(at, v)
	s.HandleAck(wire.Ack{Transfer: 9, AckSeq: 1, Received: 1})
	if s.Step(at, v); wait != News || s.Stats().WaitsOut != 1 {
		t.Fatalf("a wait an acknowledgement ended: wait %v, %d waits out", wait, s.Stats().WaitsOut)
	}
}
