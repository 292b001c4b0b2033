package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/wire"
)

// The pacing clock on a fake clock: the pacer reads no time, so its
// arithmetic is checked here instant by instant. Its one wait on real sockets
// is internal/udprt's, and its rate on the simulator internal/simrun's.

// paceEpoch is an arbitrary origin for the fake clock.
const paceEpoch = 1_000_000 * time.Second

// burst runs rounds of batch packets at gap each, all at now, until the
// clock makes the driver wait, returning how many went out and the instant.
func burst(p *pacer, now, gap time.Duration, batch int) (pkts int, at time.Duration) {
	for {
		pkts += batch
		if at = p.charge(now, gap, batch); at != 0 {
			return pkts, at
		}
	}
}

func TestPacerZeroGapNeverWaits(t *testing.T) {
	var p pacer
	now := paceEpoch
	for i := 0; i < 1000; i++ {
		if at := p.charge(now, 0, 32); at != 0 {
			t.Fatalf("round %d: an unpaced round set a pacing instant %v", i, at)
		}
		now += time.Microsecond
	}
	if p.next != 0 {
		t.Fatalf("unpaced rounds moved the clock to %v", p.next)
	}
}

// TestPacerRepaysOversleep: every wait wakes 150 µs late, and the rate on the
// wire is still the one asked for — where a debt slept in whole, and
// forgotten on waking, would lose 150 µs in every millisecond.
func TestPacerRepaysOversleep(t *testing.T) {
	const (
		gap       = 84200 * time.Nanosecond // sabul's ask on a 100 Mb/s path
		batch     = 2
		packets   = 10000
		oversleep = 150 * time.Microsecond
	)
	var p pacer
	now := paceEpoch
	waits := 0
	for sent := 0; sent < packets; sent += batch {
		if at := p.charge(now, gap, batch); at != 0 {
			if at-now < paceGrain {
				t.Fatalf("asked to wait %v, under the %v grain", at-now, paceGrain)
			}
			now = at + oversleep
			waits++
		}
	}
	want := packets * gap
	got := now - paceEpoch
	t.Logf("%d packets in %v over %d waits, asked for %v", packets, got, waits, want)
	if off := float64(got-want) / float64(want); off > 0.01 || off < -0.01 {
		t.Fatalf("%d packets took %v at %v a packet, want %v within 1%%", packets, got, gap, want)
	}
}

// TestPacerIdleBanksOneBurst: a clock left behind by an idle spell is
// clamped, so the burst after it carries at most PaceBurst of packets more
// than one after an on-time wake.
func TestPacerIdleBanksOneBurst(t *testing.T) {
	const (
		gap   = 84200 * time.Nanosecond
		batch = 2
	)
	var p pacer
	now := paceEpoch
	for i := 0; i < 100; i++ {
		_, now = burst(&p, now, gap, batch) // every wait wakes on time
	}
	steady, at := burst(&p, now, gap, batch)
	idle, _ := burst(&p, at+50*time.Millisecond, gap, batch)
	banked := time.Duration(idle-steady) * gap
	t.Logf("on-time burst %d packets, after 50 ms idle %d: %v banked", steady, idle, banked)
	if banked > PaceBurst+batch*gap {
		t.Fatalf("a 50 ms idle spell banked %v of packets, want at most %v", banked, PaceBurst)
	}
}

// TestPacerNeverMovesBack: whatever the rounds and however the waits wake,
// the clock and the instants it hands out only move forward, and an instant
// is never less than a grain away.
func TestPacerNeverMovesBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gaps := []time.Duration{0, time.Microsecond, 15 * time.Microsecond, 84 * time.Microsecond, time.Millisecond, 20 * time.Millisecond}
	var p pacer
	now := paceEpoch
	var last, clock time.Duration
	for i := 0; i < 100000; i++ {
		at := p.charge(now, gaps[rng.Intn(len(gaps))], rng.Intn(33))
		if p.next < clock {
			t.Fatalf("step %d: clock moved back from %v to %v", i, clock, p.next)
		}
		clock = p.next
		if at != 0 {
			if at < last {
				t.Fatalf("step %d: instant %v before the previous %v", i, at, last)
			}
			if at-now < paceGrain {
				t.Fatalf("step %d: instant %v ahead, under the grain", i, at-now)
			}
			last = at
			if rng.Intn(2) == 0 {
				now = at // the wait ran out, give or take a little
			}
		}
		now += time.Duration(rng.Intn(3000)) * time.Microsecond / 10
	}
}

// The shared rate cap on the same fake clock: its verdict per round, what it
// charges, how planRound composes it with the policy and the pace, a late
// wake, and a capped step's allocations. Its rate on real sockets is
// internal/udprt's to measure, and on the simulator internal/simrun's.

// TestRateCapGrantContract pins the cap's verdict per round: the batch stays
// in [1, want], the gap in [0, MaxControllerGap]; a cap below one flow's
// starvation floor yields exactly the floor and reserves nothing; and a
// tight loop of grants cannot reserve wire time unboundedly far ahead.
func TestRateCapGrantContract(t *testing.T) {
	const bitsPerPkt = 12000
	now := paceEpoch
	c, _ := NewRateCap(2e6)
	for _, want := range []int{-3, 0, 1, 7, 32, 1024} {
		n, gap, _ := c.grant(now, want, bitsPerPkt, 0)
		if lo := max(want, 1); n < 1 || n > lo {
			t.Fatalf("grant(%d): batch %d outside [1, %d]", want, n, lo)
		}
		if gap < 0 || gap > MaxControllerGap {
			t.Fatalf("grant(%d): gap %v outside [0, %v]", want, gap, MaxControllerGap)
		}
	}

	// A cap below one packet per MaxControllerGap cannot be honoured; the
	// controller contract's floor wins, verbatim.
	floor, _ := NewRateCap(1) // 1 bit/s
	var end time.Duration
	for i := 0; i < 4; i++ {
		n, gap, e := floor.grant(now, 32, bitsPerPkt, end)
		if n != 1 || gap != MaxControllerGap || e != end {
			t.Fatalf("sub-floor cap granted (%d, %v) and moved the flow's end; want (1, %v), nothing reserved",
				n, gap, MaxControllerGap)
		}
	}

	// Backlog is bounded: after a burst of un-slept grants the schedule
	// saturates at the starvation floor instead of charging further debt.
	c2, _ := NewRateCap(1e6)
	for i := 0; i < 10000; i++ {
		_, _, end = c2.grant(now, 32, bitsPerPkt, end)
	}
	if ahead := c2.next - now; ahead > capMaxBacklog+time.Second {
		t.Fatalf("schedule ran %v ahead of now; backlog bound failed", ahead)
	}
	if n, gap, _ := c2.grant(now, 32, bitsPerPkt, end); n != 1 || gap != MaxControllerGap {
		t.Fatalf("saturated cap granted (%d, %v), want the starvation floor", n, gap)
	}
}

// TestRateCapChargesEachReservationOnce: a flow pays for each stretch of the
// schedule once. Alone under the cap its every round is charged exactly its
// own packets' wire time — not that plus what it reserved before, which its
// pacing clock has already paid for and which would make a flow's charge grow
// with every round it plans faster than its clock runs. Two flows taking
// turns each pay for their own round and the other's.
func TestRateCapChargesEachReservationOnce(t *testing.T) {
	const bitsPerPkt = 12000
	const perPkt = 20 * time.Millisecond // at 600 kb/s
	now := paceEpoch
	alone, _ := NewRateCap(bitsPerPkt / perPkt.Seconds())
	var end time.Duration
	for round := 1; round <= 4; round++ {
		n, gap, e := alone.grant(now, 2, bitsPerPkt, end)
		end = e
		if n != 2 || gap != perPkt {
			t.Fatalf("one flow, round %d: granted (%d, %v), want (2, %v)", round, n, gap, perPkt)
		}
	}

	shared, _ := NewRateCap(bitsPerPkt / perPkt.Seconds())
	var ends [2]time.Duration
	for round := 1; round <= 3; round++ {
		for f := range ends {
			_, gap, e := shared.grant(now, 2, bitsPerPkt, ends[f])
			ends[f] = e
			// The first flow's first round has no one ahead of it.
			if round > 1 && gap != 2*perPkt {
				t.Fatalf("two flows, round %d, flow %d: gap %v, want %v", round, f, gap, 2*perPkt)
			}
		}
	}
}

// TestRateCapControllerComposes checks planRound's stricter-verdict rule:
// under a generous cap a paced round's gap is the policy's plus the pace, to
// the nanosecond, its batch the policy's; a starved cap overrides even the
// greedy policy.
func TestRateCapControllerComposes(t *testing.T) {
	const pace = 7 * time.Microsecond
	obj := makeObject(100 * DefaultPacketSize)
	round := func(pace time.Duration, c *RateCap, cc Controller) (batch int, gap time.Duration) {
		s := NewSender(obj, Config{Batch: FixedBatch(32)})
		s.SetController(cc)
		s.SetPace(pace, c, paceEpoch)
		v := &tape{size: 32, take: -1}
		s.Step(0, v)
		return v.rounds[0], v.gaps[0]
	}
	generous, _ := NewRateCap(1e12)
	newSABUL := func() Controller { cc, _ := NewController(CCSABUL, DefaultPacketSize); return cc }
	gotB, gotG := round(pace, generous, newSABUL())
	wantB, wantG := round(0, nil, newSABUL())
	if gotB != wantB || gotG != wantG+pace {
		t.Fatalf("paced and capped round (%d, %v), want (%d, %v)", gotB, gotG, wantB, wantG+pace)
	}

	starved, _ := NewRateCap(1)
	if b, g := round(0, starved, Greedy{}); b != 1 || g != MaxControllerGap {
		t.Fatalf("starved cap let round (%d, %v) through, want (1, %v)", b, g, MaxControllerGap)
	}
}

// TestRateCapLateWakeBanksOneBurst: a capped sender stepping 5 ms after its
// pacing instant sends at most PaceBurst of the schedule it missed at once —
// plus the grain the clock may run ahead before a wait and one round — and
// the shared schedule after it stands PaceBurst behind that wake, not at it,
// so the burst is charged as repaid time instead of being added on top.
func TestRateCapLateWakeBanksOneBurst(t *testing.T) {
	const (
		batch = 4
		late  = 5 * time.Millisecond
	)
	cfg := Config{Batch: FixedBatch(batch)}
	perPkt := 100 * time.Microsecond
	c, _ := NewRateCap(float64(8*(DefaultPacketSize+wire.UDPIPOverhead)) / perPkt.Seconds())
	s := NewSender(makeObject(4096*DefaultPacketSize), cfg)
	s.SetPace(0, c, paceEpoch)
	v := &tape{size: 32, take: -1}
	// Steady state: every wait wakes on its instant.
	now, at := time.Duration(0), time.Duration(0)
	for now < 20*time.Millisecond {
		var w Wait
		if w, at = s.Step(now, v); w == Pace {
			now = at
		}
	}
	wake := now + late
	before := s.Stats().PacketsSent
	s.Step(wake, v)
	if want := paceEpoch + wake - PaceBurst + batch*perPkt; c.next != want {
		t.Fatalf("after a wake %v late the schedule's head is %v from the wake, want %v",
			late, c.next-paceEpoch-wake, want-paceEpoch-wake)
	}
	for w := Poll; w == Poll; w, _ = s.Step(wake, v) {
	}
	burst := time.Duration(s.Stats().PacketsSent-before) * perPkt
	t.Logf("a wake %v late sent %v of schedule at once", late, burst)
	if burst < PaceBurst || burst > PaceBurst+paceGrain+batch*perPkt {
		t.Fatalf("a wake %v late sent %v of schedule at once, want PaceBurst %v repaid and at most %v ahead",
			late, burst, PaceBurst, paceGrain+batch*perPkt)
	}
}

// TestRateCapZeroAlloc holds a capped, paced step to the bar of every
// shipped policy: its rounds allocate nothing.
func TestRateCapZeroAlloc(t *testing.T) {
	c, _ := NewRateCap(1e8)
	cc, _ := NewController(CCSABUL, DefaultPacketSize)
	s := NewSender(makeObject(1024*DefaultPacketSize), Config{})
	s.SetController(cc)
	s.SetPace(time.Microsecond, c, paceEpoch)
	v := &nullWire{}
	now := time.Duration(0)
	if n := testing.AllocsPerRun(200, func() {
		now += time.Millisecond
		s.Step(now, v)
	}); n != 0 {
		t.Fatalf("a capped step allocates %.1f, want 0", n)
	}
}

// nullWire takes every packet and goes nowhere.
type nullWire struct{}

func (*nullWire) Len() int                 { return 32 }
func (*nullWire) Round(int, time.Duration) {}
func (*nullWire) Put(int, wire.Data, int)  {}
func (*nullWire) Flush(k int) (int, bool)  { return k, true }
