package core

import (
	"math/rand"
	"testing"
	"time"
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
