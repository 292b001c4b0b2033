package udprt

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/wire"
)

// The pacing clock on a fake clock: the engine's pacer reads no time, so its
// arithmetic is checked here instant by instant, and then its one wait on
// real sockets.

// paceEpoch is an arbitrary origin for the fake clock.
var paceEpoch = time.Unix(1_000_000, 0)

// burst runs rounds of batch packets at gap each, all at now, until the
// clock makes the engine wait, returning how many went out and the instant.
func burst(p *pacer, now time.Time, gap time.Duration, batch int) (pkts int, at time.Time) {
	for {
		pkts += batch
		if at = p.charge(now, gap, batch); !at.IsZero() {
			return pkts, at
		}
	}
}

func TestPacerZeroGapNeverWaits(t *testing.T) {
	var p pacer
	now := paceEpoch
	for i := 0; i < 1000; i++ {
		if at := p.charge(now, 0, 32); !at.IsZero() {
			t.Fatalf("round %d: an unpaced round set a pacing instant %v", i, at)
		}
		now = now.Add(time.Microsecond)
	}
	if !p.next.IsZero() {
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
		if at := p.charge(now, gap, batch); !at.IsZero() {
			if at.Sub(now) < paceGrain {
				t.Fatalf("asked to wait %v, under the %v grain", at.Sub(now), paceGrain)
			}
			now = at.Add(oversleep)
			waits++
		}
	}
	want := packets * gap
	got := now.Sub(paceEpoch)
	t.Logf("%d packets in %v over %d waits, asked for %v", packets, got, waits, want)
	if off := float64(got-want) / float64(want); off > 0.01 || off < -0.01 {
		t.Fatalf("%d packets took %v at %v a packet, want %v within 1%%", packets, got, gap, want)
	}
}

// TestPacerIdleBanksOneBurst: a clock left behind by an idle spell is
// clamped, so the burst after it carries at most paceBurst of packets more
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
	idle, _ := burst(&p, at.Add(50*time.Millisecond), gap, batch)
	banked := time.Duration(idle-steady) * gap
	t.Logf("on-time burst %d packets, after 50 ms idle %d: %v banked", steady, idle, banked)
	if banked > paceBurst+batch*gap {
		t.Fatalf("a 50 ms idle spell banked %v of packets, want at most %v", banked, paceBurst)
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
	var last, clock time.Time
	for i := 0; i < 100000; i++ {
		at := p.charge(now, gaps[rng.Intn(len(gaps))], rng.Intn(33))
		if p.next.Before(clock) {
			t.Fatalf("step %d: clock moved back from %v to %v", i, clock, p.next)
		}
		clock = p.next
		if !at.IsZero() {
			if at.Before(last) {
				t.Fatalf("step %d: instant %v before the previous %v", i, at, last)
			}
			if at.Sub(now) < paceGrain {
				t.Fatalf("step %d: instant %v ahead, under the grain", i, at.Sub(now))
			}
			last = at
			if rng.Intn(2) == 0 {
				now = at // the wait ran out, give or take a little
			}
		}
		now = now.Add(time.Duration(rng.Intn(3000)) * time.Microsecond / 10)
	}
}

// TestPacedSendCancelsPromptly: cancelling ctx ends a pacing wait at once,
// not when the gap would have run out.
func TestPacedSendCancelsPromptly(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		fake := newFakeReceiver(t, true)
		go fake.acceptHandshake()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sent := make(chan error, 1)
		go func() {
			_, err := Send(ctx, fake.addr(), makeObj(64<<10), core.Config{PacketSize: 1024},
				Options{Pace: 20 * time.Millisecond, NoFastPath: noFastPath})
			sent <- err
		}()
		// The first round, then a 40 ms wait for the next.
		if _, err := fake.readData(core.DefaultBatch, 5*time.Second); err != nil {
			t.Fatalf("first round: %v", err)
		}
		time.Sleep(5 * time.Millisecond) // scenario: into the pacing wait before cancelling
		cancelledAt := time.Now()
		cancel()
		select {
		case err := <-sent:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cancellation did not end the pacing wait")
		}
		if took := time.Since(cancelledAt); took > 5*time.Millisecond {
			t.Fatalf("Send returned %v after cancellation, want under 5ms", took)
		}
		fake.expectAbort(wire.AbortCancelled)
	})
}

// TestAckProcessedDuringPacingGap: an acknowledgement that lands in the
// middle of a pacing gap is processed as it lands, and still lets nothing out
// before the gap ends.
func TestAckProcessedDuringPacingGap(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		const pace = 20 * time.Millisecond
		fake := newFakeReceiver(t, true)
		go fake.acceptHandshake()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		reg := metrics.New()
		sent := make(chan error, 1)
		go func() {
			_, err := Send(ctx, fake.addr(), makeObj(64<<10), core.Config{PacketSize: 1024, Transfer: 5},
				Options{Pace: pace, Metrics: reg, NoFastPath: noFastPath})
			sent <- err
		}()
		from, err := fake.readData(core.DefaultBatch, 5*time.Second)
		if err != nil {
			t.Fatalf("first round: %v", err)
		}
		firstAt := time.Now()
		ack := wire.AppendAck(nil, &wire.Ack{Transfer: 5, AckSeq: 1, Received: core.DefaultBatch, Delta: core.DefaultBatch,
			Frag: bitmap.Fragment{Words: []uint64{1<<core.DefaultBatch - 1}}})
		if _, err := fake.udp.WriteToUDPAddrPort(ack, from); err != nil {
			t.Fatal(err)
		}
		// The round's gap is core.DefaultBatch × pace, less the one burst the
		// clock banks from the start.
		gapEnd := firstAt.Add(core.DefaultBatch*pace - paceBurst)
		for reg.Snapshot().Totals.AcksReceived == 0 {
			if time.Now().After(gapEnd) {
				t.Fatal("the acknowledgement was not processed before the pacing gap ended")
			}
			time.Sleep(100 * time.Microsecond) // scenario: a pacer measurement, finer than the harness poll
		}
		if _, err := fake.readData(1, 5*time.Second); err != nil {
			t.Fatalf("second round: %v", err)
		}
		if early := gapEnd.Sub(time.Now()); early > 2*time.Millisecond {
			t.Fatalf("the acknowledgement let the next round out %v before the pacing instant", early)
		}
		cancel()
		<-sent
	})
}
