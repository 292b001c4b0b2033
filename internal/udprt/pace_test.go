package udprt

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/wire"
)

// The pacing clock's one wait on real sockets: its arithmetic is
// internal/core's pace_test.go.

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
		gapEnd := firstAt.Add(core.DefaultBatch*pace - core.PaceBurst)
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
