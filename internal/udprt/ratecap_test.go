// Rate-cap tests on the wall clock: measured aggregate rates for one and many
// flows sharing one cap, real loopback transfers paced at their cap — one
// alone, two sharing it — and the supervised rerun an orchestrator uses to
// continue a transfer across its own restart. The cap's own contract (its
// verdict per round, its charge, its composition with the policy, a late
// wake, zero allocations) is internal/core's, on a fake clock, and two capped
// senders on the virtual clock are internal/simrun's.
package udprt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

func TestNewRateCapValidates(t *testing.T) {
	for _, bad := range []float64{0, -1e6} {
		if _, err := NewRateCap(bad); err == nil {
			t.Fatalf("NewRateCap(%v) accepted a non-positive cap", bad)
		}
	}
	c, err := NewRateCap(5e6)
	if err != nil {
		t.Fatal(err)
	}
	if c.Limit() != 5e6 {
		t.Fatalf("Limit() = %v, want 5e6", c.Limit())
	}
}

// nullVector is a wire that takes every packet and goes nowhere.
type nullVector struct{}

func (nullVector) Len() int                 { return DefaultIOBatch }
func (nullVector) Round(int, time.Duration) {}
func (nullVector) Put(int, wire.Data, int)  {}
func (nullVector) Flush(k int) (int, bool)  { return k, true }

// measureGrantRate runs `flows` senders sharing one cap, each the engine's own
// step (core.Sender.Step) under the cap as the engine installs it, flushing
// to a nullVector and waiting out each pacing instant with a sleep in place
// of the ack socket, then reports the combined on-the-wire bit rate.
func measureGrantRate(c *RateCap, flows int, bitsPerPkt float64, dur time.Duration) float64 {
	packetSize := int(bitsPerPkt/8) - wire.UDPIPOverhead
	var total atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snd := core.NewSender(makeObj(64*packetSize), core.Config{PacketSize: packetSize})
			Options{RateCap: c}.slow(snd, start)
			for time.Since(start) < dur {
				if wait, at := snd.Step(time.Since(start), nullVector{}); wait == core.Pace {
					time.Sleep(time.Until(start.Add(at))) // scenario: the grant-rate measurement
				}
			}
			total.Add(int64(snd.Stats().PacketsSent))
		}()
	}
	wg.Wait()
	return float64(total.Load()) * bitsPerPkt / time.Since(start).Seconds()
}

// TestRateCapBoundsAggregateRate measures the property the daemon's
// per-tenant ceiling rests on: however many flows share one cap, their
// combined rate is the configured limit — it neither multiplies with the
// flow count nor falls short of it. Each flow's last round is waited out in
// full, so the window ends where the schedule does. A round is two packets
// of 120 µs, far shorter than a pacing wait: a flow charged again for its own
// earlier rounds falls to a third of its cap here.
func TestRateCapBoundsAggregateRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive rate measurement skipped in -short mode")
	}
	const bitsPerPkt = 12000 // ≈ default packet + UDP/IP overhead, in bits
	const limit = 100e6
	for _, flows := range []int{1, 2, 4} {
		c, _ := NewRateCap(limit)
		rate := measureGrantRate(c, flows, bitsPerPkt, 400*time.Millisecond)
		t.Logf("%d flows: aggregate %.0f b/s under a %.0f b/s cap (%.1f%%)", flows, rate, limit, 100*rate/limit)
		if rate > limit*1.1 {
			t.Fatalf("%d flows: aggregate %.0f b/s exceeds cap %.0f b/s", flows, rate, limit)
		}
		if rate < limit*0.85 {
			t.Fatalf("%d flows: aggregate %.0f b/s falls short of cap %.0f b/s", flows, rate, limit)
		}
	}
}

// TestSendUnderRateCapSlowsTransfer runs a real loopback transfer under a
// cap sized so the wire time is macroscopic, and asserts the transfer
// completes intact in about the time the cap dictates: not much less — the
// end-to-end proof that Options.RateCap reaches the engine's pacing — and
// not much more, or a tenant's cap would deliver less than it promises.
func TestSendUnderRateCapSlowsTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive rate measurement skipped in -short mode")
	}
	const packetSize = 64
	obj := makeObj(48 << 10)
	cfg := core.Config{PacketSize: packetSize}
	// 768 packets × 8·(64+28) bits ≈ 565 kb of wire time: at 1.6 Mb/s the
	// transfer needs ≈ 0.35 s, in rounds of two packets — 0.9 ms, less than
	// one pacing wait. A generous half below cannot be scheduler jitter, only
	// a cap that failed to pace at all.
	const limit = 1.6e6
	c, _ := NewRateCap(limit)
	start := time.Now()
	sst := push(t, obj, cfg, Options{RateCap: c}, Options{}).sst
	elapsed := time.Since(start)
	capTime := time.Duration(float64(sst.PacketsNeeded) * 8 * (packetSize + wire.UDPIPOverhead) / limit * float64(time.Second))
	t.Logf("%d packets in %v under a cap that needs %v for them", sst.PacketsSent, elapsed, capTime)
	if elapsed < capTime/2 {
		t.Fatalf("capped transfer finished in %v; the cap did not pace the wire", elapsed)
	}
	if elapsed > capTime*5/4 {
		t.Fatalf("capped transfer took %v, more than 1.25× the %v the cap allows for", elapsed, capTime)
	}
}

// TestConcurrentSendsShareRateCap: two Sends holding one cap put on the wire,
// together, what the cap allows — each is charged for the other's
// reservations, so they queue behind each other instead of doubling it, and
// neither pays for its own twice.
func TestConcurrentSendsShareRateCap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive rate measurement skipped in -short mode")
	}
	const (
		packetSize = 1024
		limit      = 80e6 // 105 µs of wire time per packet
	)
	c, _ := NewRateCap(limit)
	var sent [2]int
	var errs [2]error
	var eps [2]*testEndpoint
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sent {
		eps[i] = listen(t, byAccept, Options{})
		eps[i].recv(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sst, err := Send(eps[i].ctx, eps[i].l.Addr(), makeObj(2<<20+i), core.Config{PacketSize: packetSize, Transfer: uint32(11 + i)},
				Options{RateCap: c})
			sent[i], errs[i] = sst.PacketsSent, err
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("capped send %d: %v", i, err)
		}
		eps[i].delivered(makeObj(2<<20 + i))
	}
	rate := float64(sent[0]+sent[1]) * 8 * (packetSize + wire.UDPIPOverhead) / elapsed.Seconds()
	t.Logf("two Sends: %d + %d packets in %v, %.2f Mb/s on the wire under a %.0f Mb/s cap (%.1f%%)",
		sent[0], sent[1], elapsed, rate/1e6, limit/1e6, 100*rate/limit)
	if rate < limit*0.85 || rate > limit*1.15 {
		t.Fatalf("aggregate %.2f Mb/s, want within 15%% of the %.0f Mb/s cap", rate/1e6, limit/1e6)
	}
}

// TestRerunContinuesRetainedTransfer is the orchestrator-restart scenario:
// one process's Send is severed mid-flight (the receiver parks partial
// state), then a brand-new supervised Send of the same content — as a
// restarted daemon would issue, with no in-memory knowledge that data was
// ever placed, and here under another transfer id — is answered with the
// retained bitmap, and completes by sending essentially only the missing
// packets.
func TestRerunContinuesRetainedTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	ep := listen(t, byAccept, Options{IdleTimeout: 2 * time.Second})
	proxy := ep.front(nil)
	obj := makeObj(1<<20 + 17)
	cfg := core.Config{Transfer: 77, AckFrequency: 8}
	ep.recvUntilSuccess()

	// First life: unsupervised send, severed at half delivered.
	var cut atomic.Bool
	_, err := Send(ep.ctx, proxy.Addr(), obj, cfg, Options{
		StallTimeout: time.Second,
		Pace:         killPointPace,
		Progress: func(done, total int) {
			if done > total/2 && cut.CompareAndSwap(false, true) {
				proxy.SetBlackhole(true)
				proxy.SeverControl()
			}
		},
	})
	if err == nil {
		t.Fatal("severed send reported success")
	}
	if !cut.Load() {
		t.Fatal("transfer finished before the kill point; enlarge the object")
	}
	// The receiver parks its state the moment its control dies.
	waitUntil(t, 10*time.Second, "the severed transfer's state being retained", func() bool { return ep.retains(obj) })

	// Second life: a fresh supervised Send straight to the listener, with
	// no in-memory resume state; its CHECK finds what the receiver holds.
	cfg.Transfer = 78
	sst, err := Send(ep.ctx, ep.l.Addr(), obj, cfg, Options{
		StallTimeout: 5 * time.Second,
		// Pace the resumed attempt so acknowledgements keep up: the waste
		// bound below measures resume economy, not the greedy sender's
		// ack-lag retransmissions.
		Pace:  killPointPace,
		Retry: &RetryPolicy{Seed: 3},
	})
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	r := ep.delivered(obj)
	if sst.Restored == 0 || r.st.Restored == 0 {
		t.Fatalf("nothing restored (sender %d, receiver %d): the rerun restarted from scratch",
			sst.Restored, r.st.Restored)
	}
	// Resume economy: the second life resends the gaps, not the object.
	missing := sst.PacketsNeeded - sst.Restored
	if budget := missing + missing/4 + 64; sst.PacketsSent > budget {
		t.Fatalf("resumed attempt sent %d packets for %d missing (budget %d)",
			sst.PacketsSent, missing, budget)
	}
}

// TestRerunWithoutStateIsOneHandshake points a supervised rerun at a
// receiver that retains nothing of the object: its CHECK is answered a miss
// and the same connection runs the whole transfer — one Accept, one
// handshake — so an orchestrator pays nothing for asking.
func TestRerunWithoutStateIsOneHandshake(t *testing.T) {
	// pushOK takes exactly one control connection.
	sst := push(t, makeObj(64<<10+5), core.Config{Transfer: 9}, Options{
		Retry:            &RetryPolicy{Seed: 5},
		HandshakeTimeout: 5 * time.Second,
	}, Options{}).sst
	if sst.Restored != 0 {
		t.Fatalf("restored %d packets from a receiver that retains nothing", sst.Restored)
	}
}
