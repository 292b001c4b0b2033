// Rate-cap tests: the shared-limiter contract (bounds, starvation floor,
// bounded backlog, one charge per reservation, zero-alloc rounds), the
// wrapper's composition with the inner congestion policy, measured aggregate
// rates for one and many flows sharing one cap, real loopback transfers paced
// at their cap — one alone, two sharing it — and the supervised rerun an
// orchestrator uses to continue a transfer across its own restart.
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

// TestRateCapGrantContract pins the limiter's per-round verdict: the batch
// stays in [1, want], the gap in [0, core.MaxControllerGap]; a cap below one
// flow's starvation floor yields exactly the floor; and a tight loop of
// grants cannot reserve wire time unboundedly far into the future.
func TestRateCapGrantContract(t *testing.T) {
	const bitsPerPkt = 12000
	c, _ := NewRateCap(2e6)
	for _, want := range []int{-3, 0, 1, 7, 32, 1024} {
		n, gap, _ := c.grant(want, bitsPerPkt, time.Time{})
		lo := want
		if lo < 1 {
			lo = 1
		}
		if n < 1 || n > lo {
			t.Fatalf("grant(%d): batch %d outside [1, %d]", want, n, lo)
		}
		if gap < 0 || gap > core.MaxControllerGap {
			t.Fatalf("grant(%d): gap %v outside [0, %v]", want, gap, core.MaxControllerGap)
		}
	}

	// A cap below one packet per core.MaxControllerGap cannot be honoured; the
	// engine contract's floor wins, verbatim.
	floor, _ := NewRateCap(1) // 1 bit/s
	var end time.Time
	for i := 0; i < 4; i++ {
		n, gap, e := floor.grant(32, bitsPerPkt, end)
		if n != 1 || gap != core.MaxControllerGap || !e.Equal(end) {
			t.Fatalf("sub-floor cap granted (%d, %v) and moved the flow's end; want (1, %v), nothing reserved",
				n, gap, core.MaxControllerGap)
		}
	}

	// Backlog is bounded: after a burst of un-slept grants the schedule
	// saturates at the starvation floor instead of charging further debt.
	c2, _ := NewRateCap(1e6)
	for i := 0; i < 10000; i++ {
		_, _, end = c2.grant(32, bitsPerPkt, end)
	}
	if ahead := time.Until(c2.next); ahead > capMaxBacklog+time.Second {
		t.Fatalf("schedule ran %v ahead of real time; backlog bound failed", ahead)
	}
	if n, gap, _ := c2.grant(32, bitsPerPkt, end); n != 1 || gap != core.MaxControllerGap {
		t.Fatalf("saturated cap granted (%d, %v), want the starvation floor", n, gap)
	}
}

// TestRateCapChargesEachReservationOnce: a flow pays for each stretch of the
// schedule once. Alone under the cap its every round is charged exactly its
// own packets' wire time — not that plus what it reserved before, which its
// pacing clock has already paid for and which would make a flow's charge grow
// with every round it plans faster than real time runs. Two flows taking
// turns each pay for their own round and the other's.
func TestRateCapChargesEachReservationOnce(t *testing.T) {
	const bitsPerPkt = 12000
	const perPkt = 20 * time.Millisecond // at 600 kb/s: far longer than the test runs
	alone, _ := NewRateCap(bitsPerPkt / perPkt.Seconds())
	var end time.Time
	for round := 1; round <= 4; round++ {
		n, gap, e := alone.grant(2, bitsPerPkt, end)
		end = e
		if n != 2 || gap != perPkt {
			t.Fatalf("one flow, round %d: granted (%d, %v), want (2, %v)", round, n, gap, perPkt)
		}
	}

	shared, _ := NewRateCap(bitsPerPkt / perPkt.Seconds())
	var ends [2]time.Time
	for round := 1; round <= 3; round++ {
		for f := range ends {
			_, gap, e := shared.grant(2, bitsPerPkt, ends[f])
			ends[f] = e
			// The first round of the second flow starts from now, a moment
			// after the first flow's: only later rounds are exact.
			if round > 1 && gap != 2*perPkt {
				t.Fatalf("two flows, round %d, flow %d: gap %v, want %v", round, f, gap, 2*perPkt)
			}
		}
	}
}

// TestRateCapControllerComposes checks the wrapper against the controller
// contract and its stricter-verdict rule: observations pass through to the
// inner policy, the batch never exceeds the inner verdict or max, and the
// gap is the larger of the inner policy's (Options.Pace added first) and the
// cap's; with neither a pace nor a cap there is no wrapper at all.
func TestRateCapControllerComposes(t *testing.T) {
	if cc, _ := newController(Options{Congestion: CCAIMD}, 1024); cc != nil {
		if _, bare := cc.(*core.AIMD); !bare {
			t.Fatalf("newController without Pace or RateCap built %T, want the bare policy", cc)
		}
	}
	cap1, _ := NewRateCap(1e9) // generous: the inner policy should dominate
	cc, err := newController(Options{Congestion: CCAIMD, RateCap: cap1}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, ok := cc.(*slowedController)
	if !ok {
		t.Fatalf("newController with RateCap built %T, want *slowedController", cc)
	}
	inner := wrapped.Controller.(*core.AIMD)
	if wrapped.Name() != inner.Name() {
		t.Fatalf("wrapper name %q, want inner policy name %q", wrapped.Name(), inner.Name())
	}
	for round := 0; round < 200; round++ {
		d := wrapped.Tick(DefaultIOBatch)
		if d.Batch < 1 || d.Batch > DefaultIOBatch {
			t.Fatalf("round %d: batch %d outside [1, %d]", round, d.Batch, DefaultIOBatch)
		}
		if d.Gap < 0 || d.Gap > core.MaxControllerGap {
			t.Fatalf("round %d: gap %v outside [0, %v]", round, d.Gap, core.MaxControllerGap)
		}
		wrapped.OnAck(core.AckEvent{Sent: d.Batch, Acked: d.Batch})
	}
	if inner.Window() <= 16 {
		t.Fatalf("200 clean intervals left the inner window at %.1f: observations did not pass through", inner.Window())
	}
	wrapped.OnLoss(core.LossEvent{Retransmits: 1})
	if inner.Epochs() != 1 {
		t.Fatal("a loss did not reach the inner policy")
	}

	// Pace first, then the cap's stricter verdict: under a generous cap the
	// gap is the policy's plus the pace, to the nanosecond.
	const pace = 7 * time.Microsecond
	cap2, _ := NewRateCap(1e12)
	paced, _ := newController(Options{Congestion: CCSABUL, Pace: pace, RateCap: cap2}, 1024)
	bare, _ := newController(Options{Congestion: CCSABUL}, 1024)
	if got, want := paced.Tick(DefaultIOBatch), bare.Tick(DefaultIOBatch); got.Gap != want.Gap+pace || got.Batch != want.Batch {
		t.Fatalf("paced and capped directive %+v, want %+v plus %v", got, want, pace)
	}

	// A starved cap must override even a greedy inner policy.
	capLow, _ := NewRateCap(1)
	strict, _ := newController(Options{RateCap: capLow}, 1024)
	d := strict.Tick(DefaultIOBatch)
	if d.Batch != 1 || d.Gap != core.MaxControllerGap {
		t.Fatalf("starved cap let directive %+v through, want the floor", d)
	}
}

// TestRateCapZeroAlloc holds the wrapper to the same bar as every shipped
// policy: no allocation in any observation hook or in Tick.
func TestRateCapZeroAlloc(t *testing.T) {
	c, _ := NewRateCap(1e8)
	cc, _ := newController(Options{Congestion: CCSABUL, RateCap: c}, 1024)
	ack := core.AckEvent{Sent: 8, Acked: 8}
	loss := core.LossEvent{Retransmits: 1}
	if n := testing.AllocsPerRun(200, func() {
		cc.OnAck(ack)
		cc.OnLoss(loss)
		cc.OnRTT(250 * time.Microsecond)
		_ = cc.Tick(DefaultIOBatch)
	}); n != 0 {
		t.Fatalf("capped controller allocates %.1f per round, want 0", n)
	}
}

// measureGrantRate emulates `flows` sender engines sharing one cap: each
// loop grants a round of the default batch policy's ask, counts it, and
// waits out the dictated gap on the engine's own pacing clock — exactly what
// the engine does with a directive, with a sleep in place of the ack socket —
// then reports the combined on-the-wire bit rate.
func measureGrantRate(c *RateCap, flows int, bitsPerPkt float64, dur time.Duration) float64 {
	var total atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var clock pacer
			var end time.Time
			for time.Since(start) < dur {
				n, gap, e := c.grant(core.DefaultBatch, bitsPerPkt, end)
				end = e
				total.Add(int64(n))
				if at := clock.charge(time.Now(), gap, n); !at.IsZero() {
					time.Sleep(time.Until(at)) // scenario: the grant-rate measurement
				}
			}
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
