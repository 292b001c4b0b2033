// Rate-cap tests: the shared-limiter contract (bounds, starvation floor,
// bounded backlog, zero-alloc rounds), the wrapper's composition with
// the inner congestion policy, measured aggregate rates for one and many
// flows sharing one cap, a real loopback transfer demonstrably slowed by
// its cap, and the ResumeFirst supervisor path an orchestrator uses to
// continue a transfer across its own restart.
package udprt

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
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
		n, gap := c.grant(want, bitsPerPkt)
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
	for i := 0; i < 4; i++ {
		n, gap := floor.grant(32, bitsPerPkt)
		if n != 1 || gap != core.MaxControllerGap {
			t.Fatalf("sub-floor cap granted (%d, %v), want (1, %v)", n, gap, core.MaxControllerGap)
		}
	}

	// Backlog is bounded: after a burst of un-slept grants the schedule
	// saturates at the starvation floor instead of charging further debt.
	c2, _ := NewRateCap(1e6)
	for i := 0; i < 10000; i++ {
		c2.grant(32, bitsPerPkt)
	}
	if ahead := time.Until(c2.next); ahead > capMaxBacklog+time.Second {
		t.Fatalf("schedule ran %v ahead of real time; backlog bound failed", ahead)
	}
	if n, gap := c2.grant(32, bitsPerPkt); n != 1 || gap != core.MaxControllerGap {
		t.Fatalf("saturated cap granted (%d, %v), want the starvation floor", n, gap)
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
// loop grants a round, counts it, and sleeps the dictated pacing — exactly
// what the engine does with a directive — then reports the combined
// on-the-wire bit rate.
func measureGrantRate(c *RateCap, flows int, bitsPerPkt float64, dur time.Duration) float64 {
	var total atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				n, gap := c.grant(DefaultIOBatch, bitsPerPkt)
				total.Add(int64(n))
				time.Sleep(time.Duration(n) * gap)
			}
		}()
	}
	wg.Wait()
	return float64(total.Load()) * bitsPerPkt / time.Since(start).Seconds()
}

// TestRateCapBoundsAggregateRate measures the property the daemon's
// per-tenant ceiling rests on: however many flows share one cap, their
// combined rate stays near the configured limit — it does not multiply
// with the flow count. Sleep jitter only ever lowers the measured rate, so
// the upper bound is the strong assertion; the lower bound just proves the
// cap is not starving compliant flows outright.
func TestRateCapBoundsAggregateRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive rate measurement skipped in -short mode")
	}
	const bitsPerPkt = 12000 // ≈ default packet + UDP/IP overhead, in bits
	const limit = 4e6
	for _, flows := range []int{1, 4} {
		c, _ := NewRateCap(limit)
		rate := measureGrantRate(c, flows, bitsPerPkt, 400*time.Millisecond)
		// Allow the documented starvation-floor leak (one packet per
		// MaxControllerGap per flow) plus measurement slop.
		leak := float64(flows) * bitsPerPkt * float64(time.Second/core.MaxControllerGap)
		if rate > limit*1.4+leak {
			t.Fatalf("%d flows: aggregate %.0f b/s far exceeds cap %.0f b/s", flows, rate, limit)
		}
		if rate < limit*0.2 {
			t.Fatalf("%d flows: aggregate %.0f b/s; cap %.0f b/s is starving compliant flows", flows, rate, limit)
		}
	}
}

// TestSendUnderRateCapSlowsTransfer runs a real loopback transfer under a
// cap sized so the wire time is macroscopic, and asserts the transfer both
// completes intact and takes at least roughly the time the cap dictates —
// the end-to-end proof that Options.RateCap reaches the engine's pacing.
func TestSendUnderRateCapSlowsTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive rate measurement skipped in -short mode")
	}
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type recvResult struct {
		obj []byte
		err error
	}
	recvCh := make(chan recvResult, 1)
	go func() {
		got, _, err := l.Accept(ctx)
		recvCh <- recvResult{got, err}
	}()

	obj := makeObj(96 << 10)
	cfg := core.Config{PacketSize: 8192, AckFrequency: 4}
	// 12 packets × 8·(8192+28) bits ≈ 789 kb of wire time: at 1.6 Mb/s the
	// transfer needs ≈ 0.5 s. Assert a generous half of that so scheduler
	// jitter cannot flake the test, only a cap that failed to pace at all.
	c, _ := NewRateCap(1.6e6)
	start := time.Now()
	if _, err := Send(ctx, l.Addr(), obj, cfg, Options{RateCap: c}); err != nil {
		t.Fatalf("capped send: %v", err)
	}
	elapsed := time.Since(start)
	r := <-recvCh
	if r.err != nil {
		t.Fatalf("receive: %v", r.err)
	}
	if !bytes.Equal(r.obj, obj) {
		t.Fatal("object corrupted under rate cap")
	}
	if elapsed < 250*time.Millisecond {
		t.Fatalf("capped transfer finished in %v; the cap did not pace the wire", elapsed)
	}
}

// TestResumeFirstContinuesRetainedTransfer is the orchestrator-restart
// scenario: one process's Send is severed mid-flight (the receiver parks
// partial state), then a brand-new supervised Send for the same transfer —
// as a restarted daemon would issue, with no in-memory knowledge that data
// was ever placed — opens with RESUME because ResumeFirst says so, and
// completes by sending essentially only the missing packets.
func TestResumeFirstContinuesRetainedTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	l, err := Listen("127.0.0.1:0", Options{IdleTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy, err := faultnet.NewProxy(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(1<<20 + 17)
	cfg := core.Config{Transfer: 77, AckFrequency: 8}
	type recvResult struct {
		obj []byte
		st  core.ReceiverStats
		err error
	}
	recvCh := make(chan recvResult, 1)
	go func() {
		got, st, err := acceptUntilSuccess(ctx, l)
		recvCh <- recvResult{got, st, err}
	}()

	// First life: unsupervised send, severed at half delivered.
	var cut atomic.Bool
	_, err = Send(ctx, proxy.Addr(), obj, cfg, Options{
		StallTimeout: time.Second,
		Pace:         25 * time.Microsecond,
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
	// The receiver parks its state the moment its control dies; give its
	// accept loop a beat to get back into Accept before the second life.
	time.Sleep(300 * time.Millisecond)

	// Second life: a fresh supervised Send straight to the listener. It
	// has no in-memory resume state — ResumeFirst is the only way it can
	// know to ask.
	sst, err := Send(ctx, l.Addr(), obj, cfg, Options{
		StallTimeout: 5 * time.Second,
		// Pace the resumed attempt so acknowledgements keep up: the waste
		// bound below measures resume economy, not the greedy sender's
		// ack-lag retransmissions.
		Pace:        25 * time.Microsecond,
		Retry:       &RetryPolicy{Seed: 3},
		ResumeFirst: true,
	})
	if err != nil {
		t.Fatalf("resume-first send: %v", err)
	}
	r := <-recvCh
	if r.err != nil {
		t.Fatalf("receive: %v", r.err)
	}
	if !bytes.Equal(r.obj, obj) {
		t.Fatal("resumed object differs from the original")
	}
	if sst.Restored == 0 || r.st.Restored == 0 {
		t.Fatalf("nothing restored (sender %d, receiver %d): ResumeFirst restarted from scratch",
			sst.Restored, r.st.Restored)
	}
	// Resume economy: the second life resends the gaps, not the object.
	missing := sst.PacketsNeeded - sst.Restored
	if budget := missing + missing/4 + 64; sst.PacketsSent > budget {
		t.Fatalf("resumed attempt sent %d packets for %d missing (budget %d)",
			sst.PacketsSent, missing, budget)
	}
}

// TestResumeFirstDegradesWithoutState points ResumeFirst at a receiver
// that retains nothing for the transfer: the RESUME is refused, the same
// attempt degrades to a fresh classic transfer, and the object still
// arrives — so an orchestrator can use ResumeFirst unconditionally.
func TestResumeFirstDegradesWithoutState(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type recvResult struct {
		obj []byte
		err error
	}
	recvCh := make(chan recvResult, 1)
	go func() {
		got, _, err := acceptUntilSuccess(ctx, l)
		recvCh <- recvResult{got, err}
	}()

	obj := makeObj(64<<10 + 5)
	sst, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 9}, Options{
		Retry:       &RetryPolicy{Seed: 5},
		ResumeFirst: true,
	})
	if err != nil {
		t.Fatalf("resume-first send against a stateless receiver: %v", err)
	}
	if sst.Restored != 0 {
		t.Fatalf("restored %d packets from a receiver that retains nothing", sst.Restored)
	}
	r := <-recvCh
	if r.err != nil {
		t.Fatalf("receive: %v", r.err)
	}
	if !bytes.Equal(r.obj, obj) {
		t.Fatal("object corrupted on the degraded fresh path")
	}
}
