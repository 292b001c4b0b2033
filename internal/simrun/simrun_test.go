package simrun

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/event"
	"github.com/hpcnet/fobs/internal/netsim"
	"github.com/hpcnet/fobs/internal/stats"
)

// shortHaulPath builds a 100 Mb/s bottleneck, 26 ms RTT path resembling the
// paper's ANL–LCSE connection.
func shortHaulPath(seed int64, loss float64) *netsim.Path {
	return netsim.BuildPath(seed, netsim.PathSpec{
		Name:  "short",
		HostA: netsim.HostConfig{RXBufBytes: 256 << 10, SendProcPerPacket: 2 * time.Microsecond},
		HostB: netsim.HostConfig{RXBufBytes: 256 << 10, ProcPerPacket: 5 * time.Microsecond},
		Links: []netsim.LinkConfig{
			{Rate: 100e6, Delay: 6500 * time.Microsecond, QueueBytes: 256 << 10},
			{Rate: 2400e6, Delay: 6500 * time.Microsecond, QueueBytes: 4 << 20, LossProb: loss},
		},
	})
}

func makeObj(n int) []byte {
	obj := make([]byte, n)
	rand.New(rand.NewSource(5)).Read(obj)
	return obj
}

func TestFOBSTransferCompletesAndReconstructs(t *testing.T) {
	p := shortHaulPath(1, 0)
	obj := makeObj(2<<20 + 123)
	run := NewFOBS(p, obj, core.Config{AckFrequency: 64}, Options{})
	res := run.Run()
	if !res.Completed {
		t.Fatalf("transfer did not complete: %+v", res)
	}
	if !bytes.Equal(run.Receiver().Object(), obj) {
		t.Fatal("object corrupted in transit")
	}
	if res.Bytes != int64(len(obj)) {
		t.Fatalf("Bytes = %d, want %d", res.Bytes, len(obj))
	}
}

func TestFOBSHighUtilizationOnCleanPath(t *testing.T) {
	p := shortHaulPath(1, 0)
	obj := makeObj(8 << 20)
	res := NewFOBS(p, obj, core.Config{AckFrequency: 64, Discard: true}, Options{}).Run()
	util := res.Utilization(100e6)
	if util < 0.80 {
		t.Fatalf("utilization %.2f on a clean path, want > 0.80 (paper: ~0.9)", util)
	}
	if res.Waste() > 0.10 {
		t.Fatalf("waste %.3f on a clean path, want < 0.10 (paper: ~0.03)", res.Waste())
	}
}

func TestFOBSCompletesUnderLoss(t *testing.T) {
	p := shortHaulPath(3, 0.02)
	obj := makeObj(2 << 20)
	run := NewFOBS(p, obj, core.Config{AckFrequency: 32}, Options{})
	res := run.Run()
	if !res.Completed {
		t.Fatal("transfer under 2% loss did not complete")
	}
	if !bytes.Equal(run.Receiver().Object(), obj) {
		t.Fatal("object corrupted under loss")
	}
	if res.Waste() <= 0 {
		t.Fatal("2% loss produced zero waste")
	}
}

func TestFOBSWasteGrowsWithLoss(t *testing.T) {
	waste := func(loss float64) float64 {
		p := shortHaulPath(9, loss)
		res := NewFOBS(p, makeObj(4<<20), core.Config{AckFrequency: 64, Discard: true}, Options{}).Run()
		if !res.Completed {
			t.Fatalf("run at loss %v incomplete", loss)
		}
		return res.Waste()
	}
	clean, lossy := waste(0), waste(0.05)
	if lossy <= clean {
		t.Fatalf("waste at 5%% loss (%.3f) not above clean waste (%.3f)", lossy, clean)
	}
}

func TestFOBSDeterministic(t *testing.T) {
	do := func() (time.Duration, int) {
		p := shortHaulPath(7, 0.01)
		res := NewFOBS(p, makeObj(1<<20), core.Config{AckFrequency: 16, Discard: true}, Options{}).Run()
		return res.Elapsed, res.PacketsSent
	}
	e1, s1 := do()
	e2, s2 := do()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("runs diverged: (%v,%d) vs (%v,%d)", e1, s1, e2, s2)
	}
}

func TestFOBSExtremeAckFrequencies(t *testing.T) {
	for _, freq := range []int{1, 4096} {
		p := shortHaulPath(2, 0)
		res := NewFOBS(p, makeObj(1<<20), core.Config{AckFrequency: freq, Discard: true}, Options{}).Run()
		if !res.Completed {
			t.Fatalf("ack frequency %d: transfer incomplete", freq)
		}
	}
}

func TestFOBSFrequentAcksCauseStallLosses(t *testing.T) {
	// At F=1 the receiver stalls constantly building acks; utilization
	// must be visibly worse than at a mid-range frequency — the left edge
	// of Figure 1.
	util := func(freq int) float64 {
		p := shortHaulPath(4, 0)
		res := NewFOBS(p, makeObj(4<<20), core.Config{AckFrequency: freq, Discard: true}, Options{}).Run()
		if !res.Completed {
			t.Fatalf("F=%d incomplete", freq)
		}
		return res.Utilization(100e6)
	}
	if u1, u64 := util(1), util(64); u1 >= u64 {
		t.Fatalf("F=1 utilization %.3f >= F=64 utilization %.3f; stall losses missing", u1, u64)
	}
}

func TestFOBSAdaptiveBatchCompletes(t *testing.T) {
	p := shortHaulPath(5, 0.01)
	cfg := core.Config{AckFrequency: 32, Batch: core.AdaptiveBatch{Min: 1, Max: 64}, Discard: true}
	res := NewFOBS(p, makeObj(2<<20), cfg, Options{}).Run()
	if !res.Completed {
		t.Fatal("adaptive batch transfer incomplete")
	}
}

func TestFOBSBackoffControllerThrottlesUnderLoss(t *testing.T) {
	// Under heavy loss, the Backoff controller should send fewer packets
	// per unit time than Greedy — trading speed for fewer wasted packets.
	run := func(rc core.Controller) (float64, float64) {
		p := shortHaulPath(6, 0.30)
		r := NewFOBS(p, makeObj(1<<20),
			core.Config{AckFrequency: 16, Discard: true},
			Options{Limit: 5 * time.Minute})
		r.Sender().SetController(rc)
		res := r.Run()
		if !res.Completed {
			t.Fatal("transfer incomplete")
		}
		return float64(res.PacketsSent) / res.Elapsed.Seconds(), res.Waste()
	}
	greedyRate, _ := run(core.Greedy{})
	backoffRate, _ := run(&core.Backoff{})
	if backoffRate >= greedyRate {
		t.Fatalf("backoff send rate %.0f pkt/s >= greedy %.0f pkt/s under 30%% loss",
			backoffRate, greedyRate)
	}
}

func TestFOBSHybridEntersTCPModeUnderSustainedLoss(t *testing.T) {
	h := &core.Hybrid{RTT: 26 * time.Millisecond, Patience: 4}
	p := shortHaulPath(8, 0.35)
	r := NewFOBS(p, makeObj(1<<20),
		core.Config{AckFrequency: 16, Discard: true},
		Options{Limit: 10 * time.Minute})
	r.Sender().SetController(h)
	res := r.Run()
	if !res.Completed {
		t.Fatal("hybrid transfer incomplete")
	}
	// The controller must have tripped at least once during the run.
	if !h.InTCPMode() {
		// It may have exited TCP mode at the very end; that is fine as
		// long as it was engaged at some point — detectable through the
		// much lower send rate relative to greedy.
		p2 := shortHaulPath(8, 0.35)
		greedy := NewFOBS(p2, makeObj(1<<20),
			core.Config{AckFrequency: 16, Discard: true},
			Options{Limit: 10 * time.Minute}).Run()
		rateH := float64(res.PacketsSent) / res.Elapsed.Seconds()
		rateG := float64(greedy.PacketsSent) / greedy.Elapsed.Seconds()
		if rateH >= rateG*0.9 {
			t.Fatalf("hybrid send rate %.0f pkt/s not visibly below greedy %.0f pkt/s", rateH, rateG)
		}
	}
}

func TestFOBSLimitReported(t *testing.T) {
	p := shortHaulPath(1, 0)
	res := NewFOBS(p, makeObj(8<<20), core.Config{Discard: true},
		Options{Limit: 10 * time.Millisecond}).Run()
	if res.Completed {
		t.Fatal("8 MB in 10 ms at 100 Mb/s reported complete")
	}
	if res.Elapsed > 11*time.Millisecond {
		t.Fatalf("elapsed %v exceeds the limit", res.Elapsed)
	}
}

func TestFOBSPacketSizeSweepCompletes(t *testing.T) {
	for _, ps := range []int{512, 1024, 8192, 32768} {
		p := shortHaulPath(2, 0)
		res := NewFOBS(p, makeObj(2<<20), core.Config{PacketSize: ps, Discard: true}, Options{}).Run()
		if !res.Completed {
			t.Fatalf("packet size %d: incomplete", ps)
		}
	}
}

func TestFOBSDuplicatesAccounted(t *testing.T) {
	// With very infrequent acks the sender keeps cycling and duplicates
	// reach the receiver; sent = received-distinct + duplicates + lost.
	p := shortHaulPath(3, 0.01)
	run := NewFOBS(p, makeObj(1<<20), core.Config{AckFrequency: 2048, Discard: true}, Options{})
	res := run.Run()
	if !res.Completed {
		t.Fatal("incomplete")
	}
	rst := run.Receiver().Stats()
	if rst.Received != run.Receiver().NumPackets() {
		t.Fatalf("distinct received %d != %d", rst.Received, run.Receiver().NumPackets())
	}
	delivered := rst.Received + rst.Duplicates
	if delivered > res.PacketsSent {
		t.Fatalf("delivered %d > sent %d", delivered, res.PacketsSent)
	}
}

func BenchmarkFOBSSimulated8MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := shortHaulPath(1, 0)
		res := NewFOBS(p, make([]byte, 8<<20), core.Config{Discard: true}, Options{}).Run()
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

func TestFOBSTracing(t *testing.T) {
	p := shortHaulPath(1, 0)
	run := NewFOBS(p, makeObj(4<<20), core.Config{Discard: true},
		Options{SampleEvery: 50 * time.Millisecond})
	res := run.Run()
	if !res.Completed {
		t.Fatal("incomplete")
	}
	goodput, sendRate := run.Trace()
	if goodput == nil || sendRate == nil {
		t.Fatal("tracing enabled but no series returned")
	}
	if goodput.Len() < 3 {
		t.Fatalf("goodput samples = %d, want several over a ~350ms transfer", goodput.Len())
	}
	// The steady-state delivery rate must sit near the bottleneck.
	if mean := goodput.Mean(); mean < 60 || mean > 100 {
		t.Fatalf("mean traced goodput %.1f Mb/s, want near the 100 Mb/s bottleneck", mean)
	}
	// Send rate can exceed goodput (duplicates) but never the NIC.
	if _, hi := sendRate.MinMax(); hi > 110 {
		t.Fatalf("traced send rate %.1f Mb/s exceeds the NIC", hi)
	}
}

func TestFOBSTracingDisabledByDefault(t *testing.T) {
	p := shortHaulPath(1, 0)
	run := NewFOBS(p, makeObj(1<<20), core.Config{Discard: true}, Options{})
	run.Run()
	if g, s := run.Trace(); g != nil || s != nil {
		t.Fatal("tracing returned series without SampleEvery")
	}
}

func TestLossAttribution(t *testing.T) {
	// Receiver-stall losses at F=1 must show up as RX-buffer drops, not
	// network drops — the distinction the authors' follow-up diagnostics
	// work draws.
	p := shortHaulPath(1, 0)
	res := NewFOBS(p, makeObj(2<<20),
		core.Config{AckFrequency: 1, Discard: true},
		Options{AckBuildTime: 300 * time.Microsecond}).Run()
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Extra["drops_rxbuf"] == 0 {
		t.Fatal("F=1 stall losses not attributed to the RX buffer")
	}
	if res.Extra["drops_random"] != 0 {
		t.Fatal("random drops reported on a lossless path")
	}

	// Random loss shows up under drops_random.
	p2 := shortHaulPath(2, 0.02)
	res2 := NewFOBS(p2, makeObj(2<<20), core.Config{AckFrequency: 64, Discard: true}, Options{}).Run()
	if res2.Extra["drops_random"] == 0 {
		t.Fatal("2% Bernoulli loss not attributed to random drops")
	}
}

func TestTwoConcurrentFOBSFlowsShareViaPortBase(t *testing.T) {
	// Two greedy FOBS transfers share one path using distinct port bases;
	// both must complete, and together they cannot exceed the bottleneck.
	p := shortHaulPath(3, 0)
	obj1, obj2 := makeObj(2<<20), makeObj(2<<20)
	r1 := NewFOBS(p, obj1, core.Config{AckFrequency: 64, Transfer: 1}, Options{})
	r2 := NewFOBS(p, obj2, core.Config{AckFrequency: 64, Transfer: 2}, Options{PortBase: 7101})
	r1.Start()
	r2.Start()
	p.Net.Sim.RunUntil(event.Time(5 * time.Minute))
	if !r1.Done() || !r2.Done() {
		t.Fatal("concurrent FOBS flows did not both finish")
	}
	if !bytes.Equal(r1.Receiver().Object(), obj1) || !bytes.Equal(r2.Receiver().Object(), obj2) {
		t.Fatal("objects corrupted when sharing a path")
	}
	res1, res2 := r1.Result(), r2.Result()
	if res1.Goodput()+res2.Goodput() > 100e6*1.05 {
		t.Fatalf("combined goodput %.1f Mb/s exceeds the bottleneck",
			(res1.Goodput()+res2.Goodput())/1e6)
	}
}

// contractChecked forwards to a controller and holds every directive it
// returns to the Controller contract.
type contractChecked struct {
	core.Controller
	t          *testing.T
	ticks      int
	capped     int // rounds planned below the ask
	rttSamples int
	firstRTT   time.Duration // the one probe sure to ride a first send
}

func (c *contractChecked) Tick(max int) core.Directive {
	d := c.Controller.Tick(max)
	if d.Batch < 1 || d.Batch > max || d.Gap < 0 || d.Gap > core.MaxControllerGap {
		c.t.Fatalf("%s: Tick(%d) = %+v outside the contract", c.Name(), max, d)
	}
	c.ticks++
	if d.Batch < max {
		c.capped++
	}
	return d
}

func (c *contractChecked) OnRTT(d time.Duration) {
	if c.rttSamples++; c.rttSamples == 1 {
		c.firstRTT = d
	}
	c.Controller.OnRTT(d)
}

// TestEveryPolicyRunsOnTheSimulator runs each policy in core's table — the
// three the socket runtime grew up with included — over one fixed-seed lossy
// short-haul path: the transfer completes, every directive is within the
// contract, the sender's first round-trip probe reads the path's 26 ms (plus
// queueing and the acknowledgement interval), a window policy's batch cap is honoured, and the two policies that
// read loss as congestion waste less than the greedy sender does. Then each
// runs again on a receiver half as fast as its sender, as the paper's sender
// and with the receive window the socket runtime installs: with the window,
// no policy overflows the receiver's socket buffer.
func TestEveryPolicyRunsOnTheSimulator(t *testing.T) {
	waste := map[string]float64{}
	for _, name := range core.Policies() {
		cc, err := core.NewController(name, core.DefaultPacketSize)
		if err != nil {
			t.Fatal(err)
		}
		checked := &contractChecked{Controller: cc, t: t}
		r := NewFOBS(shortHaulPath(6, 0.05), makeObj(1<<20),
			core.Config{AckFrequency: 16, Batch: core.FixedBatch(8), Discard: true},
			Options{Limit: 5 * time.Minute})
		r.Sender().SetController(checked)
		res := r.Run()
		if !res.Completed {
			t.Fatalf("%s: transfer incomplete: %+v", name, res)
		}
		if checked.ticks == 0 || checked.firstRTT < 26*time.Millisecond || checked.firstRTT > 40*time.Millisecond {
			t.Fatalf("%s: %d rounds planned, %d round trips probed, the first %v on a 26 ms path",
				name, checked.ticks, checked.rttSamples, checked.firstRTT)
		}
		if name == core.CCAIMD && checked.capped == 0 {
			t.Fatalf("aimd never planned a round below the ask in %d rounds at 5%% loss", checked.ticks)
		}
		waste[name] = res.Waste()
		t.Logf("%-7s %6.1f Mb/s  waste %5.1f%%  %d rounds (%d capped), %d rtt samples, first %v",
			name, res.Goodput()/1e6, 100*res.Waste(), checked.ticks, checked.capped, checked.rttSamples, checked.firstRTT)
	}
	for _, name := range []string{core.CCSABUL, core.CCBackoff} {
		if waste[name] >= waste[core.CCFixed] {
			t.Errorf("%s wasted %.1f%%, greedy %.1f%%: reading loss as congestion bought nothing",
				name, 100*waste[name], 100*waste[core.CCFixed])
		}
	}

	obj := makeObj(16384 << 10)
	for _, name := range core.Policies() {
		var legs [2]stats.TransferResult
		for i, windowed := range []bool{false, true} {
			cc, err := core.NewController(name, core.DefaultPacketSize)
			if err != nil {
				t.Fatal(err)
			}
			r := slowReceiverRun(slowReceiverPath(2*time.Microsecond), obj, windowed)
			r.Sender().SetController(&contractChecked{Controller: cc, t: t})
			if legs[i] = r.Run(); !legs[i].Completed {
				t.Fatalf("%s (windowed %v) on the slow receiver: transfer incomplete: %+v", name, windowed, legs[i])
			}
		}
		greedy, windowed := legs[0], legs[1]
		if windowed.Extra["drops_rxbuf"] != 0 {
			t.Errorf("%s with the window: %v packets found the receiver's buffer full", name, windowed.Extra["drops_rxbuf"])
		}
		t.Logf("%-7s slow receiver: greedy waste %5.1f%% %6.0f dropped %v; windowed waste %5.1f%% %6.0f dropped %v",
			name, 100*greedy.Waste(), greedy.Extra["drops_rxbuf"], greedy.Elapsed,
			100*windowed.Waste(), windowed.Extra["drops_rxbuf"], windowed.Elapsed)
	}
}
