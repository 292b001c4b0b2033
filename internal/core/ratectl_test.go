package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/wire"
)

// --- rate controllers -------------------------------------------------------

func TestGreedyNeverPaces(t *testing.T) {
	g := Greedy{}
	g.OnAck(AckEvent{Sent: 1000, Acked: 1})
	g.OnLoss(LossEvent{Retransmits: 999})
	if d := g.Tick(13); d != (Directive{Batch: 13}) {
		t.Fatalf("greedy controller paced or capped: %+v", d)
	}
}

func TestBackoffGrowsAndDecays(t *testing.T) {
	b := &Backoff{}
	for i := 0; i < 10; i++ {
		b.OnAck(AckEvent{Sent: 100, Acked: 20}) // 80% loss
	}
	grown := b.Tick(2).Gap
	if grown == 0 {
		t.Fatal("backoff did not grow under sustained loss")
	}
	if grown > b.MaxGap {
		t.Fatalf("gap %v exceeds MaxGap %v", grown, b.MaxGap)
	}
	for i := 0; i < 10000; i++ {
		b.OnAck(AckEvent{Sent: 100, Acked: 100}) // clean
	}
	if d := b.Tick(2); d != (Directive{Batch: 2}) {
		t.Fatalf("backoff did not decay to full greed: %+v", d)
	}
}

func TestHybridSwitchesAfterPatience(t *testing.T) {
	h := &Hybrid{Patience: 4}
	for i := 0; i < 3; i++ {
		h.OnAck(AckEvent{Sent: 100, Acked: 20})
		if h.InTCPMode() {
			t.Fatal("hybrid switched before patience elapsed")
		}
	}
	h.OnAck(AckEvent{Sent: 100, Acked: 20})
	if !h.InTCPMode() {
		t.Fatal("hybrid did not switch after patience")
	}
	if h.Tick(2).Gap <= 0 {
		t.Fatal("hybrid in TCP mode has zero gap")
	}
	for i := 0; i < 100; i++ {
		h.OnAck(AckEvent{Sent: 100, Acked: 100})
	}
	if h.InTCPMode() {
		t.Fatal("hybrid did not return to greedy after loss cleared")
	}
	if h.Tick(2).Gap != 0 {
		t.Fatal("hybrid out of TCP mode still paces")
	}
}

func TestHybridMathisRate(t *testing.T) {
	h := &Hybrid{RTT: 100 * time.Millisecond, Patience: 1}
	h.OnAck(AckEvent{Sent: 100, Acked: 96}) // ~4% loss < the 5% threshold: stays greedy
	if h.InTCPMode() {
		t.Fatal("4% loss should not trip the 5% threshold")
	}
	h2 := &Hybrid{Patience: 1}
	h2.OnAck(AckEvent{Sent: 100, Acked: 0}) // 100% loss
	if !h2.InTCPMode() {
		t.Fatal("100% loss did not trip hybrid")
	}
	// The 50 ms default before any probe: 1.22/(RTT·√1) packets per second.
	unprobed := h2.Tick(2).Gap
	if want := 50 * time.Millisecond * 100 / 122; unprobed < want-time.Microsecond || unprobed > want+time.Microsecond {
		t.Fatalf("unprobed gap = %v, want ≈ %v", unprobed, want)
	}
	// Probed round trips replace the default, smoothed...
	for i := 0; i < 64; i++ {
		h2.OnRTT(10 * time.Millisecond)
	}
	if probed := h2.Tick(2).Gap; probed < unprobed/6 || probed > unprobed/4 {
		t.Fatalf("gap after 10 ms probes = %v, want a fifth of %v", probed, unprobed)
	}
	// ...and a set RTT wins over both.
	h2.RTT = 50 * time.Millisecond
	if got := h2.Tick(2).Gap; got != unprobed {
		t.Fatalf("gap with RTT set = %v, want %v", got, unprobed)
	}
}

func TestLossEstimateClampsNegative(t *testing.T) {
	var l lossEstimate
	l.add(10, 50) // receiver drained backlog: received > sent
	if l.smoothed != 0 {
		t.Fatalf("negative loss not clamped: %v", l.smoothed)
	}
	l.add(0, 0) // no packets: no-op
	if !l.primed {
		t.Fatal("estimate lost its primed state")
	}
}

// --- the name table -----------------------------------------------------------

// TestNewControllerTable: the one table answers every spelling, builds a
// fresh controller on every call (no two senders can be handed one), and
// names what it has when asked for something else.
func TestNewControllerTable(t *testing.T) {
	want := []string{CCFixed, CCAIMD, CCSABUL, CCBackoff, CCHybrid}
	if got := Policies(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
	for _, name := range Policies() {
		a, err := NewController(name, 1024)
		if err != nil {
			t.Fatalf("NewController(%q): %v", name, err)
		}
		b, _ := NewController(name, 1024)
		if _, stateless := a.(Greedy); !stateless && a == b {
			t.Errorf("NewController(%q) handed out one instance twice", name)
		}
		if name != CCFixed && a.Name() != name {
			t.Errorf("NewController(%q).Name() = %q", name, a.Name())
		}
	}
	for _, alias := range []string{"", "greedy", CCFixed} {
		if cc, err := NewController(alias, 0); err != nil || cc != (Greedy{}) {
			t.Errorf("NewController(%q) = %v, %v; want Greedy", alias, cc, err)
		}
	}
	for _, bad := range []string{"AIMD", "cubic", "fixed ", "bbr"} {
		_, err := NewController(bad, 1024)
		if err == nil || !strings.Contains(err.Error(), "fixed aimd sabul backoff hybrid") {
			t.Errorf("NewController(%q) error = %v, want one listing the table", bad, err)
		}
	}
	// The by-name sabul charges the socket accounting: payload + UDP/IP.
	cc, _ := NewController(CCSABUL, 1024)
	if got, want := cc.Tick(1).Gap, time.Duration(float64(8*(1024+28))/SABULInitialRate*float64(time.Second)); got != want {
		t.Errorf("sabul initial gap = %v, want %v", got, want)
	}
}

// --- the conformance harness --------------------------------------------------

// ccSim drives one Controller through a deterministic, seeded synthetic
// ack/loss trace: each step asks the controller for its directive, "sends"
// that many packets through a seeded loss process, classifies the round's
// retransmissions the way a sender does (a lost packet re-enters the
// schedule and is re-sent once the circle comes back around), and delivers
// an acknowledgement interval every ackEvery rounds with an occasional
// round-trip sample. Everything the controller observes is a pure function
// of (seed, loss schedule), so a trace is replayable — the determinism check
// runs the same trace twice against two fresh instances and requires
// identical directives.
type ccSim struct {
	rng *rand.Rand
	cc  Controller

	backlog   int // lost packets awaiting their retransmission turn
	pendSent  int // packets sent since the last acknowledgement interval
	pendDeliv int // of pendSent, delivered
	round     int
}

const (
	// ccAckEvery is the simulator's acknowledgement cadence in rounds,
	// standing in for the receiver's AckFrequency.
	ccAckEvery = 4
	// ccMax is the ask the harness plans against (the socket engine's
	// default ring), ccRTT the round trip its probes report, give or take
	// seeded jitter.
	ccMax = 32
	ccRTT = 300 * time.Microsecond
)

func newCCSim(t *testing.T, name string, seed int64) *ccSim {
	t.Helper()
	cc, err := NewController(name, DefaultPacketSize)
	if err != nil {
		t.Fatal(err)
	}
	return &ccSim{rng: rand.New(rand.NewSource(seed)), cc: cc}
}

// step runs one round at the given per-packet loss probability and returns
// the controller's directive for it.
func (s *ccSim) step(loss float64) Directive {
	d := s.cc.Tick(ccMax)
	sent := max(d.Batch, 1) // invariant violations are the caller's to flag
	// A backlogged lost packet takes the first free slots of the round,
	// modeling the circular schedule coming back around.
	if retx := min(s.backlog, sent); retx > 0 {
		s.backlog -= retx
		s.cc.OnLoss(LossEvent{Retransmits: retx})
	}
	lost := 0
	for i := 0; i < sent; i++ {
		if s.rng.Float64() < loss {
			lost++
		}
	}
	s.backlog += lost
	s.pendSent += sent
	s.pendDeliv += sent - lost
	s.round++
	if s.round%ccAckEvery == 0 && s.pendDeliv > 0 {
		s.cc.OnAck(AckEvent{Sent: s.pendSent, Acked: s.pendDeliv})
		s.pendSent, s.pendDeliv = 0, 0
		// A round-trip probe resolves roughly once per ack interval, with
		// seeded jitter.
		s.cc.OnRTT(ccRTT + time.Duration(s.rng.Int63n(int64(ccRTT/4)+1)))
	}
	return d
}

// runPhase executes rounds steps at one loss rate, invoking check (when
// non-nil) on every directive, and returns the directives in order.
func (s *ccSim) runPhase(rounds int, loss float64, check func(round int, d Directive)) []Directive {
	out := make([]Directive, 0, rounds)
	for i := 0; i < rounds; i++ {
		d := s.step(loss)
		if check != nil {
			check(s.round, d)
		}
		out = append(out, d)
	}
	return out
}

// directiveRate is a scalar throughput proxy for comparing directives:
// packets per second the directive permits. Only ratios of it are asserted.
func directiveRate(d Directive) float64 {
	return float64(time.Second) / float64(max(d.Gap, time.Nanosecond))
}

// TestControllerConformance is the contract suite every policy in the table
// must pass: over randomized seeded ack/loss traces, (a) every directive
// keeps the batch within [1, max] and the gap within [0, MaxControllerGap];
// (b) identical traces produce identical directives; (c) after a heavy loss
// burst ends, the policy recovers: its permitted rate a recovery phase after
// the burst is no lower than at the burst's end, so no policy can pace a
// flow into a permanent stall; (d) no observation and no decision allocates
// — a sender consults its controller on the zero-alloc hot path.
func TestControllerConformance(t *testing.T) {
	seeds := []int64{1, 7, 42}
	losses := []float64{0, 0.05, 0.30}
	for _, name := range Policies() {
		t.Run(name, func(t *testing.T) {
			t.Run("invariants", func(t *testing.T) {
				for _, seed := range seeds {
					for _, loss := range losses {
						newCCSim(t, name, seed).runPhase(400, loss, func(round int, d Directive) {
							if d.Batch < 1 || d.Batch > ccMax {
								t.Fatalf("seed %d loss %.2f round %d: batch %d outside [1, %d]",
									seed, loss, round, d.Batch, ccMax)
							}
							if d.Gap < 0 || d.Gap > MaxControllerGap {
								t.Fatalf("seed %d loss %.2f round %d: gap %v outside [0, %v]",
									seed, loss, round, d.Gap, MaxControllerGap)
							}
						})
					}
				}
			})
			t.Run("deterministic", func(t *testing.T) {
				for _, seed := range seeds {
					a := newCCSim(t, name, seed).runPhase(300, 0.12, nil)
					b := newCCSim(t, name, seed).runPhase(300, 0.12, nil)
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("seed %d: directive %d diverged: %+v vs %+v", seed, i, a[i], b[i])
						}
					}
				}
			})
			t.Run("recovers_after_loss_burst", func(t *testing.T) {
				sim := newCCSim(t, name, 11)
				sim.runPhase(100, 0, nil) // warm up clean
				burst := sim.runPhase(100, 0.5, nil)
				atBurstEnd := directiveRate(burst[len(burst)-1])
				rec := sim.runPhase(400, 0, nil)
				recovered := directiveRate(rec[len(rec)-1])
				if recovered < atBurstEnd {
					t.Fatalf("rate after recovery %.0f pkts/s < rate at burst end %.0f pkts/s",
						recovered, atBurstEnd)
				}
			})
			t.Run("zero_alloc", func(t *testing.T) {
				cc := newCCSim(t, name, 1).cc
				var sink Directive
				if allocs := testing.AllocsPerRun(1000, func() {
					cc.OnAck(AckEvent{Sent: 32, Acked: 30})
					cc.OnLoss(LossEvent{Retransmits: 2})
					cc.OnRTT(250 * time.Microsecond)
					sink = cc.Tick(ccMax)
				}); allocs != 0 {
					t.Fatalf("%d allocs per observe/decide cycle, want 0", int(allocs))
				}
				_ = sink
			})
		})
	}
}

// --- transcripts from before the one interface --------------------------------

// compareGolden fails when got is not the committed transcript. Both
// transcripts were generated at the commit before Controller replaced the two
// interfaces there used to be (core's sample-and-gap one, the socket
// runtime's own), from the old types; there is no way to regenerate them, by
// design.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := range wl {
		if i >= len(gl) || wl[i] != gl[i] {
			t.Fatalf("%s differs from line %d on, which should read %q", name, i+1, wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", name, len(gl), len(wl))
}

// gapScript is a few hundred (sent, received) acknowledgement samples: clean,
// lightly lossy, heavily lossy and recovering stretches, and three degenerate
// samples (nothing sent, more received than sent, a negative count).
func gapScript() [][2]int {
	rng := rand.New(rand.NewSource(2002))
	var out [][2]int
	phase := func(n int, loss float64) {
		for i := 0; i < n; i++ {
			sent := 1 + rng.Intn(128)
			recv := 0
			for j := 0; j < sent; j++ {
				if rng.Float64() >= loss {
					recv++
				}
			}
			out = append(out, [2]int{sent, recv})
		}
	}
	phase(40, 0)
	phase(80, 0.08)
	phase(60, 0.4)
	out = append(out, [2]int{0, 5}, [2]int{10, 64}, [2]int{-3, 0})
	phase(30, 0)
	phase(60, 0.12)
	phase(50, 0)
	return out
}

// TestGapTranscript: Backoff and Hybrid, ported from a (sent, received) sample
// call and a gap getter onto OnAck + Tick, dictate after every sample of the script exactly the gap they
// did before (no gap in the script reaches MaxControllerGap, which they are
// now held to).
func TestGapTranscript(t *testing.T) {
	var sb strings.Builder
	for _, c := range []struct {
		label string
		cc    Controller
	}{
		{"backoff", &Backoff{}},
		{"backoff maxgap=200us", &Backoff{MaxGap: 200 * time.Microsecond}},
		{"backoff step=40us", &Backoff{Step: 40 * time.Microsecond}},
		{"hybrid", &Hybrid{}},
		{"hybrid rtt=26ms", &Hybrid{RTT: 26 * time.Millisecond}},
		{"hybrid rtt=65ms patience=4", &Hybrid{RTT: 65 * time.Millisecond, Patience: 4}},
	} {
		fmt.Fprintf(&sb, "== %s\n", c.label)
		for _, s := range gapScript() {
			c.cc.OnAck(AckEvent{Sent: s[0], Acked: s[1]})
			d := c.cc.Tick(ccMax)
			if d.Batch != ccMax {
				t.Fatalf("%s capped the batch: %+v", c.label, d)
			}
			fmt.Fprintf(&sb, "%d %d %d\n", s[0], s[1], int64(d.Gap))
		}
	}
	compareGolden(t, "gap_transcript.golden", sb.String())
}

// TestDirectiveTranscript: aimd and sabul, moved here from the socket
// runtime, answer the conformance harness's traces with exactly the
// directives they gave there.
func TestDirectiveTranscript(t *testing.T) {
	type phase struct {
		rounds int
		loss   float64
	}
	scripts := []struct {
		seed   int64
		phases []phase
	}{
		{1, []phase{{300, 0.12}}},
		{7, []phase{{100, 0}, {100, 0.5}, {200, 0}}},
		{42, []phase{{300, 0.05}}},
	}
	var sb strings.Builder
	for _, name := range []string{CCAIMD, CCSABUL} {
		for _, sc := range scripts {
			fmt.Fprintf(&sb, "== %s seed=%d\n", name, sc.seed)
			sim := newCCSim(t, name, sc.seed)
			for _, ph := range sc.phases {
				for _, d := range sim.runPhase(ph.rounds, ph.loss, nil) {
					fmt.Fprintf(&sb, "%d %d\n", d.Batch, int64(d.Gap))
				}
			}
		}
	}
	compareGolden(t, "directive_transcript.golden", sb.String())
}

// --- aimd and sabul -------------------------------------------------------------

// TestAIMDLossEpochs verifies the multiplicative-decrease state machine:
// the window halves on the first retransmit-classified loss, further
// losses inside the epoch (until a window's worth of packets is acked) do
// not halve again, and the next loss after the epoch closes does.
func TestAIMDLossEpochs(t *testing.T) {
	cc := NewAIMD()
	// Grow the window well past its initial value.
	for i := 0; i < 200; i++ {
		cc.OnAck(AckEvent{Sent: 32, Acked: 32})
	}
	before := cc.Window()
	if before <= aimdInitWindow {
		t.Fatalf("window %.1f did not grow past %d", before, aimdInitWindow)
	}
	cc.OnLoss(LossEvent{Retransmits: 1})
	if got := cc.Window(); math.Abs(got-before/2) > 1e-9 {
		t.Fatalf("after loss: window %.2f, want exactly half of %.2f", got, before)
	}
	if cc.Epochs() != 1 {
		t.Fatalf("epochs = %d, want 1", cc.Epochs())
	}
	// Same epoch: the retransmissions of the same loss event keep arriving
	// over the next rounds; no further halving, and acks inside the
	// blackout do not grow the window either.
	inEpoch := cc.Window()
	cc.OnLoss(LossEvent{Retransmits: 5})
	cc.OnAck(AckEvent{Sent: 4, Acked: 2})
	cc.OnLoss(LossEvent{Retransmits: 2})
	if got := cc.Window(); got != inEpoch {
		t.Fatalf("window moved inside the loss epoch: %.2f -> %.2f", inEpoch, got)
	}
	if cc.Epochs() != 1 {
		t.Fatalf("epochs = %d inside the blackout, want still 1", cc.Epochs())
	}
	// Close the epoch: ack a window's worth, then the next loss halves
	// again.
	cc.OnAck(AckEvent{Sent: int(inEpoch) + 8, Acked: int(inEpoch) + 8})
	cc.OnLoss(LossEvent{Retransmits: 1})
	if cc.Epochs() != 2 {
		t.Fatalf("epochs = %d after the blackout cleared, want 2", cc.Epochs())
	}
}

// TestAIMDNeverStarves holds the policy under relentless loss and requires
// the floor to hold: the window never drops below one packet and the gap
// never exceeds its cap, so progress continues even in the worst case.
func TestAIMDNeverStarves(t *testing.T) {
	cc := NewAIMD()
	for i := 0; i < 1000; i++ {
		cc.OnLoss(LossEvent{Retransmits: 3})
		cc.OnAck(AckEvent{Sent: 2, Acked: 1}) // drain the blackout slowly
		d := cc.Tick(ccMax)
		if d.Batch < 1 {
			t.Fatalf("iteration %d: batch %d < 1", i, d.Batch)
		}
		if d.Gap > aimdMaxGap {
			t.Fatalf("iteration %d: gap %v exceeds the %v starvation cap", i, d.Gap, aimdMaxGap)
		}
	}
	if w := cc.Window(); w < aimdMinWindow {
		t.Fatalf("window %.3f below the floor %d", w, aimdMinWindow)
	}
}

// TestAIMDAdditiveIncrease verifies the additive half: with clean acks the
// window grows by roughly one packet per window acknowledged (TCP's +1 per
// round trip), not multiplicatively.
func TestAIMDAdditiveIncrease(t *testing.T) {
	cc := NewAIMD()
	start := cc.Window()
	// Ack exactly one window's worth in small pieces.
	remaining := int(start)
	for remaining > 0 {
		n := min(4, remaining)
		cc.OnAck(AckEvent{Sent: n, Acked: n})
		remaining -= n
	}
	grown := cc.Window() - start
	if grown < 0.5 || grown > 1.5 {
		t.Fatalf("one window of acks grew the window by %.2f packets, want ~1", grown)
	}
}

// TestSABULRateProbing pins the rate loop: ×0.875 on a lossy
// acknowledgement interval, ×1.05 on a clean one, capped at the initial rate
// and floored at the minimum.
func TestSABULRateProbing(t *testing.T) {
	cc := NewSABUL(0, float64(8*(DefaultPacketSize+wire.UDPIPOverhead)))
	init := cc.Rate()
	if init != SABULInitialRate {
		t.Fatalf("initial rate %.0f, want the default %.0f", init, SABULInitialRate)
	}
	// Clean interval at the cap: no growth past the configured ceiling.
	cc.OnAck(AckEvent{Sent: 10, Acked: 10})
	if got := cc.Rate(); got != init {
		t.Fatalf("clean interval at cap moved the rate: %.2f -> %.2f", init, got)
	}
	// A lossy interval decreases multiplicatively; the loss mark is
	// consumed by the interval that observes it.
	cc.OnLoss(LossEvent{Retransmits: 2})
	cc.OnAck(AckEvent{Sent: 10, Acked: 8})
	if got, want := cc.Rate(), init*sabulDecrease; math.Abs(got-want) > 1e-6 {
		t.Fatalf("lossy interval: rate %.4f, want %.4f", got, want)
	}
	// The next clean interval probes back up by exactly the increase
	// factor.
	cc.OnAck(AckEvent{Sent: 10, Acked: 10})
	if got, want := cc.Rate(), init*sabulDecrease*sabulIncrease; math.Abs(got-want) > 1e-6 {
		t.Fatalf("probe up: rate %.4f, want %.4f", got, want)
	}
	if cc.Drops() != 1 || cc.Rises() != 2 { // the capped interval counts as a rise
		t.Fatalf("drops, rises = %d, %d; want 1, 2", cc.Drops(), cc.Rises())
	}
	// Relentless loss floors at the minimum rate, never zero.
	for i := 0; i < 500; i++ {
		cc.OnLoss(LossEvent{Retransmits: 1})
		cc.OnAck(AckEvent{Sent: 10, Acked: 5})
	}
	if got := cc.Rate(); got != SABULMinRate {
		t.Fatalf("rate %.4f, want the floor %.4f", got, float64(SABULMinRate))
	}
	if d := cc.Tick(ccMax); d.Gap > MaxControllerGap || d.Batch != ccMax {
		t.Fatalf("floored directive %+v violates the contract", d)
	}
}

// --- the sender's feed ----------------------------------------------------------

// feedLog is a Controller that writes down what it is told.
type feedLog struct {
	Greedy
	log []string
}

func (f *feedLog) OnAck(ev AckEvent) {
	f.log = append(f.log, fmt.Sprintf("ack %d/%d", ev.Acked, ev.Sent))
}
func (f *feedLog) OnLoss(ev LossEvent)   { f.log = append(f.log, fmt.Sprintf("loss %d", ev.Retransmits)) }
func (f *feedLog) OnRTT(d time.Duration) { f.log = append(f.log, fmt.Sprintf("rtt %v", d)) }
func (f *feedLog) Tick(max int) Directive {
	f.log = append(f.log, fmt.Sprintf("tick %d", max))
	return Directive{Batch: max}
}

func (f *feedLog) take() string {
	s := strings.Join(f.log, ", ")
	f.log = f.log[:0]
	return s
}

// TestSenderFeedsController: the sender is the one place a controller is fed.
// A fresh acknowledgement is an OnAck carrying the packets selected since the
// last one; a stale or foreign one is not; the retransmissions selected since
// the last report arrive as one OnLoss, late but always ahead of the OnAck or
// Tick that follows them; the round-trip probe rides the first packet of a
// planned round, resolves against the driver's clock when that packet shows
// acknowledged, and is given up after a second.
func TestSenderFeedsController(t *testing.T) {
	const ms = time.Millisecond
	f := &feedLog{}
	s := NewSender(makeObject(4*64), Config{PacketSize: 64, Transfer: 5, Batch: FixedBatch(3)})
	s.SetController(f)
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, ok := s.NextPacket(); !ok {
				t.Fatal("schedule ran dry")
			}
		}
	}
	ack := func(serial uint32, delta int, bits uint64) {
		t.Helper()
		if err := s.HandleAck(wire.Ack{Transfer: 5, AckSeq: serial, Delta: uint32(delta),
			Frag: bitmap.Fragment{Words: []uint64{bits}}}); err != nil {
			t.Fatal(err)
		}
	}
	if b, gap := s.planRound(10 * ms); b != 3 || gap != 0 {
		t.Fatalf("planRound = %d, %v", b, gap)
	}
	send(3) // 0 1 2: first sends; the probe rides packet 0
	if got := f.take(); got != "tick 3" {
		t.Fatalf("first round fed %q", got)
	}
	if _, ok := s.probeRTT(11 * ms); ok || f.take() != "" {
		t.Fatal("probe resolved before its packet was acknowledged")
	}
	send(3) // 3, then 0 1 again: two retransmissions, not yet reported
	if got := f.take(); got != "" {
		t.Fatalf("sending fed the controller %q", got)
	}
	ack(1, 2, 0b0110) // packets 1 and 2: the loss report comes first
	if got := f.take(); got != "loss 2, ack 2/6" {
		t.Fatalf("fresh ack fed %q", got)
	}
	ack(1, 9, 0b0110)                                       // stale serial
	s.HandleAck(wire.Ack{Transfer: 6, AckSeq: 9, Delta: 9}) // another transfer's
	if got := f.take(); got != "" {
		t.Fatalf("stale and foreign acks fed %q", got)
	}
	send(1) // 3 again
	s.planRound(12 * ms)
	if got := f.take(); got != "loss 1, tick 3" {
		t.Fatalf("planning fed %q", got)
	}
	ack(2, 1, 0b0001) // packet 0: the probe's
	if rtt, ok := s.probeRTT(14 * ms); !ok || rtt != 4*ms {
		t.Fatalf("probeRTT = %v, %v; want 4ms from the round planned at 10ms", rtt, ok)
	}
	if got := f.take(); got != "ack 1/1, rtt 4ms" {
		t.Fatalf("resolving fed %q", got)
	}
	// The next planned round arms a new probe (packet 3, unacknowledged); a
	// second of silence gives it up and the round after re-arms.
	s.planRound(20 * ms)
	send(1)
	if _, ok := s.probeRTT(20*ms + rttProbeStale + 1); ok || s.probeSeq != probeIdle {
		t.Fatalf("stale probe: ok=%v probeSeq=%d", ok, s.probeSeq)
	}
	s.planRound(2000 * ms)
	send(1)
	ack(3, 1, 0b1000)
	if rtt, ok := s.probeRTT(2001 * ms); !ok || rtt != ms {
		t.Fatalf("re-armed probe = %v, %v", rtt, ok)
	}
	// A batch policy that asks for nothing bypasses the controller.
	idle := NewSender(makeObject(64), Config{Batch: FixedBatch(0)})
	idle.SetController(f)
	f.take()
	if b, gap := idle.planRound(0); b != 0 || gap != 0 || f.take() != "" {
		t.Fatalf("empty ask planned (%d, %v) and consulted the controller", b, gap)
	}
}
