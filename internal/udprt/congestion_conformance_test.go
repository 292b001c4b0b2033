package udprt

import (
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
)

// The controllers' own contract suite — bounds, determinism, recovery and
// zero allocations over synthetic traces, for all five policies — is
// internal/core's TestControllerConformance. The tests here hold what this
// package adds to the same contract: the controller Options selects, slowed by
// Options.Pace and Options.RateCap, planning a real sender's rounds.

// TestControllerConformance runs every policy Options.Congestion can name
// through runSchedule — a real sender and receiver, the sender's own feed —
// and requires of the rounds it plans what the engine relies on: (a) every
// batch within [1, ask] and every gap within [0, MaxControllerGap] plus the
// configured pace, bare, paced and under a (generous) rate cap; (b) the same
// transfer planned twice gives the same schedule. And (c), paced and under
// the generous cap: the round a sender plans after a burst of lossy
// acknowledgement intervals and then four hundred clean ones is no slower
// than at the end of the burst — the pace and the cap pace no policy into a
// standstill.
func TestControllerConformance(t *testing.T) {
	const pace = 5 * time.Microsecond
	obj := makeObj(256 << 10)
	cfg := core.Config{PacketSize: 64, AckFrequency: 32, Batch: core.FixedBatch(16)}
	for _, name := range CongestionPolicies() {
		t.Run(name, func(t *testing.T) {
			// A generous cap, one per run: each run's virtual clock starts
			// at the wall clock's now and runs far ahead of it.
			generous := func() *RateCap { c, _ := NewRateCap(1e12); return c }
			t.Run("invariants", func(t *testing.T) {
				for _, opts := range []Options{
					{Congestion: name},
					{Congestion: name, Pace: pace},
					{Congestion: name, Pace: pace, RateCap: generous()},
				} {
					for _, loss := range []float64{0, 0.05, 0.30} {
						_, rounds := runSchedule(t, obj[:128<<10], cfg, opts, func(int) float64 { return loss })
						for i, r := range rounds {
							if r.batch < 1 || r.batch > r.ask {
								t.Fatalf("pace %v loss %.2f round %d: batch %d outside [1, %d]", opts.Pace, loss, i+1, r.batch, r.ask)
							}
							if r.gap < 0 || r.gap > core.MaxControllerGap+opts.Pace {
								t.Fatalf("pace %v loss %.2f round %d: gap %v outside [0, %v]", opts.Pace, loss, i+1, r.gap, core.MaxControllerGap+opts.Pace)
							}
						}
					}
				}
			})
			t.Run("deterministic", func(t *testing.T) {
				opts := Options{Congestion: name, Pace: pace}
				a, _ := runSchedule(t, obj, cfg, opts, func(int) float64 { return 0.12 })
				b, _ := runSchedule(t, obj, cfg, opts, func(int) float64 { return 0.12 })
				if a != b {
					t.Fatalf("two runs of one transfer planned different schedules:\n%s", firstScheduleDiff(a, b))
				}
			})
			t.Run("recovers_after_loss_burst", func(t *testing.T) {
				cc, err := core.NewController(name, 1024)
				if err != nil {
					t.Fatal(err)
				}
				// 16 384 packets: no round of the 600 below is a retransmission.
				snd := core.NewSender(makeObj(1<<20), core.Config{PacketSize: 64, Batch: core.FixedBatch(DefaultIOBatch)})
				snd.SetController(cc)
				Options{Pace: pace, RateCap: generous()}.slow(snd, time.Now())
				v := &scheduleVector{t: t, snd: snd} // a wire to nowhere
				var now time.Duration
				// intervals has the sender plan n rounds, each a look past the
				// last one's pacing instant and its own acknowledgement
				// interval, half of it lost when lossy, and returns the last.
				intervals := func(n int, lossy bool) (r plannedRound) {
					for i := 0; i < n; i++ {
						now += time.Second
						snd.Step(now, v)
						r = v.rounds[len(v.rounds)-1]
						ev := core.AckEvent{Sent: r.batch, Acked: r.batch}
						if lossy {
							ev.Acked = r.batch / 2
							cc.OnLoss(core.LossEvent{Retransmits: r.batch - ev.Acked})
						}
						cc.OnAck(ev)
						cc.OnRTT(300 * time.Microsecond)
					}
					return r
				}
				intervals(100, false)
				atBurstEnd := intervals(100, true)
				recovered := intervals(400, false)
				if recovered.gap > atBurstEnd.gap || recovered.batch < atBurstEnd.batch {
					t.Fatalf("round after recovery %+v is slower than at the burst's end %+v", recovered, atBurstEnd)
				}
			})
		})
	}
}

// TestFixedControllerLegacyArithmetic: greedy plus Options.Pace, as a sender
// plans it, is the pre-policy engine's arithmetic — the ask uncapped, the
// gap exactly the pace, whatever the controller is told — and a
// state-carrying policy's gap has the pace added to whatever it says at Tick
// time.
func TestFixedControllerLegacyArithmetic(t *testing.T) {
	const pace = 7 * time.Microsecond
	// paced builds a sender of policy under the pace, its controller, and a
	// wire to nowhere that transcribes its rounds.
	paced := func(policy string) (*core.Sender, core.Controller, *scheduleVector) {
		snd := core.NewSender(makeObj(1<<20), core.Config{PacketSize: 1024, Batch: core.FixedBatch(13)})
		cc, err := core.NewController(policy, 1024)
		if err != nil {
			t.Fatal(err)
		}
		snd.SetController(cc)
		Options{Pace: pace}.slow(snd, time.Now())
		return snd, cc, &scheduleVector{t: t, snd: snd}
	}
	snd, cc, v := paced(CCFixed)
	cc.OnLoss(core.LossEvent{Retransmits: 100})
	cc.OnRTT(3 * time.Millisecond)
	cc.OnAck(core.AckEvent{Sent: 50, Acked: 1})
	snd.Step(0, v)
	if got, want := v.rounds[0], (plannedRound{ask: 13, batch: 13, gap: pace}); got != want {
		t.Fatalf("fixed + pace: round %+v, want %+v", got, want)
	}
	snd, cc, v = paced(core.CCBackoff)
	bare := &core.Backoff{}
	for i := 0; i < 5; i++ {
		ev := core.AckEvent{Sent: 64, Acked: 64 - 8*i}
		cc.OnAck(ev)
		bare.OnAck(ev)
		want := bare.Tick(13)
		snd.Step(time.Duration(i)*time.Second, v) // each look past the last one's pacing instant
		if got := v.rounds[i]; got.batch != want.Batch || got.gap != want.Gap+pace {
			t.Fatalf("sample %d: round %+v, want %+v plus %v", i, got, want, pace)
		}
	}
}

// misbehavedController returns hostile directives; the sender's round
// planning must clamp them so the engine never sees an unusable round.
type misbehavedController struct {
	core.Greedy
	d core.Directive
}

func (m *misbehavedController) Tick(int) core.Directive { return m.d }

// TestPlanRoundClamps proves the guarantee the engine plans under, around any
// controller: the round batch a step plans stays within [1, ask] and the gap
// is never negative, no matter what the policy returns.
func TestPlanRoundClamps(t *testing.T) {
	cases := []struct {
		name  string
		d     core.Directive
		batch int
		gap   time.Duration
	}{
		{"zero_batch", core.Directive{Batch: 0, Gap: time.Millisecond}, 1, time.Millisecond},
		{"negative_batch", core.Directive{Batch: -5}, 1, 0},
		{"oversized_batch", core.Directive{Batch: 1 << 30}, 8, 0},
		{"negative_gap", core.Directive{Batch: 4, Gap: -time.Second}, 4, 0},
		{"honest", core.Directive{Batch: 4, Gap: time.Microsecond}, 4, time.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snd := core.NewSender(makeObj(64<<10), core.Config{Batch: core.FixedBatch(8)})
			snd.SetController(&misbehavedController{d: tc.d})
			v := &scheduleVector{t: t, snd: snd} // a wire to nowhere
			snd.Step(0, v)
			if r := v.rounds[0]; r.batch != tc.batch || r.gap != tc.gap {
				t.Fatalf("first round planned under %+v = (%d, %v), want (%d, %v)", tc.d, r.batch, r.gap, tc.batch, tc.gap)
			}
		})
	}
}

// TestValidateCongestion covers the Options.Congestion name gate: every
// name in the table, the empty default and greedy's second spelling pass;
// anything else fails in the plan constructor — which covers Send and
// Session.Send — before any network activity, naming the table.
func TestValidateCongestion(t *testing.T) {
	for _, ok := range append(CongestionPolicies(), "", "greedy") {
		if _, err := newSenderPlan(make([]byte, 1024), core.Config{}, Options{Congestion: ok}); err != nil {
			t.Errorf("Options.Congestion %q: %v", ok, err)
		}
	}
	for _, bad := range []string{"AIMD", "cubic", "fixed ", "bbr"} {
		if _, err := newSenderPlan(make([]byte, 1024), core.Config{}, Options{Congestion: bad}); err == nil {
			t.Errorf("newSenderPlan accepted the unknown congestion controller %q", bad)
		}
	}
}

// TestControllerZeroAlloc gates every policy as this package hands it to a
// sender at zero allocations over its full observe/decide surface: the
// engine consults it inside the zero-alloc hot path.
func TestControllerZeroAlloc(t *testing.T) {
	for _, name := range CongestionPolicies() {
		t.Run(name, func(t *testing.T) {
			cc, err := core.NewController(name, 1024)
			if err != nil {
				t.Fatal(err)
			}
			var sink core.Directive
			if allocs := testing.AllocsPerRun(1000, func() {
				cc.OnAck(core.AckEvent{Sent: 32, Acked: 30})
				cc.OnLoss(core.LossEvent{Retransmits: 2})
				cc.OnRTT(250 * time.Microsecond)
				sink = cc.Tick(DefaultIOBatch)
			}); allocs != 0 {
				t.Fatalf("%d allocs per observe/decide cycle, want 0", int(allocs))
			}
			_ = sink
		})
	}
}
