package experiments

import (
	"fmt"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/event"
	"github.com/hpcnet/fobs/internal/netsim"
	"github.com/hpcnet/fobs/internal/rudp"
	"github.com/hpcnet/fobs/internal/sabul"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/tcpsim"
)

// BatchSweepPoint is one row of the batch-size ablation (paper §3.1: "two
// packets per batch-send operation provided the best performance").
type BatchSweepPoint struct {
	Batch  int
	Result stats.TransferResult
}

// DefaultBatchSizes is the batch-size ablation sweep.
var DefaultBatchSizes = []int{1, 2, 4, 8, 16, 32, 64}

// BatchSweep runs FOBS on the long-haul path for each fixed batch size.
// Larger batches check for acknowledgements less often, so the sender's
// view goes staler and waste creeps up; the effect the paper tuned out.
func BatchSweep(objSize int64, batches []int) []BatchSweepPoint {
	sc := LongHaul()
	pts := make([]BatchSweepPoint, 0, len(batches))
	for _, b := range batches {
		cfg := core.Config{AckFrequency: 8, Batch: core.FixedBatch(b)}
		pts = append(pts, BatchSweepPoint{Batch: b, Result: RunFOBS(sc, 1, objSize, cfg)})
	}
	return pts
}

// RenderBatchSweep formats the batch ablation as a table.
func RenderBatchSweep(pts []BatchSweepPoint) string {
	tb := &stats.Table{
		Title:   "Ablation: batch-send size (paper tuned to 2)",
		Columns: []string{"Batch", "% of Max Bandwidth", "Waste"},
	}
	for _, pt := range pts {
		tb.AddRow(fmt.Sprintf("%d", pt.Batch),
			stats.Percent(pt.Result.Utilization(LongHaul().MaxBandwidth)),
			fmt.Sprintf("%.1f%%", 100*pt.Result.Waste()))
	}
	return tb.Render()
}

// ScheduleSweepPoint is one row of the packet-choice ablation (paper §3.1:
// the circular buffer was best "by far").
type ScheduleSweepPoint struct {
	Schedule core.Schedule
	Result   stats.TransferResult
}

// ScheduleSweep compares the circular schedule against the rejected
// alternatives on a lossy long-haul path, where the choice matters most.
// The Restart schedule can live-lock outright (it resends the lowest
// unacknowledged packet, which the receiver already holds and — receiving
// nothing new — never acknowledges), so each run is bounded and an
// incomplete result simply reports what it achieved within the bound.
func ScheduleSweep(objSize int64) []ScheduleSweepPoint {
	sc := LongHaul()
	sc.AmbientLoss = 0.01 // loss makes retransmission order matter
	var pts []ScheduleSweepPoint
	for _, sched := range []core.Schedule{core.Circular, core.Restart, core.RandomUnacked} {
		cfg := core.Config{AckFrequency: 32, Schedule: sched}
		pts = append(pts, ScheduleSweepPoint{
			Schedule: sched,
			Result:   runFOBSWithLimit(sc, 1, objSize, cfg, 30*time.Second),
		})
	}
	return pts
}

// RenderScheduleSweep formats the schedule ablation as a table.
func RenderScheduleSweep(pts []ScheduleSweepPoint) string {
	tb := &stats.Table{
		Title:   "Ablation: next-packet schedule on a lossy long-haul path (paper: circular best)",
		Columns: []string{"Schedule", "% of Max Bandwidth", "Waste"},
	}
	for _, pt := range pts {
		tb.AddRow(pt.Schedule.String(),
			stats.Percent(pt.Result.Utilization(LongHaul().MaxBandwidth)),
			fmt.Sprintf("%.1f%%", 100*pt.Result.Waste()))
	}
	return tb.Render()
}

// TCPVariantPoint is one row of the TCP congestion-control ablation.
type TCPVariantPoint struct {
	Variant tcpsim.Variant
	Result  stats.TransferResult
}

// TCPVariants compares the Tahoe, Reno and NewReno generations moving the
// same object through a mid-path bottleneck whose queue overflows in
// bursts — the regime where recovery style matters (under scattered
// Bernoulli loss all three collapse to the same Mathis ceiling). This is a
// substrate ablation: the FOBS paper argues against TCP as a class, and
// the ordering shows its conclusions do not hinge on which 1990s variant
// is assumed.
func TCPVariants(objSize int64) []TCPVariantPoint {
	var pts []TCPVariantPoint
	for _, v := range []tcpsim.Variant{tcpsim.Tahoe, tcpsim.Reno, tcpsim.NewReno} {
		res := medianRun(func(seed int64) stats.TransferResult {
			p := redPath(seed, false)
			// A buffer well past the BDP lets cwnd grow until the
			// bottleneck queue overflows — the burst-loss sawtooth where
			// Tahoe, Reno and NewReno genuinely differ.
			cfg := tcpsim.Config{LargeWindows: true, RecvBuf: 2 << 20, Variant: v}
			f := tcpsim.NewFlow(p.Net, p.A, tcpPortBase, p.B, tcpPortBase+1, objSize, cfg)
			f.Start()
			deadline := event.Time(30 * time.Minute)
			for !f.Done() && p.Net.Sim.Now() < deadline && p.Net.Sim.Pending() > 0 {
				p.Net.Sim.RunUntil(deadline)
			}
			st := f.Stats()
			end := st.End
			if !f.Done() {
				end = p.Net.Now()
			}
			return stats.TransferResult{
				Protocol:  "tcp/" + v.String(),
				Bytes:     objSize,
				Elapsed:   end.Sub(st.Start),
				Completed: f.Done(),
			}
		})
		pts = append(pts, TCPVariantPoint{Variant: v, Result: res})
	}
	return pts
}

// RenderTCPVariants formats the variant ablation.
func RenderTCPVariants(pts []TCPVariantPoint) string {
	tb := &stats.Table{
		Title:   "Substrate ablation: TCP congestion-control generations on the lossy long haul",
		Columns: []string{"Variant", "% of Max Bandwidth"},
	}
	for _, pt := range pts {
		tb.AddRow(pt.Variant.String(),
			stats.Percent(pt.Result.Utilization(LongHaul().MaxBandwidth)))
	}
	return tb.Render()
}

// RelatedWorkResult compares FOBS with the related-work baselines of §2 on
// one scenario.
type RelatedWorkResult struct {
	Scenario          string
	FOBS, RUDP, SABUL stats.TransferResult
}

// RelatedWork runs FOBS, RUDP and SABUL over the same path. On clean
// QoS-like paths all three do well. Once real loss appears, SABUL misreads
// it as congestion and collapses its rate, and RUDP — synchronizing only
// once per blast round — falls behind FOBS's pipelined repair, most
// visibly on smaller objects where the per-round round trips are not
// amortized; FOBS pays instead with duplicate packets. That is exactly the
// paper's qualitative positioning of the three protocols. A representative
// setting is Lossy(LongHaul(), 0.01).
func RelatedWork(objSize int64, sc Scenario) RelatedWorkResult {
	return RelatedWorkResult{
		Scenario: sc.Name,
		FOBS:     RunFOBS(sc, 1, objSize, core.Config{AckFrequency: core.DefaultAckFrequency}),
		RUDP:     rudpRun(sc.Build(1), objSize),
		SABUL:    sabulRun(sc.Build(1), objSize, sc.MaxBandwidth),
	}
}

// rudpRun and sabulRun run the baselines on an already-built path.
func rudpRun(p *netsim.Path, objSize int64) stats.TransferResult {
	return rudp.Run(p, make([]byte, objSize), rudp.Config{})
}

func sabulRun(p *netsim.Path, objSize int64, rate float64) stats.TransferResult {
	return sabul.Run(p, make([]byte, objSize), sabul.Config{InitialRate: rate})
}

// Render formats the related-work comparison.
func (r RelatedWorkResult) Render(maxBandwidth float64) string {
	tb := &stats.Table{
		Title:   fmt.Sprintf("Related work (%s): user-level UDP protocols", r.Scenario),
		Columns: []string{"Protocol", "% of Max Bandwidth", "Waste"},
	}
	for _, res := range []stats.TransferResult{r.FOBS, r.RUDP, r.SABUL} {
		tb.AddRow(res.Protocol,
			stats.Percent(res.Utilization(maxBandwidth)),
			fmt.Sprintf("%.1f%%", 100*res.Waste()))
	}
	return tb.Render()
}

// ExtensionResult compares the §7 future-work rate controllers under
// sustained congestion.
type ExtensionResult struct {
	Greedy, Backoff, Hybrid stats.TransferResult
}

// Extensions runs the greedy protocol and both proposed congestion
// responses on a heavily contended long-haul path. Greedy maximizes its
// own throughput at the cost of waste; Backoff and Hybrid trade throughput
// for a lighter footprint, exactly the dial the paper's §7 sketches.
func Extensions(objSize int64) ExtensionResult {
	sc := LongHaul()
	heavy := *sc.Contention
	heavy.Rate = 30e6
	heavy.PeakRate = 90e6
	sc.Contention = &heavy

	run := func(rc core.Controller) stats.TransferResult {
		r := newFOBS(sc, 1, objSize, core.Config{AckFrequency: 32}, 0)
		r.Sender().SetController(rc)
		res := r.Run()
		res.Protocol = "fobs/" + rc.Name()
		return res
	}
	return ExtensionResult{
		Greedy:  run(core.Greedy{}),
		Backoff: run(&core.Backoff{}),
		Hybrid:  run(&core.Hybrid{RTT: sc.RTT}),
	}
}

// Render formats the extension comparison.
func (e ExtensionResult) Render(maxBandwidth float64) string {
	tb := &stats.Table{
		Title:   "Extensions (§7 future work): congestion responses under heavy contention",
		Columns: []string{"Mode", "% of Max Bandwidth", "Waste"},
	}
	for _, res := range []stats.TransferResult{e.Greedy, e.Backoff, e.Hybrid} {
		tb.AddRow(res.Protocol,
			stats.Percent(res.Utilization(maxBandwidth)),
			fmt.Sprintf("%.1f%%", 100*res.Waste()))
	}
	return tb.Render()
}
