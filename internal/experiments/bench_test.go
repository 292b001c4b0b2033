// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the full experiment per iteration (with
// the paper's 40 MB object) and reports the headline quantities as custom
// metrics; the complete rows/series are printed once via b.Logf (visible
// with -v) and by cmd/fobs-bench.
//
// Absolute numbers come from the netsim substrate, not the 2002 Abilene
// testbed; what is expected to match the paper is the shape — who wins, by
// roughly what factor, and where the curves bend. EXPERIMENTS.md records
// paper-vs-measured values.
package experiments_test

import (
	"testing"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/experiments"
)

// benchObject is the paper's 40 MB transfer.
const benchObject = int64(experiments.ObjectSize)

// BenchmarkFigure1 regenerates Figure 1 (and the data behind Figure 2):
// FOBS's share of the maximum available bandwidth versus acknowledgement
// frequency on the short- and long-haul paths.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.AckFrequencySweep(benchObject, experiments.DefaultAckFrequencies)
		if i == 0 {
			b.Logf("\n%s", experiments.Figure1(pts).Render())
		}
		_, peak := experiments.Figure1(pts).Series[0].PeakY()
		b.ReportMetric(peak, "peak_%bw")
	}
}

// BenchmarkFigure2 regenerates Figure 2: wasted network resources versus
// acknowledgement frequency (paper: ~3% at the tuned frequency).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.AckFrequencySweep(benchObject, experiments.DefaultAckFrequencies)
		if i == 0 {
			b.Logf("\n%s", experiments.Figure2(pts).Render())
		}
		_, minWaste := experiments.Figure2(pts).Series[0].MinY()
		b.ReportMetric(minWaste, "min_waste_%")
	}
}

// BenchmarkFigure3 regenerates Figure 3: FOBS's share of the OC-12 path
// versus UDP packet size (paper: rising to ~52%).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.PacketSizeSweep(benchObject, experiments.DefaultPacketSizes)
		if i == 0 {
			b.Logf("\n%s", experiments.Figure3(pts).Render())
		}
		_, peak := experiments.Figure3(pts).Series[0].PeakY()
		b.ReportMetric(peak, "peak_%bw")
	}
}

// BenchmarkTable1 regenerates Table 1: TCP with and without the Large
// Window extensions (paper: 86% / 51% / 11%).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(benchObject)
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
		b.ReportMetric(100*res.ShortLWE.Utilization(experiments.ShortHaul().MaxBandwidth), "short_lwe_%")
		b.ReportMetric(100*res.LongLWE.Utilization(experiments.LongHaul().MaxBandwidth), "long_lwe_%")
		b.ReportMetric(100*res.LongNoLWE.Utilization(experiments.LongHaul().MaxBandwidth), "long_nolwe_%")
	}
}

// BenchmarkTable2 regenerates Table 2: FOBS versus PSockets on the
// contended path (paper: 76% vs 56%, FOBS waste 2%, 20 sockets optimal).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(benchObject)
		if i == 0 {
			b.Logf("\n%s", res.Render())
		}
		max := experiments.Contended().MaxBandwidth
		b.ReportMetric(100*res.FOBS.Utilization(max), "fobs_%")
		b.ReportMetric(100*res.PSockets.Utilization(max), "psockets_%")
		b.ReportMetric(float64(res.OptimalStreams), "opt_streams")
	}
}

// BenchmarkAblationBatch sweeps the batch-send size of §3.1 (paper: 2 was
// best).
func BenchmarkAblationBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.BatchSweep(benchObject, experiments.DefaultBatchSizes)
		if i == 0 {
			b.Logf("\n%s", experiments.RenderBatchSweep(pts))
		}
	}
}

// BenchmarkAblationSchedule compares the §3.1 packet-choice policies
// (paper: circular best by far).
func BenchmarkAblationSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.ScheduleSweep(benchObject)
		if i == 0 {
			b.Logf("\n%s", experiments.RenderScheduleSweep(pts))
		}
	}
}

// BenchmarkAblationTCPVariants compares Tahoe, Reno and NewReno on the
// lossy long haul — the substrate ablation showing the paper's conclusions
// hold across TCP generations.
func BenchmarkAblationTCPVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.TCPVariants(benchObject)
		if i == 0 {
			b.Logf("\n%s", experiments.RenderTCPVariants(pts))
		}
	}
}

// BenchmarkRelatedWork compares FOBS with the RUDP and SABUL baselines of
// §2 on the long-haul path.
func BenchmarkRelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := experiments.Lossy(experiments.LongHaul(), 0.01)
		r := experiments.RelatedWork(benchObject, sc)
		if i == 0 {
			b.Logf("\n%s", r.Render(sc.MaxBandwidth))
		}
	}
}

// BenchmarkExtensions compares the §7 congestion-control extensions under
// heavy contention.
func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.Extensions(benchObject)
		if i == 0 {
			b.Logf("\n%s", e.Render(experiments.LongHaul().MaxBandwidth))
		}
	}
}

// BenchmarkFairness runs the multi-flow sharing study: how N greedy FOBS
// transfers divide one bottleneck (the question behind §7).
func BenchmarkFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fairness(benchObject, 4)
		if i == 0 {
			b.Logf("\n%s", f.Render(experiments.LongHaul().MaxBandwidth))
		}
		b.ReportMetric(f.JainIndex, "jain")
	}
}

// BenchmarkREDResponse compares drop-tail and RED queues under TCP and
// FOBS on a mid-path bottleneck.
func BenchmarkREDResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.REDResponse(benchObject)
		if i == 0 {
			b.Logf("\n%s", r.Render(100e6))
		}
	}
}

// BenchmarkSimulatedTransfer40MB measures the simulator's own speed moving
// the paper's object across the short-haul path once.
func BenchmarkSimulatedTransfer40MB(b *testing.B) {
	b.SetBytes(benchObject)
	for i := 0; i < b.N; i++ {
		res := experiments.RunFOBS(experiments.ShortHaul(), 1, benchObject, core.Config{})
		if !res.Completed {
			b.Fatal("transfer incomplete")
		}
	}
}
