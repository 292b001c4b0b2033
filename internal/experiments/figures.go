package experiments

import (
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/simrun"
	"github.com/hpcnet/fobs/internal/stats"
)

// Paper-matching experiment defaults.
const (
	// ObjectSize is the paper's 40 MB transfer.
	ObjectSize = 40 << 20
	// PacketSize is the paper's 1024-byte packet (below every MTU on the
	// paths considered).
	PacketSize = 1024
)

// DefaultAckFrequencies is the sweep driven through Figures 1 and 2.
var DefaultAckFrequencies = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// DefaultPacketSizes is Figure 3's UDP packet-size sweep.
var DefaultPacketSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}

// fobsOptions are the driver constants used by every FOBS experiment:
// building an acknowledgement costs the receiver 300 µs of CPU (the stall
// the paper identifies) on the 100 Mb/s paths.
func fobsOptions() simrun.Options {
	return simrun.Options{AckBuildTime: 300 * time.Microsecond}
}

// RunFOBS executes one FOBS transfer of objSize bytes on the scenario and
// returns its result.
func RunFOBS(sc Scenario, seed int64, objSize int64, cfg core.Config) stats.TransferResult {
	return runFOBSWithLimit(sc, seed, objSize, cfg, 0)
}

// runFOBSWithLimit bounds the virtual duration; zero keeps the driver's
// default. Sweeps over pathological configurations (the Restart schedule
// can live-lock by design) use a short limit.
func runFOBSWithLimit(sc Scenario, seed int64, objSize int64, cfg core.Config, limit time.Duration) stats.TransferResult {
	return newFOBS(sc, seed, objSize, cfg, limit).Run()
}

// newFOBS wires the transfer runFOBSWithLimit runs, for the callers that
// hand its sender a tuned controller first.
func newFOBS(sc Scenario, seed int64, objSize int64, cfg core.Config, limit time.Duration) *simrun.FOBSRun {
	if cfg.PacketSize == 0 {
		cfg.PacketSize = PacketSize
	}
	cfg.Discard = true
	opts := fobsOptions()
	opts.Limit = limit
	return simrun.NewFOBS(sc.Build(seed), make([]byte, objSize), cfg, opts)
}

// AckSweepPoint is one x-position of Figures 1 and 2: the same pair of runs
// feeds both (Figure 1 plots utilization, Figure 2 plots waste).
type AckSweepPoint struct {
	Freq        int
	Short, Long stats.TransferResult
}

// Quiet returns the scenario as measured during a calm period: the paper
// notes that "network conditions are constantly changing" and its FOBS
// sweeps were taken in windows with little contention; what loss remains
// is scattered ambient loss rather than congestion bursts.
func Quiet(sc Scenario) Scenario {
	sc.Contention = nil
	sc.AmbientLoss = 2e-4
	return sc
}

// Lossy returns the scenario stripped of burst contention but with the
// given Bernoulli ambient loss — the "currently available (although
// non-QoS-enabled) high-performance networks" FOBS is designed for, at
// their worse moments.
func Lossy(sc Scenario, p float64) Scenario {
	sc.Contention = nil
	sc.AmbientLoss = p
	return sc
}

// AckFrequencySweep runs FOBS across the short- and long-haul scenarios
// for each acknowledgement frequency.
func AckFrequencySweep(objSize int64, freqs []int) []AckSweepPoint {
	short, long := Quiet(ShortHaul()), Quiet(LongHaul())
	pts := make([]AckSweepPoint, 0, len(freqs))
	for _, f := range freqs {
		cfg := core.Config{AckFrequency: f}
		pts = append(pts, AckSweepPoint{
			Freq:  f,
			Short: RunFOBS(short, 1, objSize, cfg),
			Long:  RunFOBS(long, 1, objSize, cfg),
		})
	}
	return pts
}

// Figure1 builds the paper's Figure 1 — FOBS's percentage of the maximum
// available bandwidth as a function of acknowledgement frequency, on the
// short- and long-haul connections — from a sweep's results.
func Figure1(pts []AckSweepPoint) *stats.Figure {
	short := &stats.Series{Name: "short-haul", XLabel: "ack frequency (packets)", YLabel: "% of max bandwidth"}
	long := &stats.Series{Name: "long-haul", XLabel: "ack frequency (packets)", YLabel: "% of max bandwidth"}
	for _, pt := range pts {
		short.Add(float64(pt.Freq), 100*pt.Short.Utilization(ShortHaul().MaxBandwidth))
		long.Add(float64(pt.Freq), 100*pt.Long.Utilization(LongHaul().MaxBandwidth))
	}
	return &stats.Figure{
		Title:  "Figure 1: FOBS % of maximum available bandwidth vs acknowledgement frequency",
		Series: []*stats.Series{long, short},
	}
}

// Figure2 builds the paper's Figure 2 — wasted network resources as a
// function of acknowledgement frequency — from the same sweep.
func Figure2(pts []AckSweepPoint) *stats.Figure {
	short := &stats.Series{Name: "short-haul", XLabel: "ack frequency (packets)", YLabel: "wasted resources (%)"}
	long := &stats.Series{Name: "long-haul", XLabel: "ack frequency (packets)", YLabel: "wasted resources (%)"}
	for _, pt := range pts {
		short.Add(float64(pt.Freq), 100*pt.Short.Waste())
		long.Add(float64(pt.Freq), 100*pt.Long.Waste())
	}
	return &stats.Figure{
		Title:  "Figure 2: FOBS wasted network resources vs acknowledgement frequency",
		Series: []*stats.Series{long, short},
	}
}

// PacketSizePoint is one x-position of Figure 3.
type PacketSizePoint struct {
	PacketSize int
	Result     stats.TransferResult
}

// PacketSizeSweep runs FOBS on the Gigabit scenario for each UDP packet
// size (Figure 3's x-axis).
func PacketSizeSweep(objSize int64, sizes []int) []PacketSizePoint {
	sc := Gigabit()
	pts := make([]PacketSizePoint, 0, len(sizes))
	for _, ps := range sizes {
		// The ack frequency is scaled so acknowledgement bytes per data
		// byte stay constant across packet sizes.
		freq := 64 * 1024 / ps
		if freq < 4 {
			freq = 4
		}
		cfg := core.Config{PacketSize: ps, AckFrequency: freq, AckPacketSize: 1024}
		pts = append(pts, PacketSizePoint{PacketSize: ps, Result: RunFOBS(sc, 1, objSize, cfg)})
	}
	return pts
}

// Figure3 builds the paper's Figure 3 — percentage of the maximum
// available bandwidth over the Gigabit/OC-12 path as a function of UDP
// packet size (peaking around 52% in the paper).
func Figure3(pts []PacketSizePoint) *stats.Figure {
	s := &stats.Series{Name: "gigabit", XLabel: "packet size (bytes)", YLabel: "% of max bandwidth"}
	for _, pt := range pts {
		s.Add(float64(pt.PacketSize), 100*pt.Result.Utilization(Gigabit().MaxBandwidth))
	}
	return &stats.Figure{
		Title:  "Figure 3: FOBS % of maximum available bandwidth vs UDP packet size (GigE/OC-12 path)",
		Series: []*stats.Series{s},
	}
}
