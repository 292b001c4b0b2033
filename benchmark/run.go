package main

import (
	"fmt"
	"runtime"
	"time"
)

// setUps is how many times a run sets its workload up; setup_s is their
// median, so one slow bind or page-fault storm does not decide it.
const setUps = 5

// slices is how many slices the end-to-end window is cut into; the rates
// are medians over them.
const slices = 10

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	firstErr error
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{value, unit}
}

func (r *result) count(attempted, failed int, first error) {
	r.Attempted += attempted
	r.Failed += failed
	if r.firstErr == nil {
		r.firstErr = first
	}
}

// ready sets a workload up once, warm-up included, and times it.
func (w *workload) ready(seed int64, traced bool, res *result) (instance, time.Duration, error) {
	t0 := time.Now()
	inst, err := w.setUp(seed, traced)
	if err != nil {
		return nil, 0, fmt.Errorf("set up %s: %w", w.name, err)
	}
	failed, first := warm(inst, w.warmOps)
	res.count(w.warmOps, failed, first)
	return inst, time.Since(t0), nil
}

// endToEnd is the untraced run: every harness span and program instrument
// off, one timed window, the end-to-end metrics.
func (w *workload) endToEnd(seed int64, window time.Duration) (*result, error) {
	res := newResult()
	var inst instance
	var setups []float64
	for i := 0; i < setUps; i++ {
		if inst != nil {
			inst.close()
			// Collect the discarded instance now, so that the peak
			// resident set does not depend on when the collector would
			// have got round to it.
			runtime.GC()
		}
		var took time.Duration
		var err error
		if inst, took, err = w.ready(seed, false, res); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer inst.close()
	runtime.GC() // every run starts its window from a collected heap

	var t tally
	t.measure(inst, window, window/slices, nil, nil)
	if err := res.fillEndToEnd(&t, setups); err != nil {
		return nil, err
	}
	// Not end-to-end metrics (see README: two cannot hold a bound on this
	// kind of host, the third is always zero), but never out of sight.
	fmt.Printf("# %s: %d operations in %.2fs, fail_pct %.4f %%, waste_pct %.4f %%, cpu_ns_per_byte %.4f ns/B\n",
		w.name, t.attempted, t.elapsed.Seconds(), ratioPct(t.failed, t.attempted), t.wastePct(),
		median(t.sliceCPUNsPerByte()))
	if w.emu != nil {
		// The paper's "% of maximum bandwidth".
		fmt.Printf("# %s: goodput is %.1f%% of the %.1f MB/s link\n", w.name,
			100*t.goodputMBps()/(w.emu.RateBps/8e6), w.emu.RateBps/8e6)
	}
	return res, nil
}

// fillEndToEnd fills in the end-to-end metrics from one timed window and
// the run's set-up times.
func (r *result) fillEndToEnd(t *tally, setups []float64) error {
	r.count(t.attempted, t.failed, t.firstErr)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups), "s")
	r.set("goodput_mbps", median(t.sliceGoodputMBps()), "MB/s")
	r.set("xfer_ms_p50", median(t.ms), "ms")
	r.set("rss_peak_mib", rss, "MiB")
	r.set("alloc_kib_per_op", median(t.sliceAllocKiBPerOp()), "KiB")
	r.Correct = r.Failed == 0
	return nil
}
