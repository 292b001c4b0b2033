// Remote visualization: the second workload of the paper's introduction —
// streaming rendered frames of a large scientific dataset from a compute
// site to a display wall. Each frame is one FOBS object; what matters is
// per-frame completion latency and the sustained frame rate.
//
// The example streams a burst of frames over the simulated short-haul path
// and reports per-frame latency percentiles for FOBS and for tuned TCP.
//
//	go run ./examples/remoteviz
package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/experiments"
	"github.com/hpcnet/fobs/internal/stats"
)

const (
	frameBytes = 3 << 20 // one 1280x1024 RGBA frame, roughly
	frames     = 12
)

func percentile(durs []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func stream(name string, transfer func(seed int64) stats.TransferResult) {
	var latencies []time.Duration
	var total time.Duration
	for i := 0; i < frames; i++ {
		res := transfer(int64(i + 1))
		if !res.Completed {
			fmt.Printf("%-8s frame %d did not complete\n", name, i)
			return
		}
		latencies = append(latencies, res.Elapsed)
		total += res.Elapsed
	}
	fps := float64(frames) / total.Seconds()
	fmt.Printf("%-8s  %5.2f fps   p50 %8v   p90 %8v   worst %8v\n",
		name, fps,
		percentile(latencies, 0.5).Round(time.Millisecond),
		percentile(latencies, 0.9).Round(time.Millisecond),
		percentile(latencies, 1.0).Round(time.Millisecond))
}

func main() {
	sc := experiments.ShortHaul()
	fmt.Printf("streaming %d frames of %d MiB over %s (RTT %v, %g Mb/s)\n\n",
		frames, frameBytes>>20, sc.Name, sc.RTT, sc.MaxBandwidth/1e6)

	stream("fobs", func(seed int64) stats.TransferResult {
		return experiments.RunFOBS(sc, seed, frameBytes, core.Config{AckFrequency: 32})
	})
	stream("tcp+lwe", func(seed int64) stats.TransferResult {
		return experiments.RunTCP(sc, seed, frameBytes, true)
	})
	stream("tcp", func(seed int64) stats.TransferResult {
		return experiments.RunTCP(sc, seed, frameBytes, false)
	})

	fmt.Println("\nFor interactive visualization the tail matters: one slow frame is a")
	fmt.Println("visible stutter. FOBS's fixed greedy pipeline keeps the tail tight,")
	fmt.Println("while TCP pays slow-start on every frame-sized burst.")
}
