// Grid bulk-data movement: the workload the paper's introduction motivates
// — moving large scientific datasets between grid sites — played out on the
// simulated long-haul path (65 ms RTT, 100 Mb/s bottleneck).
//
// The example ships a three-file dataset with FOBS, with a single tuned
// TCP stream, and with PSockets-style striping, and prints the comparison
// a gridftp operator would care about.
//
//	go run ./examples/gridftp
package main

import (
	"fmt"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/experiments"
	"github.com/hpcnet/fobs/internal/stats"
)

func main() {
	// A synthetic dataset: checkpoint, mesh, results.
	files := []struct {
		name string
		size int64
	}{
		{"checkpoint.h5", 40 << 20},
		{"mesh.vtk", 24 << 20},
		{"results.nc", 16 << 20},
	}
	// A quiet measurement window, as in the paper's FOBS experiments;
	// drop the Quiet wrapper to see behaviour under bursty contention.
	sc := experiments.Quiet(experiments.LongHaul())
	fmt.Printf("site-to-site dataset transfer over %s (RTT %v, %g Mb/s path)\n\n",
		sc.Name, sc.RTT, sc.MaxBandwidth/1e6)

	type row struct {
		proto   string
		elapsed time.Duration
		sent    int
		needed  int
	}
	var rows []row

	run := func(proto string, transfer func(size int64, seed int64) stats.TransferResult) {
		var total time.Duration
		sent, needed := 0, 0
		for i, f := range files {
			res := transfer(f.size, int64(i+1))
			if !res.Completed {
				fmt.Printf("  %s: %s DID NOT COMPLETE\n", proto, f.name)
				return
			}
			total += res.Elapsed
			sent += res.PacketsSent
			needed += res.PacketsNeeded
		}
		rows = append(rows, row{proto, total, sent, needed})
	}

	run("fobs", func(size, seed int64) stats.TransferResult {
		return experiments.RunFOBS(sc, seed, size, core.Config{})
	})
	run("tcp+lwe", func(size, seed int64) stats.TransferResult {
		return experiments.RunTCP(sc, seed, size, true)
	})
	run("tcp", func(size, seed int64) stats.TransferResult {
		return experiments.RunTCP(sc, seed, size, false)
	})

	totalBytes := int64(0)
	for _, f := range files {
		totalBytes += f.size
	}
	fmt.Printf("%-10s  %12s  %10s  %8s\n", "protocol", "dataset time", "goodput", "overhead")
	fmt.Printf("%-10s  %12s  %10s  %8s\n", "--------", "------------", "-------", "--------")
	for _, r := range rows {
		goodput := float64(totalBytes*8) / r.elapsed.Seconds() / 1e6
		overhead := 100 * float64(r.sent-r.needed) / float64(r.needed)
		fmt.Printf("%-10s  %12v  %7.1f Mb/s  %7.1f%%\n",
			r.proto, r.elapsed.Round(time.Millisecond), goodput, overhead)
	}
	fmt.Println("\nFOBS keeps the long-haul pipe full where a single TCP stream cannot:")
	fmt.Println("ambient wide-area loss barely dents the greedy sender but repeatedly")
	fmt.Println("halves TCP's window. The overhead column is the price FOBS pays in")
	fmt.Println("retransmitted packets (paper: ~3% in its quietest windows).")
}
