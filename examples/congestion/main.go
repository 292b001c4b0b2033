// Congestion-control extensions: the paper's §7 proposes two ways to make
// FOBS a good citizen once networks stop being empty — reduce greediness
// under sustained congestion, or hand off to a TCP-friendly rate and snap
// back when the congestion clears.
//
// This example runs the greedy protocol and both extensions over a heavily
// contended long-haul path and prints the throughput/waste trade-off.
//
//	go run ./examples/congestion
package main

import (
	"fmt"

	"github.com/hpcnet/fobs/internal/experiments"
	"github.com/hpcnet/fobs/internal/stats"
)

func main() {
	sc := experiments.LongHaul()
	fmt.Printf("40 MiB transfers over a heavily contended %s path\n\n", sc.Name)

	e := experiments.Extensions(experiments.ObjectSize)

	fmt.Printf("%-14s  %10s  %9s  %9s\n", "mode", "goodput", "% of max", "waste")
	fmt.Printf("%-14s  %10s  %9s  %9s\n", "----", "-------", "--------", "-----")
	for _, res := range []stats.TransferResult{e.Greedy, e.Backoff, e.Hybrid} {
		status := ""
		if !res.Completed {
			status = "  (incomplete)"
		}
		fmt.Printf("%-14s  %7.1f Mb/s  %8.1f%%  %8.1f%%%s\n",
			res.Protocol, res.Goodput()/1e6,
			100*res.Utilization(sc.MaxBandwidth), 100*res.Waste(), status)
	}

	fmt.Println("\nGreedy maximizes its own throughput and pays in retransmissions;")
	fmt.Println("Backoff and Hybrid give up some bandwidth to shrink the footprint —")
	fmt.Println("exactly the dial the paper sketches as future work.")
}
