package experiments_test

import (
	"fmt"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/experiments"
)

// The zero Config reproduces the paper's tuned protocol: 1024-byte
// packets, batch-send of two, circular retransmission, greedy pacing.
func ExampleRunFOBS() {
	res := experiments.RunFOBS(experiments.Quiet(experiments.ShortHaul()), 1, 8<<20, core.Config{})
	fmt.Printf("completed: %v\n", res.Completed)
	fmt.Printf("utilization above 80%%: %v\n", res.Utilization(100e6) > 0.80)
	fmt.Printf("waste below 10%%: %v\n", res.Waste() < 0.10)
	// Output:
	// completed: true
	// utilization above 80%: true
	// waste below 10%: true
}

// TCP with and without the Large Window extensions on the 65 ms path —
// the contrast of the paper's Table 1.
func ExampleRunTCP() {
	withLWE := experiments.RunTCP(experiments.LongHaul(), 1, 4<<20, true)
	without := experiments.RunTCP(experiments.LongHaul(), 1, 4<<20, false)
	fmt.Printf("LWE is faster: %v\n", withLWE.Goodput() > without.Goodput())
	fmt.Printf("without LWE under 12%%: %v\n", without.Utilization(100e6) < 0.12)
	// Output:
	// LWE is faster: true
	// without LWE under 12%: true
}

// Sweeping the acknowledgement frequency reproduces the shape of the
// paper's Figures 1 and 2: frequent acks stall the receiver.
func ExampleAckFrequencySweep() {
	pts := experiments.AckFrequencySweep(4<<20, []int{1, 64})
	fmt.Printf("F=1 slower than F=64: %v\n",
		pts[0].Short.Goodput() < pts[1].Short.Goodput())
	fmt.Printf("F=1 wastes more than F=64: %v\n",
		pts[0].Short.Waste() > pts[1].Short.Waste())
	// Output:
	// F=1 slower than F=64: true
	// F=1 wastes more than F=64: true
}
