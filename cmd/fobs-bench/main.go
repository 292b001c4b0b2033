// Command fobs-bench regenerates every table and figure of the paper's
// evaluation on the simulated testbed and prints them in the paper's
// layout.
//
// Usage:
//
//	fobs-bench -all                 # everything (several minutes)
//	fobs-bench -fig 1 -fig 2        # just the ack-frequency figures
//	fobs-bench -table 1             # just the TCP table
//	fobs-bench -ablation -related -ext
//	fobs-bench -size 8388608        # smaller object for a quick pass
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/hpcnet/fobs/internal/experiments"
	"github.com/hpcnet/fobs/internal/stats"
)

type intList []int

func (l *intList) String() string { return fmt.Sprint(*l) }
func (l *intList) Set(s string) error {
	var v int
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	var figs, tables intList
	var (
		all      = flag.Bool("all", false, "run every experiment")
		ablation = flag.Bool("ablation", false, "run the §3.1 ablations (batch size, schedule, TCP variants)")
		related  = flag.Bool("related", false, "run the §2 related-work comparison (RUDP, SABUL)")
		ext      = flag.Bool("ext", false, "run the §7 congestion-extension comparison")
		sharing  = flag.Bool("sharing", false, "run the fairness and queue-management studies")
		size     = flag.Int64("size", experiments.ObjectSize, "object size in bytes (paper: 40 MiB)")
		csvDir   = flag.String("csv", "", "also write figure data as CSV files into this directory")
	)
	flag.Var(&figs, "fig", "figure to regenerate (1, 2 or 3); repeatable")
	flag.Var(&tables, "table", "table to regenerate (1 or 2); repeatable")
	flag.Parse()

	want := map[string]bool{}
	for _, f := range figs {
		want[fmt.Sprintf("fig%d", f)] = true
	}
	for _, t := range tables {
		want[fmt.Sprintf("table%d", t)] = true
	}
	if *ablation {
		want["ablation"] = true
	}
	if *related {
		want["related"] = true
	}
	if *ext {
		want["ext"] = true
	}
	if *sharing {
		want["sharing"] = true
	}
	if *all || len(want) == 0 {
		for _, k := range []string{"fig1", "fig2", "fig3", "table1", "table2", "ablation", "related", "ext", "sharing"} {
			want[k] = true
		}
	}

	timed := func(name string, fn func()) {
		start := time.Now()
		fn()
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	writeCSV := func(name string, fig *stats.Figure) {
		if *csvDir == "" {
			return
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
			fmt.Printf("csv: %v\n", err)
			return
		}
		fmt.Printf("wrote %s\n", path)
	}

	if want["fig1"] || want["fig2"] {
		var pts []experiments.AckSweepPoint
		timed("ack-frequency sweep", func() {
			pts = experiments.AckFrequencySweep(*size, experiments.DefaultAckFrequencies)
		})
		if want["fig1"] {
			fig := experiments.Figure1(pts)
			fmt.Println(fig.Render())
			fmt.Println("paper: approximately 90% of the available bandwidth on both connections")
			fmt.Println()
			writeCSV("figure1.csv", fig)
		}
		if want["fig2"] {
			fig := experiments.Figure2(pts)
			fmt.Println(fig.Render())
			fmt.Println("paper: approximately 3% of the total data transferred")
			fmt.Println()
			writeCSV("figure2.csv", fig)
		}
	}
	if want["fig3"] {
		timed("packet-size sweep (Figure 3)", func() {
			pts := experiments.PacketSizeSweep(*size, experiments.DefaultPacketSizes)
			fig := experiments.Figure3(pts)
			fmt.Println(fig.Render())
			fmt.Println("paper: performance peaked at approximately 52% of the maximum (622 Mb/s)")
			writeCSV("figure3.csv", fig)
		})
	}
	if want["table1"] {
		timed("Table 1 (TCP ± LWE)", func() {
			fmt.Println(experiments.Table1(*size).Render())
		})
	}
	if want["table2"] {
		timed("Table 2 (FOBS vs PSockets)", func() {
			res := experiments.Table2(*size)
			fmt.Println(res.Render())
			fmt.Println("PSockets probe phase:")
			for _, pr := range res.Probes {
				fmt.Printf("  %2d streams: %6.1f Mb/s\n", pr.Streams, pr.Goodput/1e6)
			}
		})
	}
	if want["ablation"] {
		timed("ablations (§3.1 + substrate)", func() {
			fmt.Println(experiments.RenderBatchSweep(experiments.BatchSweep(*size, experiments.DefaultBatchSizes)))
			fmt.Println(experiments.RenderScheduleSweep(experiments.ScheduleSweep(*size)))
			fmt.Println(experiments.RenderTCPVariants(experiments.TCPVariants(*size)))
		})
	}
	if want["related"] {
		timed("related work (§2)", func() {
			sc := experiments.Lossy(experiments.LongHaul(), 0.01)
			r := experiments.RelatedWork(*size, sc)
			fmt.Println(r.Render(sc.MaxBandwidth))
			fmt.Println("(1% ambient loss: SABUL reads it as congestion and collapses;")
			fmt.Println(" RUDP stays close on huge objects but FOBS repairs in-flight)")
		})
	}
	if want["ext"] {
		timed("extensions (§7)", func() {
			e := experiments.Extensions(*size)
			fmt.Println(e.Render(experiments.LongHaul().MaxBandwidth))
		})
	}
	if want["sharing"] {
		timed("sharing studies", func() {
			for _, n := range []int{2, 4} {
				fmt.Println(experiments.Fairness(*size, n).Render(experiments.LongHaul().MaxBandwidth))
			}
			fmt.Println(experiments.REDResponse(*size).Render(100e6))
			fmt.Println(experiments.QoSReservation(*size).Render())
			fmt.Println(experiments.RenderStripingSweep(
				experiments.StripingSweep(*size, []int{1, 2, 4, 8}), experiments.LongHaul().MaxBandwidth))
			fmt.Println(experiments.Incast(*size/4, 4).Render(100e6))
		})
	}
}
