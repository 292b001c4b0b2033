// Command fobs-sim runs one simulated bulk transfer on a paper scenario
// with any of the implemented protocols and prints its statistics.
//
// Usage:
//
//	fobs-sim -scenario long -proto fobs -size 41943040 -ack-freq 64
//	fobs-sim -scenario long -proto tcp+lwe
//	fobs-sim -scenario contended -proto psockets -streams 12
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/hpcnet/fobs"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/event"
	"github.com/hpcnet/fobs/internal/experiments"
	"github.com/hpcnet/fobs/internal/psockets"
	"github.com/hpcnet/fobs/internal/rudp"
	"github.com/hpcnet/fobs/internal/sabul"
	"github.com/hpcnet/fobs/internal/simrun"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/tcpsim"
)

// tracedTCP mirrors experiments.RunTCP but with congestion-window tracing.
func tracedTCP(sc fobs.Scenario, seed, size int64, lwe bool) (stats.TransferResult, []string) {
	p := sc.Build(seed)
	cfg := tcpsim.Config{LargeWindows: lwe}
	if lwe {
		cfg.RecvBuf = 512 << 10
		cfg.SACK = true
	}
	f := tcpsim.NewFlow(p.Net, p.A, 7500, p.B, 7501, size, cfg)
	f.TraceCwnd(20 * time.Millisecond)
	f.Start()
	deadline := event.Time(30 * time.Minute)
	for !f.Done() && p.Net.Sim.Now() < deadline && p.Net.Sim.Pending() > 0 {
		p.Net.Sim.RunUntil(deadline)
	}
	st := f.Stats()
	res := stats.TransferResult{
		Protocol:  "tcp",
		Bytes:     size,
		Elapsed:   st.Duration(),
		Completed: f.Done(),
	}
	if lwe {
		res.Protocol = "tcp+lwe"
	}
	return res, []string{f.CwndTrace().Render(60)}
}

func scenario(name string) (fobs.Scenario, error) {
	switch name {
	case "short":
		return fobs.ShortHaul(), nil
	case "long":
		return fobs.LongHaul(), nil
	case "gigabit":
		return fobs.Gigabit(), nil
	case "contended":
		return fobs.Contended(), nil
	default:
		return fobs.Scenario{}, fmt.Errorf("unknown scenario %q (short|long|gigabit|contended)", name)
	}
}

func main() {
	var (
		scName     = flag.String("scenario", "long", "short | long | gigabit | contended")
		proto      = flag.String("proto", "fobs", "fobs | tcp | tcp+lwe | psockets | rudp | sabul")
		size       = flag.Int64("size", fobs.ObjectSize, "object size in bytes")
		seed       = flag.Int64("seed", 1, "simulation seed")
		ackFreq    = flag.Int("ack-freq", fobs.DefaultAckFrequency, "FOBS ack frequency")
		packetSize = flag.Int("packet-size", fobs.PacketSize, "FOBS/RUDP/SABUL packet size")
		batch      = flag.Int("batch", fobs.DefaultBatch, "FOBS batch-send size")
		streams    = flag.Int("streams", 8, "PSockets stream count")
		rate       = flag.String("rate", "greedy", "FOBS rate controller: greedy or one of "+strings.Join(core.Policies(), ", "))
		doTrace    = flag.Bool("trace", false, "sample rates/cwnd over time and print sparklines (fobs and tcp protocols)")
	)
	flag.Parse()

	sc, err := scenario(*scName)
	if err != nil {
		log.Fatalf("fobs-sim: %v", err)
	}

	var traceOut []string
	var res stats.TransferResult
	switch *proto {
	case "fobs":
		cc, err := core.NewController(*rate, *packetSize)
		if err != nil {
			log.Fatalf("fobs-sim: -rate: %v", err)
		}
		cfg := core.Config{
			AckFrequency: *ackFreq,
			PacketSize:   *packetSize,
			Batch:        core.FixedBatch(*batch),
			Discard:      true,
		}
		opts := simrun.Options{AckBuildTime: 300 * time.Microsecond}
		if *doTrace {
			opts.SampleEvery = 20 * time.Millisecond
		}
		run := simrun.NewFOBS(sc.Build(*seed), make([]byte, *size), cfg, opts)
		run.Sender().SetController(cc)
		res = run.Run()
		if *doTrace {
			goodput, sendRate := run.Trace()
			traceOut = append(traceOut, goodput.Render(60), sendRate.Render(60))
		}
	case "tcp", "tcp+lwe":
		lwe := *proto == "tcp+lwe"
		if *doTrace {
			res, traceOut = tracedTCP(sc, *seed, *size, lwe)
		} else {
			res = experiments.RunTCP(sc, *seed, *size, lwe)
		}
	case "psockets":
		res = psockets.Run(sc.Build(*seed), *size, psockets.Config{
			Streams: *streams, TCP: tcpsim.Config{SACK: true},
		})
	case "rudp":
		res = rudp.Run(sc.Build(*seed), make([]byte, *size), rudp.Config{PacketSize: *packetSize})
	case "sabul":
		res = sabul.Run(sc.Build(*seed), make([]byte, *size), sabul.Config{
			PacketSize: *packetSize, InitialRate: sc.MaxBandwidth,
		})
	default:
		log.Fatalf("fobs-sim: unknown protocol %q", *proto)
	}

	fmt.Printf("scenario: %s (RTT %v, max %g Mb/s)\n", sc.Name, sc.RTT, sc.MaxBandwidth/1e6)
	fmt.Println(res)
	fmt.Printf("utilization: %.1f%% of the maximum available bandwidth\n",
		100*res.Utilization(sc.MaxBandwidth))
	for _, line := range traceOut {
		fmt.Println(line)
	}
	if !res.Completed {
		fmt.Println("WARNING: transfer did not complete within the simulation limit")
	}
	for k, v := range res.Extra {
		fmt.Printf("  %s: %g\n", k, v)
	}
}
