package simrun

import (
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// TestTwoSendersShareARateCap is the socket runtime's shared cap on the
// virtual clock: two transfers on one path, each its own sender, charge one
// core.RateCap, and together put on the wire what the cap allows — on-the-wire
// bits, payload plus UDP/IP overhead, within 2% of it over a window well past
// the first burst — on a path that would carry two and a half times as much.
// Run twice, the same seed sends the same packets.
func TestTwoSendersShareARateCap(t *testing.T) {
	const (
		limit  = 40e6                   // b/s: the path's bottleneck is 100 Mb/s
		from   = 50 * time.Millisecond  // past the first burst the clocks bank
		window = 400 * time.Millisecond // ≈ 1 900 packets of 210 µs
	)
	run := func() (sent [2]int) {
		p := shortHaulPath(1, 0)
		c, _ := core.NewRateCap(limit)
		var runs [2]*FOBSRun
		for i := range runs {
			runs[i] = NewFOBS(p, makeObj(8<<20), core.Config{Transfer: uint32(1 + i)}, Options{PortBase: PortData + 100*i})
			runs[i].Sender().SetPace(0, c, time.Duration(p.Net.Now()))
			runs[i].Start()
		}
		count := func(at time.Duration) (n [2]int) {
			p.Net.Sim.RunUntil(runs[0].started.Add(at))
			for i, r := range runs {
				if r.Done() {
					t.Fatalf("transfer %d finished inside the measurement", i)
				}
				n[i] = r.Sender().Stats().PacketsSent
			}
			return n
		}
		before, after := count(from), count(from+window)
		for i := range sent {
			sent[i] = after[i] - before[i]
		}
		return sent
	}
	sent := run()
	bits := float64(8 * (core.DefaultPacketSize + wire.UDPIPOverhead))
	rate := float64(sent[0]+sent[1]) * bits / window.Seconds()
	t.Logf("%d + %d packets in %v: %.2f Mb/s on the wire under a %.0f Mb/s cap (%.2f%%)",
		sent[0], sent[1], window, rate/1e6, limit/1e6, 100*rate/limit)
	if rate < limit*0.98 || rate > limit*1.02 {
		t.Fatalf("aggregate %.2f Mb/s, want within 2%% of the %.0f Mb/s cap", rate/1e6, limit/1e6)
	}
	if again := run(); again != sent {
		t.Fatalf("a second run sent %v, the first %v: the simulation is not deterministic", again, sent)
	}
}
