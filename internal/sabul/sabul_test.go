package sabul

import (
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/netsim"
)

func path(seed int64, loss float64) *netsim.Path {
	return netsim.BuildPath(seed, netsim.PathSpec{
		Name:  "sabul",
		HostA: netsim.HostConfig{RXBufBytes: 1 << 20},
		HostB: netsim.HostConfig{RXBufBytes: 1 << 20, ProcPerPacket: 5 * time.Microsecond},
		Links: []netsim.LinkConfig{
			{Rate: 100e6, Delay: 13 * time.Millisecond, QueueBytes: 256 << 10},
			{Rate: 2400e6, Delay: 13 * time.Millisecond, QueueBytes: 4 << 20, LossProb: loss},
		},
	})
}

func TestCleanTransferCompletes(t *testing.T) {
	res := Run(path(1, 0), make([]byte, 4<<20), Config{})
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if u := res.Utilization(100e6); u < 0.70 {
		t.Fatalf("clean utilization %.2f, want > 0.70", u)
	}
	if res.Extra["rate_drops"] != 0 {
		t.Fatalf("clean path caused %v rate drops", res.Extra["rate_drops"])
	}
}

func TestLossReducesRate(t *testing.T) {
	res := Run(path(2, 0.02), make([]byte, 4<<20), Config{})
	if !res.Completed {
		t.Fatal("incomplete under 2% loss")
	}
	if res.Extra["rate_drops"] == 0 {
		t.Fatal("loss never triggered a rate decrease — the defining SABUL behaviour")
	}
	if res.Extra["final_rate"] >= 100e6 {
		t.Fatalf("final rate %v not reduced below the initial rate", res.Extra["final_rate"])
	}
}

func TestSABULSlowerThanLossTolerantSenderUnderLoss(t *testing.T) {
	// SABUL interprets random loss as congestion and slows down, so under
	// loss that is NOT congestion it underperforms a greedy sender — the
	// paper's core argument for FOBS.
	lossy := Run(path(3, 0.02), make([]byte, 4<<20), Config{})
	clean := Run(path(3, 0), make([]byte, 4<<20), Config{})
	if !lossy.Completed || !clean.Completed {
		t.Fatal("incomplete")
	}
	if lossy.Goodput() > clean.Goodput()*0.9 {
		t.Fatalf("2%% random loss barely affected SABUL (%.1f vs %.1f Mb/s); rate control inert",
			lossy.Goodput()/1e6, clean.Goodput()/1e6)
	}
}

func TestRateRecovery(t *testing.T) {
	res := Run(path(4, 0.005), make([]byte, 8<<20), Config{})
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Extra["rate_rises"] == 0 {
		t.Fatal("rate never increased on clean intervals")
	}
}

func TestDeterministic(t *testing.T) {
	a := Run(path(5, 0.01), make([]byte, 1<<20), Config{})
	b := Run(path(5, 0.01), make([]byte, 1<<20), Config{})
	if a.Elapsed != b.Elapsed || a.PacketsSent != b.PacketsSent {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
}

func TestHeavyLossCompletes(t *testing.T) {
	res := Run(path(6, 0.20), make([]byte, 256<<10), Config{})
	if !res.Completed {
		t.Fatal("incomplete under 20% loss")
	}
}

func TestMinRateFloor(t *testing.T) {
	res := Run(path(7, 0.40), make([]byte, 128<<10), Config{InitialRate: 2e6})
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Extra["final_rate"] < core.SABULMinRate {
		t.Fatalf("final rate %v fell below the floor", res.Extra["final_rate"])
	}
}

func TestLimit(t *testing.T) {
	res := Run(path(8, 0), make([]byte, 16<<20), Config{Limit: 20 * time.Millisecond})
	if res.Completed {
		t.Fatal("16 MB in 20 ms reported complete")
	}
}
