package simrun

import (
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
)

// fixedGap is a test controller: every round the batch policy's ask, every
// packet a fixed pacing gap.
type fixedGap time.Duration

func (fixedGap) OnAck(core.AckEvent)   {}
func (fixedGap) OnLoss(core.LossEvent) {}
func (fixedGap) OnRTT(time.Duration)   {}
func (fixedGap) Name() string          { return "fixed-gap" }
func (g fixedGap) Tick(max int) core.Directive {
	return core.Directive{Batch: max, Gap: time.Duration(g)}
}

// TestSimulatorRunsTheSocketsPacer: a sender asking for a fixed gap per
// packet on an uncongested path puts packets on the wire at one per gap,
// within the pacing clock's one-burst allowance — the rate the socket
// runtime's pacer gives. A driver that waited the gap on top of the NIC's
// serialisation time, like a blocking send followed by a sleep, would send at
// one per gap plus 85 µs here: 30% slower.
func TestSimulatorRunsTheSocketsPacer(t *testing.T) {
	const (
		gap    = 200 * time.Microsecond // a 1 KiB packet takes 85 µs at 100 Mb/s
		from   = 50 * time.Millisecond  // past the first burst the clock banks
		window = 200 * time.Millisecond
	)
	r := NewFOBS(shortHaulPath(1, 0), makeObj(8<<20), core.Config{}, Options{})
	r.Sender().SetController(fixedGap(gap))
	r.Start()
	sent := func(at time.Duration) int {
		r.path.Net.Sim.RunUntil(r.started.Add(at))
		return r.Sender().Stats().PacketsSent
	}
	before := sent(from)
	n := sent(from+window) - before
	want := int(window / gap)
	allowance := int(core.PaceBurst/gap) + core.DefaultBatch
	t.Logf("%d packets in %v at a %v gap: want %d ± %d", n, window, gap, want, allowance)
	if n < want-allowance || n > want+allowance {
		t.Fatalf("%d packets reached the wire in %v, want %d ± %d: one per %v", n, window, want, allowance, gap)
	}
	if r.Done() {
		t.Fatal("the transfer finished inside the measurement")
	}
}
