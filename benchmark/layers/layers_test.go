package layers

import (
	"math/rand"
	"testing"

	"github.com/hpcnet/fobs/internal/core"
)

func coreConfig() core.Config     { return core.Config{PacketSize: packetSize, Transfer: 7} }
func newDrops(s int64) *rand.Rand { return rand.New(rand.NewSource(s)) }

// TestRunReportsEveryName runs the ledger at a reduced scale and checks it
// reports exactly the metrics it promises, each a usable number.
func TestRunReportsEveryName(t *testing.T) {
	got, err := Run(t.TempDir(), 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(Names) {
		t.Fatalf("Run reported %d metrics, Names lists %d", len(got), len(Names))
	}
	for i, m := range got {
		if m.Name != Names[i] {
			t.Errorf("metric %d is %q, Names says %q", i, m.Name, Names[i])
		}
		if m.Value != m.Value || m.Value < 0 {
			t.Errorf("%s = %v", m.Name, m.Value)
		}
		t.Logf("%-32s %12.3f %s", m.Name, m.Value, m.Unit)
	}
}

// TestExchangeWasteIsExact pins the property core.sched_waste_pct rests
// on: the socketless exchange is a pure function of its seed.
func TestExchangeWasteIsExact(t *testing.T) {
	obj := make([]byte, 256<<10)
	cfg := coreConfig()
	a, needed := exchange(obj, cfg, newDrops(3))
	b, _ := exchange(obj, cfg, newDrops(3))
	if a != b {
		t.Fatalf("same seed sent %d then %d packets", a, b)
	}
	if a <= needed {
		t.Fatalf("3%% loss cost nothing: sent %d of %d needed", a, needed)
	}
	if clean, _ := exchange(obj, cfg, nil); clean < needed {
		t.Fatalf("lossless exchange sent %d of %d needed", clean, needed)
	}
}
