package udprt

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
)

// TestStripesNeverShareAController: every stripe of a striped Send plans its
// rounds under a controller of its own, whatever the policy. Run under the
// race detector this is the regression test for the defect the one selector
// removed: core.Config used to carry a controller instance (Config.Rate) and
// newSenderPlan copied the Config, pointer and all, into every stripe, so
// Send(…, core.Config{Rate: &core.Backoff{}}, Options{Streams: 4}) had one
// stripe's HandleAck writing the gap another stripe's round planning read.
// There is no instance to hand over any more — a name, and a fresh
// controller per stripe out of the table.
func TestStripesNeverShareAController(t *testing.T) {
	for _, name := range CongestionPolicies() {
		t.Run(name, func(t *testing.T) {
			var built []core.Controller // appended to by Send's own goroutine
			push(t, makeObj(1<<20+3), core.Config{AckFrequency: 16}, Options{
				Congestion: name, Streams: 4,
				testController: func(cc core.Controller) { built = append(built, cc) },
			}, Options{})
			if len(built) != 4 {
				t.Fatalf("%d controllers built for 4 stripes", len(built))
			}
			for i, cc := range built {
				if _, stateless := cc.(core.Greedy); stateless {
					continue // nothing to share
				}
				for _, other := range built[:i] {
					if cc == other {
						t.Fatalf("stripe %d plans under another stripe's %T", i, cc)
					}
				}
			}
		})
	}
}

// TestRetriedSendStartsFromAFreshController: a supervised Send whose first
// attempt is severed half way redials with a controller in its initial
// state, not the one the dead attempt trained — rate state is path state,
// and the path may have changed across the outage.
func TestRetriedSendStartsFromAFreshController(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	ep := listen(t, byAccept, Options{IdleTimeout: 2 * time.Second})
	proxy := ep.front(nil)
	obj := makeObj(512 << 10)
	ep.recvUntilSuccess()

	// Each controller as it is built, with the window the ones before it
	// stand at by then.
	type built struct {
		cc      *core.AIMD
		window  float64
		earlier []float64
	}
	var attempts []built
	var cut atomic.Bool
	_, serr := Send(ep.ctx, proxy.Addr(), obj, core.Config{AckFrequency: 16}, Options{
		Congestion:   CCAIMD,
		StallTimeout: 2 * time.Second,
		Pace:         killPointPace,
		Retry:        &RetryPolicy{MaxRetries: 4, Backoff: 250 * time.Millisecond, Seed: 5},
		Progress: func(done, total int) {
			if done > total/2 && cut.CompareAndSwap(false, true) {
				proxy.SetBlackhole(true)
				proxy.SeverControl()
				time.AfterFunc(100*time.Millisecond, func() { proxy.SetBlackhole(false) })
			}
		},
		testController: func(cc core.Controller) {
			b := built{cc: cc.(*core.AIMD)}
			b.window = b.cc.Window()
			for _, a := range attempts {
				b.earlier = append(b.earlier, a.cc.Window())
			}
			attempts = append(attempts, b)
		},
	})
	if serr != nil {
		t.Fatalf("send: %v", serr)
	}
	if !cut.Load() {
		t.Fatal("transfer finished before the kill point; enlarge the object")
	}
	ep.delivered(obj)
	if len(attempts) < 2 {
		t.Fatalf("%d controllers built; the severed attempt was not retried", len(attempts))
	}
	first, last := attempts[0], attempts[len(attempts)-1]
	if last.cc == first.cc {
		t.Fatal("the retry plans under the severed attempt's controller")
	}
	if last.window != first.window {
		t.Fatalf("the retry's controller started at window %.1f, a new one starts at %.1f", last.window, first.window)
	}
	if last.earlier[0] == first.window {
		t.Fatalf("the severed attempt never moved its window from %.1f: the test shows nothing", first.window)
	}
}
