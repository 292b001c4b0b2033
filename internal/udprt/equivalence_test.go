package udprt

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/stats"
)

// eachIOPath runs fn once per socket path: the vectored fast path (when
// this build has one) and the forced-scalar fallback. Everything
// protocol-visible must behave identically on both.
func eachIOPath(t *testing.T, fn func(t *testing.T, noFastPath bool)) {
	t.Run("fast", func(t *testing.T) {
		if !FastPathAvailable() {
			t.Skip("vectored fast path not available in this build")
		}
		fn(t, false)
	})
	t.Run("scalar", func(t *testing.T) { fn(t, true) })
}

// TestPathEquivalenceUnderImpairments is the equivalence property suite:
// the batched and scalar paths must deliver byte-identical objects through
// the same seeded fault policies. Equivalence here is protocol-level — on
// real sockets the exact packet interleaving is up to the kernel, so what
// both paths must agree on is the outcome: completion, integrity (the
// digest inside the COMPLETE frame), and retransmission behaviour sane for
// the impairment.
func TestPathEquivalenceUnderImpairments(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	policies := []struct {
		name   string
		policy *faultnet.Faults
	}{
		{"clean", nil},
		{"drop", faultnet.New(faultnet.Policy{Seed: 7, Drop: 0.10})},
		{"dup+reorder", faultnet.New(faultnet.Policy{Seed: 7, Dup: 0.06, Reorder: 0.08})},
		{"everything", faultnet.New(faultnet.Policy{
			Seed: 7, Drop: 0.08, Dup: 0.03, Reorder: 0.03,
			Delay: 0.03, DelayBy: time.Millisecond,
		})},
	}
	obj := makeObj(384<<10 + 7)
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			eachIOPath(t, func(t *testing.T, noFastPath bool) {
				opts := Options{
					Pace:       2 * time.Microsecond,
					NoFastPath: noFastPath,
				}
				ep := listen(t, byAccept, opts)
				proxy := ep.front(tc.policy)
				sst := ep.pushOK(obj, core.Config{}, opts).sst
				if tc.policy != nil {
					if st := proxy.Stats(); st.Dropped+st.Duplicated+st.Reordered+st.Delayed == 0 {
						t.Fatalf("faults never fired: %+v", st)
					}
				}
				if sst.PacketsSent < sst.PacketsNeeded {
					t.Fatalf("impossible stats: sent %d < needed %d",
						sst.PacketsSent, sst.PacketsNeeded)
				}
			})
		})
	}
}

// TestFaultScenariosBothPaths re-runs the failure model's key sender-side
// scenarios pinned to each socket path: the stall watchdog (receiver
// handshakes, swallows data, never acknowledges) and persistent-write-error
// surfacing (no UDP socket at all behind the port). The default-path
// originals live in fault_test.go; these make the path a test axis.
func TestFaultScenariosBothPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	t.Run("stall", func(t *testing.T) {
		eachIOPath(t, func(t *testing.T, noFastPath bool) {
			fake := newFakeReceiver(t, true)
			go fake.acceptHandshake()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			const stall = 400 * time.Millisecond
			sst, err := Send(ctx, fake.addr(), makeObj(64<<10), core.Config{},
				Options{StallTimeout: stall, Pace: 20 * time.Microsecond, NoFastPath: noFastPath})
			if !errors.Is(err, ErrStalled) {
				t.Fatalf("err = %v, want ErrStalled", err)
			}
			if sst.Stalls != 1 {
				t.Fatalf("stats.Stalls = %d, want 1", sst.Stalls)
			}
		})
	})
	t.Run("write-error", func(t *testing.T) {
		eachIOPath(t, func(t *testing.T, noFastPath bool) {
			fake := newFakeReceiver(t, false) // no UDP socket: data writes refused
			go fake.acceptHandshake()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			start := time.Now()
			_, err := Send(ctx, fake.addr(), makeObj(256<<10), core.Config{},
				Options{StallTimeout: 5 * time.Minute, NoFastPath: noFastPath})
			if err == nil {
				t.Fatal("send against a closed data port succeeded")
			}
			if errors.Is(err, ErrStalled) || errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("write error reached a watchdog instead of surfacing: %v", err)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("took %v to surface a persistent write error", elapsed)
			}
		})
	})
}

// TestBatchPolicyReachesWire asserts that the batch sizes the policy
// chooses arrive at the socket layer as actual flush vector lengths,
// chunked at the ring length — including the partial final vector of an
// over-ring batch and the degenerate single-packet object.
func TestBatchPolicyReachesWire(t *testing.T) {
	cases := []struct {
		name       string
		batch      core.BatchPolicy
		ioBatch    int
		objBytes   int
		wantPrefix []int // deterministic first-round flush sizes
		maxVector  int   // no flush may exceed this
	}{
		// Policy batch fits inside one vector: flushes of exactly 8.
		{"fixed8", core.FixedBatch(8), 16, 96 << 10, []int{8, 8}, 8},
		// Policy batch larger than ioBatch: chunked 32 then a partial
		// final vector of 16.
		{"fixed48-chunked", core.FixedBatch(48), 32, 96 << 10, []int{32, 16, 32, 16}, 32},
		// Policy batch below the default vector size.
		{"fixed5", core.FixedBatch(5), 32, 64 << 10, []int{5, 5}, 5},
		// Single-packet object: the circular schedule refills the batch
		// with retransmissions of the lone packet until the ack lands.
		{"single-packet", core.FixedBatch(4), 8, 100, []int{4}, 4},
		// Adaptive: the first batch is Min (no delivery observed yet);
		// later ones track the ack delta but never exceed Max.
		{"adaptive", core.AdaptiveBatch{Min: 2, Max: 16}, 32, 96 << 10, []int{2}, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachIOPath(t, func(t *testing.T, noFastPath bool) {
				var flushes []int
				opts := Options{
					ioBatch:    tc.ioBatch,
					NoFastPath: noFastPath,
					Pace:       2 * time.Microsecond,
				}
				opts.testFlushHook = func(k, m int) { flushes = append(flushes, k) }
				obj := makeObj(tc.objBytes)
				cfg := core.Config{PacketSize: 1024, Batch: tc.batch}
				push(t, obj, cfg, opts, opts)
				if len(flushes) < len(tc.wantPrefix) {
					t.Fatalf("only %d flushes recorded, want at least %d: %v",
						len(flushes), len(tc.wantPrefix), flushes)
				}
				for i, want := range tc.wantPrefix {
					if flushes[i] != want {
						t.Fatalf("flush %d = %d, want %d (flushes %v)",
							i, flushes[i], want, flushes[:len(tc.wantPrefix)])
					}
				}
				for i, k := range flushes {
					if k > tc.maxVector || k > tc.ioBatch {
						t.Fatalf("flush %d = %d exceeds max vector %d / ring %d",
							i, k, tc.maxVector, tc.ioBatch)
					}
				}
			})
		})
	}
}

// TestIOCountersReported checks Options.IOCounters is filled on both
// endpoints and reflects the engaged path.
func TestIOCountersReported(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		var sio, rio stats.IOCounters
		push(t, makeObj(128<<10), core.Config{}, Options{NoFastPath: noFastPath, IOCounters: &sio},
			Options{NoFastPath: noFastPath, IOCounters: &rio})
		wantFast := !noFastPath && FastPathAvailable()
		if sio.FastPath != wantFast || rio.FastPath != wantFast {
			t.Fatalf("FastPath flags = %v/%v, want %v", sio.FastPath, rio.FastPath, wantFast)
		}
		if sio.SentDatagrams == 0 || sio.SendCalls == 0 {
			t.Fatalf("sender counters empty: %+v", sio)
		}
		if rio.RecvDatagrams == 0 || rio.RecvCalls == 0 {
			t.Fatalf("receiver counters empty: %+v", rio)
		}
		if wantFast && sio.SentDatagrams > 64 && sio.AvgSendBatch() <= 1.0 {
			t.Fatalf("fast path never batched: %+v", sio)
		}
	})
}
