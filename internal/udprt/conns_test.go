// Control connections kept between transfers: one per peer, not one per
// object. A sender keeps the connection of a successful exchange for the next
// Send to the same address; an endpoint serves a connection until its sender
// closes it. Every count of connections here is taken at a faultnet proxy in
// front of the endpoint: what the endpoint saw dialled.
package udprt

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/wire"
)

// keptFor counts the idle control connections kept for addr.
func keptFor(addr string) int {
	idleControl.mu.Lock()
	defer idleControl.mu.Unlock()
	return len(idleControl.idle[addr])
}

// endpointGoroutines counts the goroutines running an endpoint's loops or
// connection servers, or a connection's reader.
func endpointGoroutines() int {
	n := 0
	for _, g := range stacks() {
		for _, fn := range []string{"udprt.(*Listener).acceptLoop", "udprt.(*Listener).serveConn",
			"udprt.(*Listener).loop", "udprt.(*ctlReader).run"} {
			if bytes.Contains(g, []byte(fn+"(")) {
				n++
				break
			}
		}
	}
	return n
}

// TestKeptConnServesConsecutiveSends: consecutive Sends to an endpoint
// share one control connection, whichever adapter takes their transfers.
func TestKeptConnServesConsecutiveSends(t *testing.T) {
	for _, kind := range []string{byAccept, byServe} {
		t.Run(kind, func(t *testing.T) {
			ep := listen(t, kind, Options{})
			proxy := ep.front(nil)
			for i := range 3 {
				ep.pushOK(makeObj(64<<10+i), core.Config{Transfer: uint32(i + 1)}, Options{})
			}
			if n := proxy.Accepted(); n != 1 {
				t.Fatalf("three Sends dialled %d control connections, want 1", n)
			}
			if n := keptFor(ep.addr()); n != 1 {
				t.Fatalf("%d connections kept after the Sends, want 1", n)
			}
			ep.wantFrames(true, "HAVE(0)", "COMPLETE", "HAVE(0)", "COMPLETE", "HAVE(0)", "COMPLETE")
		})
	}
}

// TestKeptConnQuietClosedSilently: an endpoint closes a connection that has
// served a transfer and then carried nothing for announceWait without a
// word — its sender has no transfer there to refuse — and the next Send,
// finding the connection closed, dials once more and succeeds.
func TestKeptConnQuietClosedSilently(t *testing.T) {
	defer func(w time.Duration) { announceWait = w }(announceWait)
	announceWait = 100 * time.Millisecond
	ep := listen(t, byServe, Options{})
	defer ep.close() // before announceWait is restored: no connection server is left to read it
	proxy := ep.front(nil)
	ep.pushOK(makeObj(64<<10), core.Config{Transfer: 1}, Options{})

	c := idleControl.take(ep.addr())
	if c == nil {
		t.Fatal("the successful Send kept no connection")
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := c.Read(make([]byte, 64)); n != 0 || err != io.EOF {
		t.Fatalf("the quiet connection read %d bytes, %v; want EOF and nothing", n, err)
	}
	c.SetReadDeadline(time.Time{})
	idleControl.put(ep.addr(), c)

	ep.pushOK(makeObj(64<<10+1), core.Config{Transfer: 2}, Options{})
	if n := proxy.Accepted(); n != 2 {
		t.Fatalf("%d control connections, want 2: the kept one and one redial", n)
	}
	ep.wantFrames(true, "HAVE(0)", "COMPLETE", "HAVE(0)", "COMPLETE")
}

// TestKeptConnStaleRedialledOnce: a kept connection to a Listener that was
// closed and bound again on the same address costs the next Send exactly one
// more dial.
func TestKeptConnStaleRedialledOnce(t *testing.T) {
	first := listen(t, byAccept, Options{})
	addr := first.l.Addr()
	proxy, err := faultnet.NewProxy(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	first.recv(1)
	if _, err := Send(first.ctx, proxy.Addr(), makeObj(64<<10), core.Config{Transfer: 1}, Options{}); err != nil {
		t.Fatal(err)
	}
	first.delivered(makeObj(64 << 10))
	first.close()

	second := listenAt(t, addr, byAccept, Options{})
	if n := keptFor(proxy.Addr()); n != 1 {
		t.Fatalf("%d connections kept for the address, want the first Send's", n)
	}
	second.recv(1)
	if _, err := Send(second.ctx, proxy.Addr(), makeObj(64<<10+1), core.Config{Transfer: 2}, Options{}); err != nil {
		t.Fatalf("Send over a stale kept connection: %v", err)
	}
	second.delivered(makeObj(64<<10 + 1))
	if n := proxy.Accepted(); n != 2 {
		t.Fatalf("%d control connections, want 2: the stale one and one redial", n)
	}
}

// TestKeptConnAbortNotRetried: an answer on a kept connection is the
// receiver's verdict, not a sign of a stale connection. An ABORT (here, for a
// transfer tag in flight) is returned as it is, with no second dial, and the
// connection it came on is not kept.
func TestKeptConnAbortNotRetried(t *testing.T) {
	const ps = 1024
	ep := listen(t, byServe, Options{})
	proxy := ep.front(nil)
	ep.pushOK(makeObj(64<<10), core.Config{Transfer: 1}, Options{})

	obj := makeObj(96 << 10)
	dialRaw(t, ep.addr(), announceFor(5, obj, ps)).accepted()
	other := bytes.Clone(obj)
	other[0] ^= 0xFF
	_, err := Send(ep.ctx, ep.addr(), other, core.Config{Transfer: 5, PacketSize: ps}, Options{})
	var abort *AbortError
	if !errors.As(err, &abort) || abort.Reason != wire.AbortDuplicateTransfer {
		t.Fatalf("Send = %v, want ABORT(%s)", err, wire.AbortDuplicateTransfer)
	}
	if n := proxy.Accepted(); n != 2 {
		t.Fatalf("%d control connections, want 2: the kept one and the squatter's", n)
	}
	if n := keptFor(ep.addr()); n != 0 {
		t.Fatalf("%d connections kept after an ABORT, want none", n)
	}
}

// TestKeptConnNotKeptAfterFailure: only a successful exchange keeps its
// connection. A Send that fails on the connection a successful Send kept —
// with a digest-mismatch ABORT, a cancelled context or a stall — closes it,
// so the Send after it dials.
func TestKeptConnNotKeptAfterFailure(t *testing.T) {
	const ps = 1024
	obj := makeObj(256 << 10)
	packets := core.NumPackets(int64(len(obj)), ps)
	for _, sc := range []struct {
		name   string
		faults func() *faultnet.Faults
		// fail runs the failing Send, tagged 2, and checks its error.
		fail func(t *testing.T, ep *testEndpoint) error
	}{
		{name: "digest mismatch", faults: func() *faultnet.Faults {
			return faultnet.New(faultnet.Policy{Seed: 7, CorruptOffset: wire.DataHeaderLen, CorruptIf: func(pkt []byte) bool {
				d, err := wire.DecodeData(pkt)
				return err == nil && d.Transfer == 2 && d.Seq == 3
			}})
		}, fail: func(t *testing.T, ep *testEndpoint) error {
			_, err := Send(ep.ctx, ep.addr(), obj, core.Config{Transfer: 2, PacketSize: ps}, Options{Pace: 2 * time.Microsecond})
			if !errors.Is(err, ErrDigestMismatch) {
				t.Fatalf("Send = %v, want ErrDigestMismatch", err)
			}
			return err
		}},
		{name: "cancelled", fail: func(t *testing.T, ep *testEndpoint) error {
			ctx, cancel := context.WithCancel(ep.ctx)
			defer cancel()
			opts := Options{Pace: killPointPace, Progress: func(done, total int) {
				if done > total/10 {
					cancel()
				}
			}}
			_, err := Send(ctx, ep.addr(), obj, core.Config{Transfer: 2, PacketSize: ps}, opts)
			return err
		}},
		{name: "stalled", fail: func(t *testing.T, ep *testEndpoint) error {
			var cut atomic.Bool
			blackhole := func() {
				if cut.CompareAndSwap(false, true) {
					ep.proxy.SetBlackhole(true)
				}
			}
			opts := Options{Pace: killPointPace, StallTimeout: 300 * time.Millisecond,
				Progress: func(done, total int) {
					if done > total/10 {
						blackhole()
					}
				}}
			opts.testFlushHook = beforeEnd(packets, blackhole)
			_, err := Send(ep.ctx, ep.addr(), obj, core.Config{Transfer: 2, PacketSize: ps}, opts)
			ep.proxy.SetBlackhole(false)
			if !errors.Is(err, ErrStalled) {
				t.Fatalf("Send = %v, want ErrStalled", err)
			}
			return err
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			ep := listen(t, byServe, Options{})
			var f *faultnet.Faults
			if sc.faults != nil {
				f = sc.faults()
			}
			proxy := ep.front(f)
			ep.pushOK(makeObj(64<<10), core.Config{Transfer: 1, PacketSize: ps}, Options{})
			if err := sc.fail(t, ep); err == nil {
				t.Fatal("the failing Send succeeded")
			}
			if n := keptFor(ep.addr()); n != 0 {
				t.Fatalf("%d connections kept after a failed Send, want none", n)
			}
			ep.pushOK(makeObj(64<<10+3), core.Config{Transfer: 3, PacketSize: ps}, Options{})
			if n := proxy.Accepted(); n != 2 {
				t.Fatalf("%d control connections, want 2: the one the failure closed and a new one", n)
			}
		})
	}
}

// TestKeptConnOnePerConcurrentSend: Sends in flight at once to one Server
// each hold a connection of their own, and at most poolPerAddr of them are
// kept afterwards. Every Send waits, at its first acknowledgement, until all
// of them have reached theirs.
func TestKeptConnOnePerConcurrentSend(t *testing.T) {
	const n = 8
	ep := listen(t, byServe, Options{})
	proxy := ep.front(nil)
	ep.recv(1)
	var all sync.WaitGroup
	all.Add(n)
	var met atomic.Int32 // Sends that reached the barrier from their data phase
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			opts := Options{Pace: 5 * time.Microsecond, Progress: func(int, int) {
				once.Do(func() { met.Add(1); all.Done(); all.Wait() })
			}}
			_, errs[i] = Send(ep.ctx, ep.addr(), makeObj(1<<20+i), core.Config{Transfer: uint32(16*i + 1)}, opts)
			once.Do(all.Done) // a Send that never heard an acknowledgement must not hold the others
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
	}
	ep.byID(n)
	if met.Load() != n {
		t.Fatalf("only %d of %d Sends were in their data phase at once", met.Load(), n)
	}
	if got := proxy.Accepted(); got != n {
		t.Fatalf("%d Sends at once dialled %d control connections, want one each", n, got)
	}
	if k := keptFor(ep.addr()); k != poolPerAddr {
		t.Fatalf("%d connections kept, want the bound, %d", k, poolPerAddr)
	}
}

// TestKeptConnReleasedByClose: Close ends every connection the endpoint
// serves — a sender still keeping one reads EOF on it within a second — and
// leaves no goroutine of the endpoint behind and nothing that keeps the
// closed Listener, or its store, reachable.
func TestKeptConnReleasedByClose(t *testing.T) {
	for _, kind := range []string{byAccept, byServe} {
		t.Run(kind, func(t *testing.T) {
			before := endpointGoroutines()
			ep := listen(t, kind, Options{})
			ep.pushOK(makeObj(64<<10), core.Config{Transfer: 1}, Options{})
			c := idleControl.take(ep.addr())
			if c == nil {
				t.Fatal("the successful Send kept no connection")
			}
			defer c.Close()
			collected := make(chan struct{})
			runtime.SetFinalizer(ep.l.store, func(*store) { close(collected) })
			ep.close()
			closed := time.Now()
			c.SetReadDeadline(closed.Add(time.Second))
			if n, err := c.Read(make([]byte, 64)); n != 0 || err != io.EOF {
				t.Fatalf("the kept connection read %d bytes, %v after Close; want EOF", n, err)
			}
			if took := time.Since(closed); took > time.Second {
				t.Fatalf("EOF %v after Close, want within 1s", took)
			}
			if n := endpointGoroutines(); n > before {
				t.Fatalf("%d endpoint goroutines outlived Close (%d before Listen)", n, before)
			}
			ep.l, ep.srv = nil, nil // the harness's own references
			waitUntil(t, 10*time.Second, "the closed endpoint's store being collected", func() bool {
				runtime.GC()
				select {
				case <-collected:
					return true
				default:
					return false
				}
			})
		})
	}
}
