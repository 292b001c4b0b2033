package udprt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// senderGoroutines counts the live goroutines of Send's data phase: every
// stack running in, or created by, runSenderPlan — the completion reader,
// the waker and the stripe engines.
func senderGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("udprt.runSenderPlan")) {
			count++
		}
	}
	return count
}

// sendThenOverwrite runs Send and overwrites every byte of obj the moment it
// returns. Under -race, any goroutine of Send's still reading obj is a
// reported race; in any build, Send's goroutines must be gone within a few
// seconds of its return.
func sendThenOverwrite(t *testing.T, ctx context.Context, addr string, obj []byte, cfg core.Config, opts Options) (core.SenderStats, error) {
	t.Helper()
	before := senderGoroutines()
	st, err := Send(ctx, addr, obj, cfg, opts)
	for i := range obj {
		obj[i] = 0xA5
	}
	waitUntil(t, 5*time.Second, fmt.Sprintf("Send's goroutines ending (%d before it)", before),
		func() bool { return senderGoroutines() <= before })
	return st, err
}

// TestSendKeepsNothingOfObj pins the promise in Send's doc comment that a
// caller may reuse obj the moment Send returns (fobsd's movers read every
// task's file into one buffer they keep): on each way out, obj is
// overwritten at once, what the receiver holds is still the object sent, and
// none of Send's goroutines outlives it.
func TestSendKeepsNothingOfObj(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	t.Run("complete", func(t *testing.T) {
		ep := listen(t, byServe, Options{})
		ep.recv(1)
		obj := makeObj(1 << 20)
		want := bytes.Clone(obj)
		if _, err := sendThenOverwrite(t, ctx, ep.l.Addr(), obj, core.Config{Transfer: 1}, Options{}); err != nil {
			t.Fatal(err)
		}
		if ep.delivered(want).id != 1 {
			t.Fatal("the receiver holds the bytes under another transfer")
		}
	})

	t.Run("dedup hit", func(t *testing.T) {
		ep := listen(t, byServe, Options{})
		ep.recv(1)
		obj := makeObj(256 << 10)
		want := bytes.Clone(obj)
		if _, err := Send(ctx, ep.l.Addr(), want, core.Config{Transfer: 1}, Options{}); err != nil {
			t.Fatal(err)
		}
		st, err := sendThenOverwrite(t, ctx, ep.l.Addr(), obj, core.Config{Transfer: 2}, Options{})
		if err != nil || !st.Deduped {
			t.Fatalf("second send: deduped %v, %v; want a hit", st.Deduped, err)
		}
		if !bytes.Equal(ep.byID(2)[2].obj, want) {
			t.Fatal("the receiver's hit holds different bytes")
		}
	})

	t.Run("receiver abort", func(t *testing.T) {
		fake := newFakeReceiver(t, true)
		aborted := make(chan struct{})
		go func() {
			defer close(aborted)
			fake.acceptHandshake()
			if fake.ctl != nil {
				fake.readData(1, 5*time.Second) // the engine is sending
				writeAbort(fake.ctl, 0, wire.AbortUnspecified)
			}
		}()
		_, err := sendThenOverwrite(t, ctx, fake.addr(), makeObj(1<<20), core.Config{}, Options{})
		<-aborted
		var abort *AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("err = %v, want the receiver's ABORT", err)
		}
	})

	t.Run("cancelled context", func(t *testing.T) {
		ep := listen(t, byServe, Options{})
		ep.recv(1)
		cctx, ccancel := context.WithCancel(ctx)
		defer ccancel()
		opts := Options{
			Pace: killPointPace,
			Progress: func(done, total int) {
				if done > total/10 {
					ccancel()
				}
			},
		}
		_, err := sendThenOverwrite(t, cctx, ep.l.Addr(), makeObj(2<<20), core.Config{Transfer: 1}, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("retry after a failed attempt", func(t *testing.T) {
		ep := listen(t, byServe, Options{})
		proxy := ep.front(nil)
		ep.recv(1)
		obj := makeObj(512 << 10)
		want := bytes.Clone(obj)
		var cut atomic.Bool
		opts := Options{
			StallTimeout: 2 * time.Second,
			Pace:         killPointPace,
			Retry:        &RetryPolicy{MaxRetries: 4, Backoff: 50 * time.Millisecond, Seed: 7},
			Progress: func(done, total int) {
				if done > total/4 && cut.CompareAndSwap(false, true) {
					proxy.SetBlackhole(true)
					proxy.SeverControl()
					time.AfterFunc(100*time.Millisecond, func() { proxy.SetBlackhole(false) })
				}
			},
		}
		if _, err := sendThenOverwrite(t, ctx, proxy.Addr(), obj, core.Config{Transfer: 1}, opts); err != nil {
			t.Fatal(err)
		}
		if !cut.Load() {
			t.Fatal("the first attempt finished before its control connection was cut")
		}
		if ep.delivered(want).id != 1 {
			t.Fatal("the receiver holds the bytes under another transfer")
		}
	})

	t.Run("striped", func(t *testing.T) {
		ep := listen(t, byServe, Options{})
		ep.recv(1)
		obj := makeObj(1<<20 + 3)
		want := bytes.Clone(obj)
		if _, err := sendThenOverwrite(t, ctx, ep.l.Addr(), obj, core.Config{Transfer: 1}, Options{Streams: 4}); err != nil {
			t.Fatal(err)
		}
		if ep.delivered(want).id != 1 {
			t.Fatal("the receiver holds the bytes under another transfer")
		}
	})
}
