package udprt

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/wire"
)

// TestDedupSecondSendMovesNoData is the tentpole's acceptance test: the
// second push of an identical object must complete without a single DATA
// packet crossing the wire — one control RPC, answered from the
// receiver's content cache.
func TestDedupSecondSendMovesNoData(t *testing.T) {
	ep := listen(t, byAccept, Options{})
	obj := makeObj(512<<10 + 123)
	sst1 := ep.pushOK(obj, core.Config{Transfer: 1}, Options{}).sst
	if sst1.Deduped {
		t.Fatal("first send of a never-seen object reported Deduped")
	}
	if sst1.PacketsSent == 0 {
		t.Fatal("first send moved no data")
	}
	// The deduplicated Accept must still deliver the exact bytes (pushOK
	// checks them): the application cannot tell a cache hit from a real
	// transfer.
	p := ep.pushOK(obj, core.Config{Transfer: 2}, Options{})
	sst2, rst2 := p.sst, p.st
	if !sst2.Deduped {
		t.Fatal("second send of an identical object did not dedup")
	}
	if sst2.PacketsSent != 0 {
		t.Fatalf("deduplicated send put %d DATA packets on the wire, want 0", sst2.PacketsSent)
	}
	if sst2.Restored != sst2.PacketsNeeded || sst2.Restored == 0 {
		t.Fatalf("dedup conservation: Restored = %d, PacketsNeeded = %d; want equal and nonzero",
			sst2.Restored, sst2.PacketsNeeded)
	}
	if !rst2.Deduped {
		t.Fatal("receiver stats for the deduplicated transfer lack Deduped")
	}
	if rst2.Restored != rst2.PacketsNeeded {
		t.Fatalf("receiver dedup conservation: Restored = %d, PacketsNeeded = %d",
			rst2.Restored, rst2.PacketsNeeded)
	}
}

// TestDedupStripedSend covers the striped plan: the CHECK carries
// per-stripe digests, and a hit excuses every stripe at once.
func TestDedupStripedSend(t *testing.T) {
	ep := listen(t, byAccept, Options{})
	obj := makeObj(1 << 20)
	opts := Options{Streams: 4}
	ep.pushOK(obj, core.Config{Transfer: 10}, opts)
	if sst := ep.pushOK(obj, core.Config{Transfer: 20}, opts).sst; !sst.Deduped || sst.PacketsSent != 0 {
		t.Fatalf("striped dedup: Deduped=%v PacketsSent=%d, want true/0", sst.Deduped, sst.PacketsSent)
	}
}

// TestNoDedupDisablesCache pins the opt-outs on both ends: a NoDedup
// receiver caches nothing, and a NoDedup sender never asks.
func TestNoDedupDisablesCache(t *testing.T) {
	obj := makeObj(128 << 10)
	t.Run("receiver", func(t *testing.T) {
		ep := listen(t, byAccept, Options{NoDedup: true})
		ep.pushOK(obj, core.Config{Transfer: 1}, Options{})
		if sst := ep.pushOK(obj, core.Config{Transfer: 2}, Options{}).sst; sst.Deduped || sst.PacketsSent == 0 {
			t.Fatalf("NoDedup receiver still deduplicated: Deduped=%v PacketsSent=%d", sst.Deduped, sst.PacketsSent)
		}
	})
	t.Run("sender", func(t *testing.T) {
		ep := listen(t, byAccept, Options{})
		ep.pushOK(obj, core.Config{Transfer: 1}, Options{})
		// The receiver holds the object now, but a NoDedup sender sends no
		// CHECK, so the data flows anyway.
		if sst := ep.pushOK(obj, core.Config{Transfer: 2}, Options{NoDedup: true}).sst; sst.Deduped || sst.PacketsSent == 0 {
			t.Fatalf("NoDedup sender still deduplicated: Deduped=%v PacketsSent=%d", sst.Deduped, sst.PacketsSent)
		}
	})
}

// TestVerifyLoopback runs verified transfers end to end, single-flow and
// striped: every transfer is verified against the content identity its CHECK
// announced, and completes when the bytes are honest.
func TestVerifyLoopback(t *testing.T) {
	if push(t, makeObj(256<<10+9), core.Config{}, Options{}, Options{}).sst.Deduped {
		t.Fatal("fresh verified transfer reported Deduped")
	}
	// Striped: the one whole-object identity covers every stripe.
	opts := Options{Streams: 3}
	push(t, makeObj(1<<20), core.Config{Transfer: 5}, opts, opts)
}

// TestServerDedupFanout makes a serving endpoint (Serve) the dedup point: after
// one sender delivers the object, later senders of the same content
// complete from the cache without ever registering a transfer (so the
// same transfer id would not even collide).
func TestServerDedupFanout(t *testing.T) {
	ep := listen(t, byServe, Options{})
	ep.recv(1)
	obj := makeObj(256 << 10)
	if _, err := Send(ep.ctx, ep.l.Addr(), obj, core.Config{Transfer: 1}, Options{}); err != nil {
		t.Fatalf("seed send: %v", err)
	}
	const fan = 3
	for i := 0; i < fan; i++ {
		sst, err := Send(ep.ctx, ep.l.Addr(), obj, core.Config{Transfer: uint32(100 + i)}, Options{})
		if err != nil {
			t.Fatalf("fanout send %d: %v", i, err)
		}
		if !sst.Deduped || sst.PacketsSent != 0 {
			t.Fatalf("fanout send %d: Deduped=%v PacketsSent=%d, want true/0", i, sst.Deduped, sst.PacketsSent)
		}
	}
	ep.close() // Serve waits for every handler
	if n := len(ep.got); n != 1+fan {
		t.Fatalf("handler saw %d completions, want %d", n, 1+fan)
	}
	dedups := 0
	for i := 0; i < 1+fan; i++ {
		r := <-ep.got
		if r.st.Deduped {
			dedups++
		}
		if !bytes.Equal(r.obj, obj) {
			t.Fatalf("completion %d delivered different bytes", i)
		}
	}
	if dedups != fan {
		t.Fatalf("handler saw %d deduplicated completions, want %d", dedups, fan)
	}
}

// TestDedupBackToBackRepush pins the order the receive lifecycles owe the
// sender: the content cache is filled before COMPLETE is written, so a
// sender that re-pushes the same object the moment Send returns is always
// answered a hit. Each round pushes fresh content and immediately pushes it
// again; with the cache filled after COMPLETE the repeat races the insert
// and some of them move the whole object a second time.
func TestDedupBackToBackRepush(t *testing.T) {
	const rounds = 200
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	repush := func(t *testing.T, addr string) {
		obj := makeObj(16 << 10)
		for i := 0; i < rounds; i++ {
			obj[0], obj[1] = byte(i), byte(i>>8) // fresh content every round
			first, err := Send(ctx, addr, obj, core.Config{Transfer: uint32(2*i + 1)}, Options{})
			if err != nil || first.Deduped {
				t.Fatalf("round %d first push: Deduped=%v err=%v", i, first.Deduped, err)
			}
			again, err := Send(ctx, addr, obj, core.Config{Transfer: uint32(2*i + 2)}, Options{})
			if err != nil {
				t.Fatalf("round %d repeat: %v", i, err)
			}
			if !again.Deduped || again.PacketsSent != 0 {
				t.Fatalf("round %d repeat: Deduped=%v PacketsSent=%d, want true/0", i, again.Deduped, again.PacketsSent)
			}
		}
	}
	t.Run("server", func(t *testing.T) {
		ep := listen(t, byServe, Options{})
		ep.recv(1)
		repush(t, ep.l.Addr())
	})
	t.Run("listener", func(t *testing.T) {
		ep := listen(t, byAccept, Options{})
		ep.recv(2 * rounds)
		repush(t, ep.l.Addr())
		for i := 0; i < 2*rounds; i++ {
			if r, _ := ep.result(false); r.err != nil {
				t.Fatalf("accept %d: %v", i, r.err)
			}
		}
	})
}

// TestDedupCachePersistsAcrossRestart proves whole entries persist like
// partial ones, in the same files: a receiver restarted over its
// checkpoint directory still answers HAVE for the objects it verified
// before the restart.
func TestDedupCachePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	obj := makeObj(128 << 10)
	seed := listen(t, byAccept, Options{Checkpoint: dir})
	seed.pushOK(obj, core.Config{Transfer: 1}, Options{})
	seed.close()

	ep := listen(t, byAccept, Options{Checkpoint: dir})
	if n := ep.l.store.len(); n != 1 {
		t.Fatalf("restarted cache holds %d entries, want 1", n)
	}
	if sst := ep.pushOK(obj, core.Config{Transfer: 2}, Options{}).sst; !sst.Deduped || sst.PacketsSent != 0 {
		t.Fatalf("post-restart dedup: Deduped=%v PacketsSent=%d, want true/0", sst.Deduped, sst.PacketsSent)
	}
}

// TestContentCacheEviction bounds the cache, in entries and in bytes: past
// either limit the oldest entry goes, newest stays, and the add that evicted
// it copies into the buffer it left behind when that buffer is the right
// size.
func TestContentCacheEviction(t *testing.T) {
	c := newStore(Options{})
	c.max = 2
	mk := func(fill byte, size int) ([32]byte, []byte) {
		obj := bytes.Repeat([]byte{fill}, size)
		return core.ContentID(obj), obj
	}
	// buffer is where the cache keeps the object held under a digest.
	buffer := func(d [32]byte) *byte {
		c.mu.Lock()
		defer c.mu.Unlock()
		return &c.entries[c.index(d)].obj[0]
	}
	d1, o1 := mk(1, 1024)
	d2, o2 := mk(2, 1024)
	d3, o3 := mk(3, 1024)
	c.add(d1, o1, 512)
	c.add(d2, o2, 512)
	first := buffer(d1)
	c.add(d3, o3, 512)
	if n := c.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	if _, ok := c.lookup(d1, 1024); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if buffer(d3) != first {
		t.Fatal("a same-size add did not recycle the buffer of the entry it evicted")
	}
	for _, d := range [][32]byte{d2, d3} {
		got, ok := c.lookup(d, 1024)
		if !ok || core.ContentID(got) != d {
			t.Fatal("recent entry missing, or not the bytes it was added with")
		}
		// lookup must copy out: mutating the answer must not poison the cache.
		got[0] ^= 0xFF
		again, _ := c.lookup(d, 1024)
		if again[0] == got[0] {
			t.Fatal("lookup aliases the cached bytes")
		}
	}
	// add must copy in: the caller keeps, and may overwrite, what it passed.
	o3[0] ^= 0xFF
	if got, _ := c.lookup(d3, 1024); core.ContentID(got) != d3 {
		t.Fatal("add aliases the caller's bytes")
	}

	// Mixed sizes: a buffer is reused for an object at least half its
	// capacity, and not for a smaller one (which would pin the rest).
	victim := buffer(d2)
	d4, o4 := mk(4, 512)
	c.add(d4, o4, 512) // evicts d2: 512 of 1024 is still a fit
	if buffer(d4) != victim {
		t.Fatal("a half-capacity object did not reuse the evicted buffer")
	}
	victim = buffer(d3)
	d5, o5 := mk(5, 511)
	c.add(d5, o5, 512) // evicts d3: 511 of 1024 is not
	if buffer(d5) == victim {
		t.Fatal("a buffer was reused for an object less than half its capacity")
	}
	if got, ok := c.lookup(d5, 511); !ok || !bytes.Equal(got, o5) {
		t.Fatal("the small object is not served as added")
	}

	// The byte bound: nine objects whose sizes sum past it leave no more
	// than the bound cached, the newest among them.
	c.max, c.maxBytes = maxCached, 8<<10
	var newest [32]byte
	for i := 0; i < 9; i++ {
		d, o := mk(byte(10+i), 1<<10+i<<6) // 1024 … 1536 bytes, 11.25 KiB in all
		c.add(d, o, 512)
		newest = d
		if c.bytes > c.maxBytes {
			t.Fatalf("after add %d the cache holds %d bytes, bound %d", i, c.bytes, c.maxBytes)
		}
	}
	sum := 0
	for _, e := range c.entries {
		sum += len(e.obj)
	}
	if sum != c.bytes || c.len() >= maxCached {
		t.Fatalf("cache accounts %d bytes for %d held in %d entries; the byte bound, not the entry bound, should have evicted",
			c.bytes, sum, c.len())
	}
	if _, ok := c.lookup(newest, 1<<10+8<<6); !ok {
		t.Fatal("the newest object was evicted by the byte bound")
	}
	// An object larger than the bound is neither copied nor cached, and
	// evicts nothing on its way past.
	held := c.len()
	dBig, oBig := mk(99, c.maxBytes+1)
	c.add(dBig, oBig, 512)
	if _, ok := c.lookup(dBig, uint64(len(oBig))); ok || c.len() != held {
		t.Fatalf("an oversize object was cached, or evicted on its way past (%d entries, were %d)", c.len(), held)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(20, func() { c.add(dBig, oBig, 512) }); allocs > 0 {
			t.Fatalf("add allocated %.0f times for an object it does not cache", allocs)
		}
	}

	// A store that keeps no whole entries (NoDedup): adds are no-ops.
	nilCache := newStore(Options{NoDedup: true})
	nilCache.add(d1, o1, 512)
	if _, ok := nilCache.lookup(d1, 1024); ok || nilCache.len() != 0 {
		t.Fatal("nil cache answered a lookup")
	}
}

// TestResumeReconciledWithDedup pins the one lookup a CHECK is answered
// from: a supervised rerun of a transfer against a receiver that already
// completed (and cached) the object finishes on the CHECK answer alone — no
// resume bitmap, no data flow.
func TestResumeReconciledWithDedup(t *testing.T) {
	ep := listen(t, byAccept, Options{})
	obj := makeObj(256 << 10)
	ep.pushOK(obj, core.Config{Transfer: 1}, Options{})
	// A restarted orchestrator re-driving the same task.
	if sst := ep.pushOK(obj, core.Config{Transfer: 1}, Options{Retry: &RetryPolicy{}}).sst; !sst.Deduped || sst.PacketsSent != 0 {
		t.Fatalf("rerun dedup: Deduped=%v PacketsSent=%d, want true/0", sst.Deduped, sst.PacketsSent)
	}
}

// TestVerifyRequiredIsTerminalOnRefusal pins what a refused announcement
// means. Every announcement opens with the CHECK the object is verified
// against, so there is nothing to drop and nothing to degrade to: the
// transfer fails with the peer's ABORT on its one connection, traced (the
// trace id rides in that CHECK) or not, and the failure is not retryable.
func TestVerifyRequiredIsTerminalOnRefusal(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"traced", Options{TraceID: obs.TraceID{9, 9}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := newFakeReceiver(t, false)
			var conns atomic.Int32
			go func() {
				for {
					c, err := stub.tcp.Accept()
					if err != nil {
						return
					}
					conns.Add(1)
					buf := make([]byte, 4)
					if _, err := io.ReadFull(c, buf); err == nil {
						c.Write(wire.AppendAbort(nil, &wire.Abort{Reason: wire.AbortUnsupported}))
					}
					c.Close()
				}
			}()
			opts := tc.opts
			opts.HandshakeTimeout = 5 * time.Second
			opts.Retry = &RetryPolicy{MaxRetries: 2, Backoff: 10 * time.Millisecond} // a budget the refusal must not touch
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := Send(ctx, stub.addr(), makeObj(1024), core.Config{Transfer: 3, PacketSize: 512}, opts)
			var abort *AbortError
			if !errors.As(err, &abort) || abort.Reason != wire.AbortUnsupported {
				t.Fatalf("err = %v, want the peer's ABORT(unsupported)", err)
			}
			if IsRetryable(err) {
				t.Fatal("a refused announcement classified retryable")
			}
			if n := conns.Load(); n != 1 {
				t.Fatalf("%d connections, want 1", n)
			}
		})
	}
}

// TestFutureCheckVersionAborted pins the receive-side version gate: a
// CHECK from a future protocol revision is answered with ABORT
// (unsupported) — never a hang, never a data blast.
func TestFutureCheckVersionAborted(t *testing.T) {
	ep := listen(t, byAccept, Options{})
	ep.recv(1)
	frame := wire.AppendCheck(nil, &wire.Check{
		Transfer:   1,
		ObjectSize: 64,
		PacketSize: 64,
		Digest:     core.ContentID([]byte{1}),
	})
	frame[3] = wire.CheckVersion + 1
	frame = wire.AppendHello(frame, &wire.Hello{Transfer: 1, ObjectSize: 64, PacketSize: 64})
	dialRaw(t, ep.l.Addr(), frame).refused(wire.AbortUnsupported)
	if r, _ := ep.result(true); !errors.Is(r.err, wire.ErrCheckVersion) {
		t.Fatalf("Accept err = %v, want ErrCheckVersion", r.err)
	}
}

// TestSessionDedupAnswersNext covers the one-session-many-objects path:
// IncomingSession.Next must answer an announcement from the listener's
// cache too, here driven by plain Sends against the session listener's
// port.
func TestSessionDedupAnswersNext(t *testing.T) {
	ep := listen(t, bySession, Options{})
	obj := makeObj(128 << 10)
	// Each plain Send dials its own control connection, so the endpoint
	// accepts one session per send; both sessions share the listener's cache.
	ep.pushOK(obj, core.Config{Transfer: 1}, Options{})
	p := ep.pushOK(obj, core.Config{Transfer: 2}, Options{})
	if !p.sst.Deduped || p.sst.PacketsSent != 0 {
		t.Fatalf("session dedup: Deduped=%v PacketsSent=%d, want true/0", p.sst.Deduped, p.sst.PacketsSent)
	}
	if !p.st.Deduped {
		t.Fatalf("session receiver: Deduped=%v", p.st.Deduped)
	}
}

// TestSessionSenderDedups pins the in-session digest-first handshake:
// one Session carrying the same object twice completes its second Send
// off the receiver's cache — zero data packets, session unbroken, and a
// third (different) object still flows normally afterwards.
func TestSessionSenderDedups(t *testing.T) {
	ep := listen(t, bySession, Options{})
	ctx := ep.ctx
	obj := makeObj(128 << 10)
	other := makeObj(96 << 10)
	ep.recv(3)
	s, err := OpenSession(ctx, ep.l.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Send(ctx, obj, core.Config{}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	ep.delivered(obj)
	st, err := s.Send(ctx, obj, core.Config{})
	if err != nil {
		t.Fatalf("second send: %v", err)
	}
	if !st.Deduped || st.PacketsSent != 0 {
		t.Fatalf("second send: Deduped=%v PacketsSent=%d, want true/0", st.Deduped, st.PacketsSent)
	}
	if st.Restored != st.PacketsNeeded || st.PacketsNeeded == 0 {
		t.Fatalf("second send restored %d of %d", st.Restored, st.PacketsNeeded)
	}
	if r := ep.delivered(obj); !r.st.Deduped {
		t.Fatalf("second next: Deduped=%v", r.st.Deduped)
	}
	// The session survives the dedup hit: a fresh object still flows.
	st3, err := s.Send(ctx, other, core.Config{})
	if err != nil {
		t.Fatalf("third send: %v", err)
	}
	if st3.Deduped || st3.PacketsSent == 0 {
		t.Fatalf("third send should have moved data: %+v", st3)
	}
	ep.delivered(other)
}
