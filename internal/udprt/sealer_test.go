package udprt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// packetExtent is one packet's place in the object.
type packetExtent struct{ off, n int }

// extents lists every packet of an object received as the given stripes.
func extents(stripes []wire.StripeDesc, packetSize int) []packetExtent {
	var out []packetExtent
	for _, sd := range stripes {
		for at := 0; at < int(sd.Length); at += packetSize {
			out = append(out, packetExtent{int(sd.Offset) + at, min(packetSize, int(sd.Length)-at)})
		}
	}
	return out
}

// TestSealerTable drives the sealer by hand over the geometries where its
// arithmetic can go wrong: the leaf counters must equal a brute-force count
// of overlapping packets, and after every packet is placed (in a shuffled
// order, some restored up front) the sum must be the object's ContentID.
func TestSealerTable(t *testing.T) {
	const leaf = core.LeafSize
	for _, tc := range []struct {
		name       string
		size       int
		packetSize int
		streams    int
		restore    float64 // fraction of packets seeded through restore()
	}{
		{"1KiB packets divide a leaf", 3 * leaf, 1 << 10, 1, 0},
		{"8KiB packets divide a leaf", 3 * leaf, 8 << 10, 1, 0},
		{"32KiB packets divide a leaf", 3 * leaf, 32 << 10, 1, 0},
		{"1400-byte packets straddle leaves", 3*leaf + 77, 1400, 1, 0},
		{"3000-byte packets straddle leaves", 2*leaf + 1, 3000, 1, 0},
		{"object smaller than a leaf", 70000, 1400, 1, 0},
		{"single packet", 100, 1024, 1, 0},
		{"last leaf short", 2*leaf + 5000, 1 << 10, 1, 0},
		{"four stripes with boundaries inside leaves", 3*leaf + leaf/2, 1400, 4, 0},
		{"four stripes of 8KiB packets", 5 * leaf, 8 << 10, 4, 0},
		{"partly restored", 3*leaf + 99, 1400, 1, 0.6},
		{"fully restored", 2*leaf + 99, 3000, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obj := makeObj(tc.size)
			stripes := splitStripes(int64(tc.size), tc.packetSize, tc.streams, 1)
			s := newSealer(obj, tc.packetSize, stripes)
			defer s.abandon()
			all := extents(stripes, tc.packetSize)

			want := make([]int32, core.NumLeaves(tc.size))
			for _, p := range all {
				for j := p.off / leaf; j <= (p.off+p.n-1)/leaf; j++ {
					want[j]++
				}
			}
			for j := range want {
				if s.missing[j] != want[j] {
					t.Fatalf("leaf %d expects %d packets, brute force counts %d", j, s.missing[j], want[j])
				}
			}
			if got := s.pending(); got != len(want) {
				t.Fatalf("pending = %d before any packet, want %d", got, len(want))
			}

			rng := rand.New(rand.NewSource(int64(tc.size)))
			if tc.restore > 0 {
				// Single-stripe cases only: seed through the bitmap path.
				n := len(all)
				got := bitmap.New(n)
				for i := 0; i < n; i++ {
					if rng.Float64() < tc.restore {
						got.Set(i)
					}
				}
				s.restore(0, tc.size, tc.packetSize, got.AppendWords(nil))
				rest := all[:0:0]
				for i, p := range all {
					if !got.Test(i) {
						rest = append(rest, p)
					}
				}
				all = rest
			}
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			for _, p := range all {
				s.placed(p.off, p.n)
			}
			for j, m := range s.missing {
				if m != 0 {
					t.Fatalf("leaf %d still misses %d packets after all were placed", j, m)
				}
			}
			if got, want := s.sum(), core.ContentID(obj); got != want {
				t.Fatalf("sum = %x, ContentID = %x", got, want)
			}
			if s.pending() != 0 {
				t.Fatalf("pending = %d after sum", s.pending())
			}
		})
	}
}

// sealWorkers counts live sealer worker goroutines in this process.
func sealWorkers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "udprt.(*sealer).work")
}

// TestSealerWorkerNeverOutlivesTransfer: whichever way a transfer ends —
// idle watchdog, cancellation, the sender's ABORT, or retention followed by
// a transfer that claims the state and completes it — the leaf-hashing
// goroutine is gone by the time the lifecycle returns.
func TestSealerWorkerNeverOutlivesTransfer(t *testing.T) {
	const ps = 1024
	obj := makeObj(2*core.LeafSize + 500)
	packets := core.NumPackets(int64(len(obj)), ps)

	// partial runs one Accept against a raw sender that places the first
	// three quarters of the object and then, once the receiver's record shows
	// packets placed, ends the transfer its own way.
	partial := func(t *testing.T, opts Options, end func(*rawPeer, *testEndpoint)) (*testEndpoint, error) {
		t.Helper()
		opts.Metrics = metrics.New()
		ep := listen(t, byAccept, opts)
		ep.recv(1)
		peer := dialRaw(t, ep.l.Addr(), announceFor(5, obj, ps))
		peer.accepted()
		peer.dataUntil(5, obj, ps, 0, packets*3/4, func() bool { return ep.fresh(5) > 0 })
		if n := sealWorkers(); n != 1 {
			t.Fatalf("%d sealer workers while the transfer runs, want 1", n)
		}
		end(peer, ep)
		r, _ := ep.result(true)
		if n := sealWorkers(); n != 0 {
			t.Fatalf("%d sealer workers after Accept returned (%v)", n, r.err)
		}
		return ep, r.err
	}

	t.Run("idle timeout", func(t *testing.T) {
		_, err := partial(t, Options{IdleTimeout: 300 * time.Millisecond}, func(*rawPeer, *testEndpoint) {})
		if !errors.Is(err, ErrIdle) {
			t.Fatalf("Accept err = %v, want ErrIdle", err)
		}
	})
	t.Run("ctx cancel", func(t *testing.T) {
		_, err := partial(t, Options{}, func(_ *rawPeer, ep *testEndpoint) { ep.cancel() })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Accept err = %v, want context.Canceled", err)
		}
	})
	t.Run("sender abort then resume", func(t *testing.T) {
		ep, err := partial(t, Options{}, func(peer *rawPeer, ep *testEndpoint) {
			writeAbort(peer.ctl, 5, wire.AbortCancelled)
			// What the endpoint's loop reads once the ABORT ended the
			// transfer was in its data socket, unread, when the ABORT was
			// acted on: the peer sends nothing after it.
			rec := ep.aborted(5, wire.AbortCancelled)
			var io stats.IOCounters
			waitUntil(t, 5*time.Second, "the endpoint reading every datagram sent", func() bool {
				ep.l.mu.Lock()
				defer ep.l.mu.Unlock()
				io = ep.l.io
				return io.RecvDatagrams+io.RecvOverflow >= peer.sent
			})
			t.Logf("datagrams unread at the ABORT: %d of %d sent (%d placed, %d dropped at the socket)",
				io.RecvDatagrams-rec.IO.RecvDatagrams, peer.sent, rec.Fresh, io.RecvOverflow)
		})
		var abort *AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("Accept err = %v, want the sender's ABORT", err)
		}
		// The partial state was retained; the next announcement of the
		// content claims it, seeds a new sealer from the bitmap, and
		// completes on the rest.
		p := ep.push(obj, core.Config{Transfer: 5, PacketSize: ps}, Options{Retry: &RetryPolicy{}})
		if p.serr != nil {
			t.Fatalf("rerun: %v", p.serr)
		}
		if p.err != nil || !bytes.Equal(p.obj, obj) {
			t.Fatalf("resumed accept: err=%v intact=%v", p.err, bytes.Equal(p.obj, obj))
		}
		if p.st.Restored == 0 || p.sst.Restored == 0 {
			t.Fatalf("nothing resumed: receiver restored %d, sender %d", p.st.Restored, p.sst.Restored)
		}
		if n := sealWorkers(); n != 0 {
			t.Fatalf("%d sealer workers after the resumed transfer completed", n)
		}
	})
	t.Run("server", func(t *testing.T) {
		ep := listen(t, byServe, Options{})
		ep.recv(1)
		peer := dialRaw(t, ep.l.Addr(), announceFor(6, obj, ps))
		peer.accepted()
		peer.data(6, obj, ps, 0, packets/2)
		writeAbort(peer.ctl, 6, wire.AbortCancelled)
		peer.ctl.Close()
		ep.close() // Serve waits for every control handler
		if len(ep.got) != 0 {
			t.Error("an aborted transfer was delivered")
		}
		if n := sealWorkers(); n != 0 {
			t.Fatalf("%d sealer workers after Serve returned", n)
		}
	})
}

// TestSealedTransfersUnderFaults pushes a multi-leaf object, in packets
// that straddle leaf boundaries, through duplication and reordering into
// every receive lifecycle. Run under -race it is the check that hashing
// leaves while their neighbours are still being written is sound.
func TestSealedTransfersUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	obj := makeObj(2*core.LeafSize + core.LeafSize/2 + 31)
	cfg := core.Config{PacketSize: 1400, AckFrequency: 16}
	faults := func() *faultnet.Faults {
		return faultnet.New(faultnet.Policy{Seed: 3, Dup: 0.08, Reorder: 0.08})
	}
	sopts := Options{Pace: 2 * time.Microsecond}

	accept := func(t *testing.T, sopts Options) {
		ep := listen(t, byAccept, Options{})
		proxy := ep.front(faults())
		p := ep.pushOK(obj, cfg, sopts)
		if st := proxy.Stats(); st.Duplicated == 0 || st.Reordered == 0 || p.st.Duplicates == 0 {
			t.Fatalf("faults never fired: %+v, receiver saw %d duplicates", st, p.st.Duplicates)
		}
		if _, ok := ep.l.cache.lookup(core.ContentID(obj), uint64(len(obj))); !ok {
			t.Fatal("verified object was not cached")
		}
	}
	t.Run("accept", func(t *testing.T) { accept(t, sopts) })
	t.Run("striped", func(t *testing.T) {
		striped := sopts
		striped.Streams = 4
		accept(t, striped)
	})
	t.Run("session", func(t *testing.T) {
		ep := listen(t, bySession, Options{})
		ep.front(faults())
		ep.recv(1)
		s, err := OpenSession(ep.ctx, ep.addr(), sopts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Send(ep.ctx, obj, cfg); err != nil {
			t.Fatalf("session send: %v", err)
		}
		ep.delivered(obj)
	})
	t.Run("server", func(t *testing.T) {
		ep := listen(t, byServe, Options{})
		ep.front(faults())
		scfg := cfg
		scfg.Transfer = 9
		ep.pushOK(obj, scfg, sopts)
	})
	t.Run("resumed", func(t *testing.T) {
		ep := listen(t, byAccept, Options{IdleTimeout: 2 * time.Second})
		proxy := ep.front(faults())
		ep.recvUntilSuccess()
		var cut atomic.Bool
		ropts := Options{
			StallTimeout: 2 * time.Second,
			Pace:         killPointPace,
			Retry:        &RetryPolicy{MaxRetries: 4, Backoff: 250 * time.Millisecond, Seed: 7},
			Progress: func(known, total int) {
				if known > total/2 && cut.CompareAndSwap(false, true) {
					proxy.SetBlackhole(true)
					proxy.SeverControl()
					time.AfterFunc(100*time.Millisecond, func() { proxy.SetBlackhole(false) })
				}
			},
		}
		if _, err := Send(ep.ctx, proxy.Addr(), obj, cfg, ropts); err != nil {
			t.Fatalf("supervised send: %v", err)
		}
		if r := ep.delivered(obj); !cut.Load() || r.st.Restored == 0 {
			t.Fatalf("the transfer was not resumed (cut=%v, restored %d)", cut.Load(), r.st.Restored)
		}
	})
}

// TestFlippedByteInAnyLeafFailsDigest is TestCorruptedPayloadFailsDigest
// with the damage placed: the packet carrying one chosen byte of the first,
// a middle and the last leaf has a bit flipped on every pass, and the
// transfer must fail on both ends with ErrDigestMismatch, deliver nothing
// and cache nothing.
func TestFlippedByteInAnyLeafFailsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	const ps = 8 << 10
	obj := makeObj(3*core.LeafSize + 4096)
	last := core.NumLeaves(len(obj)) - 1
	for name, target := range map[string]int{
		"first leaf":  100,
		"middle leaf": core.LeafSize + core.LeafSize/2,
		"last leaf":   last*core.LeafSize + 17,
	} {
		t.Run(name, func(t *testing.T) {
			ep := listen(t, byAccept, Options{})
			proxy := ep.front(faultnet.New(faultnet.Policy{
				Seed:          7,
				CorruptOffset: wire.DataHeaderLen,
				CorruptIf: func(pkt []byte) bool {
					d, err := wire.DecodeData(pkt)
					return err == nil && int(d.Seq) == target/ps
				},
			}))
			p := ep.push(obj, core.Config{PacketSize: ps}, Options{Pace: 2 * time.Microsecond})
			serr := p.serr
			if st := proxy.Stats(); st.Corrupted == 0 {
				t.Fatalf("corruption never fired: %+v", st)
			}
			if !errors.Is(serr, ErrDigestMismatch) {
				t.Fatalf("sender err = %v, want ErrDigestMismatch", serr)
			}
			var abort *AbortError
			if !errors.As(serr, &abort) || abort.Reason != wire.AbortDigestMismatch {
				t.Fatalf("sender err = %v, want it to carry ABORT(digest-mismatch)", serr)
			}
			if !errors.Is(p.err, ErrDigestMismatch) {
				t.Fatalf("receiver err = %v, want ErrDigestMismatch", p.err)
			}
			if p.obj != nil {
				t.Fatal("a corrupted object was delivered")
			}
			if n := ep.l.cache.len(); n != 0 {
				t.Fatalf("a corrupted object was cached (%d entries)", n)
			}
		})
	}
}

// TestOldCheckVersionRefused covers both directions of a mixed pair. A
// version-1 CHECK (plain SHA-256 digests) is refused with ABORT(unsupported)
// before its digest is looked at; and a sender whose CHECK is refused that
// way — as an earlier build refuses this one's — fails with the peer's ABORT
// on that one connection, since every announcement must name its content.
func TestOldCheckVersionRefused(t *testing.T) {
	obj := makeObj(300 << 10)
	ep := listen(t, byAccept, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ep.recv(1)
	v1 := wire.AppendCheck(nil, &wire.Check{Version: 1, Flags: wire.CheckFlagDedup, Transfer: 1,
		ObjectSize: uint64(len(obj)), PacketSize: 1024, Digest: sha256.Sum256(obj)})
	v1 = wire.AppendHello(v1, &wire.Hello{Transfer: 1, ObjectSize: uint64(len(obj)), PacketSize: 1024})
	dialRaw(t, ep.l.Addr(), v1).refused(wire.AbortUnsupported)
	if r, _ := ep.result(true); !errors.Is(r.err, wire.ErrCheckVersion) {
		t.Fatalf("Accept err = %v, want ErrCheckVersion", r.err)
	}

	// The stub peer refuses the first connection the way an earlier build
	// refuses this one's CHECK; there must be no second.
	conns := make(chan int, 1)
	go func() {
		n := 0
		defer func() { conns <- n }()
		for {
			c, err := acceptControl(ctx, ep.l.tcp)
			if err != nil {
				return
			}
			n++
			if f, err := readControlFrame(c); err != nil || f.typ != wire.TypeCheck || f.check.Version != wire.CheckVersion {
				t.Errorf("connection led with type %d (%v), want a version-%d CHECK", f.typ, err, wire.CheckVersion)
			}
			readControlFrame(c) // the pipelined HELLO: leave nothing unread behind the ABORT
			writeAbort(c, 0, wire.AbortUnsupported)
			c.Close()
		}
	}()
	_, err := Send(ctx, ep.l.Addr(), obj, core.Config{Transfer: 2}, Options{HandshakeRetries: 3})
	var abort *AbortError
	if !errors.As(err, &abort) || abort.Reason != wire.AbortUnsupported {
		t.Fatalf("send past a refused CHECK: err = %v, want the peer's ABORT(unsupported)", err)
	}
	cancel()
	if n := <-conns; n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

// TestCompleteDigestRule pins what COMPLETE carries — the tag of the
// content identity the CHECK announced — and that an announcement without
// a CHECK gets no COMPLETE at all, but a refusal; a sender expecting the tag
// refuses anything else.
func TestCompleteDigestRule(t *testing.T) {
	const ps = 1024
	obj := makeObj(20 * ps)
	tag := wire.ContentTag(core.ContentID(obj))
	t.Run("answered CHECK", func(t *testing.T) {
		ep := listen(t, byAccept, Options{})
		ep.recv(1)
		peer := dialRaw(t, ep.l.Addr(), announceFor(4, obj, ps))
		peer.accepted()
		peer.data(4, obj, ps, 0, 20)
		f := peer.read()
		if f.typ != wire.TypeComplete || f.complete.Received != uint64(len(obj)) {
			t.Fatalf("terminal frame type %d, %+v", f.typ, f.complete)
		}
		if f.complete.Digest != tag {
			t.Fatalf("COMPLETE carries %08x, want the content tag %08x", f.complete.Digest, tag)
		}
		ep.delivered(obj)
	})
	t.Run("no CHECK", func(t *testing.T) {
		ep := listen(t, byAccept, Options{})
		ep.recv(1)
		dialRaw(t, ep.l.Addr(), wire.AppendHello(nil, &wire.Hello{Transfer: 4, ObjectSize: uint64(len(obj)), PacketSize: ps})).
			refused(wire.AbortBadHello)
		if r, _ := ep.result(true); !errors.Is(r.err, errBadAnnouncement) {
			t.Fatalf("Accept err = %v, want errBadAnnouncement", r.err)
		}
	})
	t.Run("wrong tag fails the send", func(t *testing.T) {
		fake := newFakeReceiver(t, true)
		go fake.acceptHandshake() // answers the CHECK with a miss
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		sent := make(chan error, 1)
		go func() {
			_, err := Send(ctx, fake.addr(), obj, core.Config{PacketSize: ps, Transfer: 3}, Options{})
			sent <- err
		}()
		<-fake.done
		// A peer echoing some other identity's tag.
		other := recvPlan{base: 3, objectSize: uint64(len(obj)), checkDigest: [32]byte{1}}
		if err := writeControl(fake.ctl, completeFrame(other)); err != nil {
			t.Fatal(err)
		}
		if err := <-sent; !errors.Is(err, ErrDigestMismatch) {
			t.Fatalf("send err = %v, want ErrDigestMismatch", err)
		}
	})
}

// TestIngestWithSealerZeroAllocs re-runs the receive hot path's allocation
// gate with a sealer attached: placing fresh packets, completing leaves and
// hashing them in the background allocate nothing.
func TestIngestWithSealerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const (
		ps   = 1024
		per  = 8
		runs = 600
	)
	obj := makeObj(5 * core.LeafSize)
	total := core.NumPackets(int64(len(obj)), ps)
	if (runs+1)*per > total {
		t.Fatal("object too small to feed every run fresh packets")
	}
	plan := recvPlan{base: 1, objectSize: uint64(len(obj)), packetSize: ps}
	rcv := core.NewReceiver(int64(len(obj)), core.Config{PacketSize: ps, Transfer: 1, AckFrequency: 4})
	e := newReceiverEngine(rcv)
	seal := plan.startSealer(rcv.Object(), e)
	defer seal.abandon()
	seq := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < per; i++ {
			lo := seq * ps
			e.ingest(wire.Data{Transfer: 1, Seq: uint32(seq), Total: uint32(total), Payload: obj[lo : lo+ps]})
			seq++
		}
	}); allocs > 0 {
		t.Errorf("ingest with a sealer allocates %.1f times per %d packets, want 0", allocs, per)
	}
}

// TestUnusableAnnouncementRefused: an announcement of a zero-byte object —
// which used to panic the process in core.NewReceiver — or of one too large
// to index is refused with ABORT(bad-hello) by every receive endpoint, and
// the endpoint goes on to serve the next transfer.
func TestUnusableAnnouncementRefused(t *testing.T) {
	frames := map[string][]byte{
		"HELLO of zero bytes": wire.AppendHello(nil, &wire.Hello{Transfer: 1, PacketSize: 1024}),
		"HELLO with no CHECK": wire.AppendHello(nil, &wire.Hello{Transfer: 1, ObjectSize: 64, PacketSize: 1024}),
		"HELLO past int":      wire.AppendHello(nil, &wire.Hello{Transfer: 1, ObjectSize: 1 << 63, PacketSize: 1024}),
		"checked HELLO of zero bytes": wire.AppendHello(
			wire.AppendCheck(nil, &wire.Check{Transfer: 1, ObjectSize: 64, PacketSize: 1024}),
			&wire.Hello{Transfer: 1, PacketSize: 1024}),
	}
	obj := makeObj(64 << 10)
	for _, kind := range []string{byAccept, bySession, byServe} {
		t.Run(map[string]string{byAccept: "Listener.Accept", bySession: "IncomingSession.Next", byServe: "Server"}[kind], func(t *testing.T) {
			ep := listen(t, kind, Options{})
			for name, frame := range frames {
				ep.recv(1)
				dialRaw(t, ep.l.Addr(), frame).refused(wire.AbortBadHello)
				if r, ok := ep.result(true); ok && !errors.Is(r.err, errBadAnnouncement) {
					t.Fatalf("%s: err = %v, want errBadAnnouncement", name, r.err)
				}
			}
			if kind != bySession {
				ep.pushOK(obj, core.Config{Transfer: 8}, Options{})
				return
			}
			ep.recv(1)
			s, err := OpenSession(ep.ctx, ep.l.Addr(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Send(ep.ctx, obj, core.Config{}); err != nil {
				t.Fatalf("session send after the refusals: %v", err)
			}
			ep.delivered(obj)
		})
	}
}

// TestCacheLoadRemovesUnverifiable: a persisted cache entry whose bytes do
// not hash to its name — rotted, or written by a build whose identity was
// the plain SHA-256 — is not only skipped but removed, so the directory
// does not fill with files nothing will ever ask for.
func TestCacheLoadRemovesUnverifiable(t *testing.T) {
	dir := t.TempDir()
	save := func(id [32]byte, obj []byte) {
		t.Helper()
		if err := checkpoint.SaveCache(dir, &checkpoint.State{
			ObjectSize: uint64(len(obj)), PacketSize: 1024,
			Received: uint32(core.NumPackets(int64(len(obj)), 1024)),
			Object:   obj, Content: id, HasContent: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	valid, rotten, old := makeObj(10<<10), makeObj(11<<10), makeObj(12<<10)
	save(core.ContentID(valid), valid)
	rottenID := core.ContentID(rotten)
	rotten[5000] ^= 1
	save(rottenID, rotten)
	save(sha256.Sum256(old), old)
	if ents, _ := os.ReadDir(dir); len(ents) != 3 {
		t.Fatalf("seeded %d files, want 3", len(ents))
	}

	c := newContentCache(Options{Checkpoint: dir}.withDefaults())
	if c.len() != 1 {
		t.Fatalf("loaded %d entries, want 1", c.len())
	}
	if got, ok := c.lookup(core.ContentID(valid), uint64(len(valid))); !ok || !bytes.Equal(got, valid) {
		t.Fatal("the valid entry did not load")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != filepath.Base(checkpoint.CacheFile(dir, core.ContentID(valid))) {
		t.Fatalf("directory holds %v after load, want only the valid entry", ents)
	}
}
