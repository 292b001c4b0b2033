package udprt

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
)

// Landing in the store: a transfer that may become a whole entry reserves
// room when its announcement is opened, lands in the buffer the
// reservation's eviction freed, and that buffer becomes the whole entry.
// These tests hold the three promises that makes: a recycled buffer's old
// bytes never leave the receiver, a buffer someone still reads is never
// recycled, and whole entries plus reservations stay within the bounds.

// held reports the store's whole entries plus reservations, and their bytes:
// what the bounds limit.
func (s *store) held() (slots, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wholes + s.reserved, s.bytes + s.reservedBytes
}

// reservations reports the slots reserved and not yet kept or released, and
// their bytes.
func (s *store) reservations() (n, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reserved, s.reservedBytes
}

// pattern returns n bytes of one value stamped with a counter: an object
// whose content is nothing like makeObj's.
func pattern(n int, b byte, i int) []byte {
	obj := bytes.Repeat([]byte{b}, n)
	numbered(obj, i)
	return obj
}

// checkPlacedOrZero requires every packet of obj the got-bitmap holds to be
// want's, and every other one to be zero — and, with tail set, the buffer's
// capacity past the object too — and reports how many packets were unplaced.
func checkPlacedOrZero(t *testing.T, where string, obj, want []byte, words []uint64, packetSize int, tail bool) (unplaced int) {
	t.Helper()
	for seq, lo := 0, 0; lo < len(obj); seq, lo = seq+1, lo+packetSize {
		hi := min(lo+packetSize, len(obj))
		if words[seq/64]&(1<<(seq%64)) != 0 {
			if !bytes.Equal(obj[lo:hi], want[lo:hi]) {
				t.Fatalf("%s: placed packet %d differs from the object sent", where, seq)
			}
			continue
		}
		unplaced++
		if !bytes.Equal(obj[lo:hi], make([]byte, hi-lo)) {
			t.Fatalf("%s: unplaced packet %d holds bytes it was never sent", where, seq)
		}
	}
	if rest := obj[len(obj):cap(obj)]; tail && !bytes.Equal(rest, make([]byte, len(rest))) {
		t.Fatalf("%s: the buffer's capacity past the object holds old bytes", where)
	}
	return unplaced
}

// TestRecycledLandingRetainsNoEvictedBytes: with the cache at its bound, a
// transfer lands in the buffer of the entry its admission evicted. Severed
// mid-flight, it is retained — and neither the partial entry's buffer nor
// its file holds a byte of the evicted object: every unplaced packet
// is zero. Its reservation is released, and the retry resumes from the
// retained packets and completes bit-identical.
func TestRecycledLandingRetainsNoEvictedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	const size, transfer = 1<<20 + 31, 9
	dir := t.TempDir()
	ep := listen(t, byAccept, Options{Checkpoint: dir, IdleTimeout: 2 * time.Second})
	l := ep.l
	l.store.max = 2
	for i := 0; i < l.store.max; i++ {
		ep.pushOK(pattern(size, 0xA5, i), core.Config{Transfer: uint32(i + 1)}, Options{})
	}
	if slots, _ := l.store.held(); slots != l.store.max {
		t.Fatalf("the cache holds %d, want it at its bound of %d", slots, l.store.max)
	}
	l.store.mu.Lock()
	oldest := &l.store.entries[0].obj[0]
	l.store.mu.Unlock()

	proxy := ep.front(nil)
	obj := makeObj(size)
	id := core.ContentID(obj)
	var cut atomic.Bool
	p := ep.push(obj, core.Config{Transfer: transfer, AckFrequency: 8}, Options{
		StallTimeout: 2 * time.Second,
		Pace:         killPointPace,
		Progress: func(got, total int) {
			if got > total/2 && cut.CompareAndSwap(false, true) {
				proxy.SetBlackhole(true)
				proxy.SeverControl()
			}
		},
	})
	if !cut.Load() || p.serr == nil || p.err == nil {
		t.Fatalf("the transfer was not severed: cut=%v, send err=%v, accept err=%v", cut.Load(), p.serr, p.err)
	}

	ret := l.store.entryOf(id)
	if ret == nil || ret.whole() {
		t.Fatal("the severed transfer was not retained")
	}
	if &ret.obj[0] != oldest {
		t.Fatal("the transfer did not land in the buffer its admission evicted: nothing was recycled")
	}
	unplaced := checkPlacedOrZero(t, "partial entry", ret.obj, obj, ret.words, ret.packetSize, true)
	if unplaced == 0 {
		t.Fatal("every packet was placed before the cut: nothing to check")
	}
	st, err := checkpoint.Load(checkpoint.CacheFile(dir, id))
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	checkPlacedOrZero(t, "checkpoint", st.Object, obj, st.Words, int(st.PacketSize), false)
	if n, b := l.store.reservations(); n != 0 || b != 0 {
		t.Fatal("the failed transfer's reservation was not released")
	}

	proxy.SetBlackhole(false) // the path heals for the retry
	restored := ep.pushOK(obj, core.Config{Transfer: transfer + 1}, Options{}).st.Restored
	if restored == 0 {
		t.Fatal("the retry restored nothing: it did not resume")
	}
	t.Logf("%d of %d packets unplaced at the cut, restored %d", unplaced, core.NumPackets(size, 1024), restored)
}

// TestDedupHitsNeverShareARecycledBuffer: senders pushing one hot object —
// dedup hits, each a reader copying the entry out — against senders pushing
// fresh objects of the same size into a serving endpoint whose cache sits at its
// bound, so every miss evicts and recycles. A hit must always deliver the hot
// bytes, every miss its own; under -race, a buffer recycled while a hit still
// reads it is reported even when the bytes happen to match.
func TestDedupHitsNeverShareARecycledBuffer(t *testing.T) {
	const size, rounds = 32 << 10, 12
	ep := listen(t, byServe, Options{})
	ep.l.store.max = 2
	ep.recv(1)
	var mu sync.Mutex
	want := map[uint32][32]byte{}
	hot := makeObj(size)
	hotID := core.ContentID(hot)
	var next atomic.Uint32
	push := func(obj []byte, id [32]byte) (core.SenderStats, error) {
		tr := next.Add(1)
		mu.Lock()
		want[tr] = id
		mu.Unlock()
		return Send(ep.ctx, ep.l.Addr(), obj, core.Config{Transfer: tr}, Options{})
	}
	if _, err := push(hot, hotID); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var hits atomic.Int64
	errs := make(chan error, 5*rounds)
	for g := 0; g < 5; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fresh := pattern(size, byte(g), 0)
			for i := 0; i < rounds; i++ {
				if g < 3 {
					st, err := push(hot, hotID)
					if st.Deduped {
						hits.Add(1)
					}
					errs <- err
					continue
				}
				errs <- func() error { _, err := push(fresh, numbered(fresh, g*1000+i)); return err }()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	ep.close() // every transfer's lifecycle has returned
	if hits.Load() == 0 {
		t.Fatal("the hot object never hit: no reader raced the recycling")
	}
	bad := 0
	for range int(next.Load()) {
		if r := <-ep.got; want[r.id] != core.ContentID(r.obj) {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d deliveries were not the bytes their sender pushed", bad)
	}
	if slots, _ := ep.l.store.held(); slots > ep.l.store.max {
		t.Fatalf("after the pushes the cache holds %d slots, want ≤ %d", slots, ep.l.store.max)
	}
	if n, _ := ep.l.store.reservations(); n != 0 {
		t.Fatalf("%d reservations outlived their transfers", n)
	}
	t.Logf("%d of %d hot pushes were hits", hits.Load(), 3*rounds)
}

// TestServerReservationsWithinBounds: transfers in flight at once into a
// serving endpoint each hold a reservation from admission to completion, and entries
// plus reservations never exceed the cache's bounds — in slots or in bytes —
// at any moment sampled. A transfer admitted with every slot reserved gets
// none: it completes uncached, and nothing leaks once all are done.
func TestServerReservationsWithinBounds(t *testing.T) {
	const size, flows = 512 << 10, 3
	ep := listen(t, byServe, Options{})
	c := ep.l.store
	c.max, c.maxBytes = 2, 3*size
	ep.recv(1)
	ctx := ep.ctx
	for i := 0; i < c.max; i++ { // at the bound before the flows start
		if _, err := Send(ctx, ep.l.Addr(), pattern(size, 0x5A, i), core.Config{Transfer: uint32(100 + i)}, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	sampled := make(chan int)
	go func() {
		most := 0
		for {
			select {
			case <-stop:
				sampled <- most
				return
			default:
			}
			slots, held := c.held()
			n, _ := c.reservations()
			most = max(most, n)
			if slots > c.max || held > c.maxBytes {
				t.Errorf("entries plus reservations hold %d slots and %d bytes, bounds %d and %d", slots, held, c.max, c.maxBytes)
			}
			time.Sleep(100 * time.Microsecond) // scenario: the sampling interval
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, flows)
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Send(ctx, ep.l.Addr(), pattern(size, byte(i), i), core.Config{Transfer: uint32(i + 1)},
				Options{Pace: 100 * time.Microsecond})
		}(i)
	}
	wg.Wait()
	close(stop)
	most := <-sampled
	for i, err := range errs {
		if err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	if most < 2 {
		t.Fatalf("at most %d reservations were seen at once: the flows did not overlap", most)
	}
	ep.close() // every transfer's lifecycle has returned
	slots, held := c.held()
	if n, b := c.reservations(); n != 0 || b != 0 || slots > c.max || held > c.maxBytes {
		t.Fatalf("after the flows: %d slots, %d bytes, %d still reserved", slots, held, n)
	}
}
