package udprt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
)

// totalAlloc is the heap bytes allocated so far, for before/after deltas.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// numbered stamps a counter into obj's first bytes — a distinct content
// identity per push without generating a new object — and returns its id.
func numbered(obj []byte, i int) [32]byte {
	binary.BigEndian.PutUint64(obj, uint64(i))
	return core.ContentID(obj)
}

// add installs a copy of obj under content the way a transfer does — open,
// land in the recycled buffer (or a new one), keep, deliver — for tests that
// fill a store without moving packets. Content the store already holds
// whole is answered from it, and stays.
func (s *store) add(content [32]byte, obj []byte, packetSize int) {
	h := s.open(recvPlan{checkDigest: content, checkDedup: true, objectSize: uint64(len(obj)), packetSize: packetSize})
	if !h.reserved {
		return
	}
	buf := h.obj
	if buf == nil {
		buf = make([]byte, len(obj))
	}
	copy(buf, obj)
	h.keep(buf)
	h.deliver(buf)
}

// len reports the whole entries held.
func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wholes
}

// entryOf returns the entry held for content, whole or partial, or nil.
func (s *store) entryOf(content [32]byte) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.index(content); i >= 0 {
		return s.entries[i]
	}
	return nil
}

// TestReceiveAllocBudget: a completed inbound transfer costs one
// object-sized allocation, the copy the caller is handed. Twelve distinct
// 4 MiB objects through one default Listener: the first eight fill the cache
// (a landing buffer, which becomes the entry, and the caller's copy each);
// from the ninth on the cache is at its bound, each admission recycles the
// buffer it evicts into the transfer's landing buffer, and the whole process
// — sender included — allocates the object plus small change per transfer.
// The change is what neither end may grow with the object or the ring: the
// sender's ring holds headers only, not a packet's worth per slot.
func TestReceiveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const size, pushes, slack = 4 << 20, 12, 48 << 10
	ep := listen(t, byAccept, Options{})
	obj := makeObj(size)
	for i := 0; i < pushes; i++ {
		numbered(obj, i)
		before := totalAlloc()
		p := ep.push(obj, core.Config{Transfer: uint32(i + 1)}, Options{})
		grew := totalAlloc() - before
		if p.serr != nil || p.err != nil {
			t.Fatalf("push %d: send err=%v, accept err=%v", i, p.serr, p.err)
		}
		if p.sst.Deduped || !bytes.Equal(p.obj, obj) {
			t.Fatalf("push %d: Deduped=%v, delivered equal=%v", i, p.sst.Deduped, bytes.Equal(p.obj, obj))
		}
		if i >= maxCached && grew > size+slack {
			t.Errorf("push %d with the cache at its bound allocated %d KiB, want ≤ %d KiB (object + %d KiB)",
				i, grew>>10, (size+slack)>>10, slack>>10)
		}
		t.Logf("push %d: %d KiB", i, grew>>10)
	}
	if n := ep.l.store.len(); n != maxCached {
		t.Fatalf("cache holds %d entries after %d pushes, want %d", n, pushes, maxCached)
	}
}

// TestSendRingAllocBudget: what a Send allocates grows with the ring length
// by the ring's per-slot bookkeeping — a DATA header, the slices naming it
// and its payload, and batchio's message and iovec room — never by a
// packet's worth per slot: the payloads go out from the object where they
// lie. A 64 KiB push of 1 KiB packets with a 256-slot ring against one with
// 32 slots (the least of five pushes each, the receiver's share being the
// same for both) may differ by less than 256 bytes per extra slot.
func TestSendRingAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const size, pushes, perSlot = 64 << 10, 5, 256
	ep := listen(t, byAccept, Options{})
	obj := makeObj(size)
	least := map[int]uint64{}
	for i := 0; i < 2*pushes; i++ {
		batch := []int{32, 256}[i%2]
		numbered(obj, i)
		before := totalAlloc()
		p := ep.push(obj, core.Config{Transfer: uint32(i + 1), PacketSize: 1024}, Options{ioBatch: batch})
		grew := totalAlloc() - before
		if p.serr != nil || p.err != nil {
			t.Fatalf("push %d: send err=%v, accept err=%v", i, p.serr, p.err)
		}
		if m, ok := least[batch]; !ok || grew < m {
			least[batch] = grew
		}
	}
	extra := int64(least[256]) - int64(least[32])
	t.Logf("ring 32: %d KiB, ring 256: %d KiB, %d bytes per extra slot", least[32]>>10, least[256]>>10, extra/224)
	if extra >= 224*perSlot {
		t.Errorf("224 more ring slots cost %d KiB, want < %d KiB: the send ring scales with the packet size",
			extra>>10, 224*perSlot>>10)
	}
}

// TestSmallSendAllocBudget: a small Send pays for its object, not for its
// packet size or its socket plumbing. 64 KiB pushes of 1 KiB packets into a
// Server: once the cache is at its bound, each admission recycles the buffer
// it evicts as the landing buffer, the handler's copy is the object, the
// acknowledgement buffers at both ends hold the one word of status map such an
// object has, and the sender's batched socket state comes from the pool. The
// whole process may allocate the object plus 12 KiB per push. One push of the
// sixteen measured may exceed that: now and then a push lands on growth of the
// runtime's own tables (the goroutine list, a timer heap), 5–25 KiB at once,
// about one push in four hundred. Two may not: a pool that fails to serve
// every other Send, or ack slots sized by the packet size again, puts most
// pushes over.
func TestSmallSendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const size, pushes, slack = 64 << 10, maxCached + 16, 12 << 10
	ep := listen(t, byServe, Options{})
	obj := makeObj(size)
	var over []string
	for i := 0; i < pushes; i++ {
		numbered(obj, i)
		before := totalAlloc()
		p := ep.push(obj, core.Config{Transfer: uint32(i + 1), PacketSize: 1024}, Options{})
		grew := totalAlloc() - before
		if p.serr != nil || p.err != nil || p.sst.Deduped || !bytes.Equal(p.obj, obj) {
			t.Fatalf("push %d: send err=%v, receive err=%v, deduped=%v, intact=%v",
				i, p.serr, p.err, p.sst.Deduped, bytes.Equal(p.obj, obj))
		}
		if i >= maxCached && grew > size+slack {
			over = append(over, fmt.Sprintf("push %d: %.1f KiB", i, float64(grew)/1024))
		}
		t.Logf("push %d: %.1f KiB", i, float64(grew)/1024)
	}
	if len(over) > 1 {
		t.Errorf("with the cache at its bound, %d pushes allocated more than %d KiB (object + %d KiB): %v",
			len(over), (size+slack)>>10, slack>>10, over)
	}
}

// TestOversizeObjectIsNotCached: an object larger than the cache's byte
// bound is delivered like any other and simply not kept — its re-push is a
// miss that moves the data again — and it evicts nothing on its way past.
func TestOversizeObjectIsNotCached(t *testing.T) {
	ep := listen(t, byAccept, Options{})
	ep.l.store.maxBytes = 1 << 20
	small, big := makeObj(256<<10), makeObj(1<<20+1)
	for i, tc := range []struct {
		obj     []byte
		deduped bool
	}{{small, false}, {big, false}, {big, false}, {small, true}} {
		if sst := ep.pushOK(tc.obj, core.Config{Transfer: uint32(i + 1)}, Options{}).sst; sst.Deduped != tc.deduped {
			t.Fatalf("push %d: Deduped=%v, want %v", i, sst.Deduped, tc.deduped)
		}
	}
}

// TestCacheLoadReplaysWithinBounds: start-up reads the directory one file at
// a time in the order the files were saved, adopts each buffer as read —
// no second copy, no re-save of the file it came from — and applies both
// bounds as it goes: what does not fit is the oldest, and its file goes.
func TestCacheLoadReplaysWithinBounds(t *testing.T) {
	const size, files = 1 << 20, 6
	dir := t.TempDir()
	seed := newStore(Options{Checkpoint: dir})
	obj := makeObj(size)
	base := time.Now().Add(-time.Hour).Truncate(time.Second)
	var ids [][32]byte
	saved := func(i int) time.Time { return base.Add(time.Duration(i) * time.Minute) }
	for i := 0; i < files; i++ {
		id := numbered(obj, 1000-i) // directory order is the reverse of save order
		seed.add(id, obj, 1024)
		if err := os.Chtimes(checkpoint.CacheFile(dir, id), saved(i), saved(i)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	c := &store{dir: dir, dedup: true, max: 4, maxBytes: 3*size + size/2}
	before := totalAlloc()
	c.load()
	grew := totalAlloc() - before
	if !raceEnabled && grew > files*size+512<<10 {
		t.Errorf("loading %d files of 1 MiB allocated %d KiB: a loaded buffer was copied", files, grew>>10)
	}
	// The byte bound (3.5 objects) binds before the entry bound (4).
	if c.len() != 3 || c.bytes != 3*size {
		t.Fatalf("loaded %d entries, %d bytes; want the 3 that fit the byte bound", c.len(), c.bytes)
	}
	for i, id := range ids {
		_, hit := c.lookup(id, size)
		info, err := os.Stat(checkpoint.CacheFile(dir, id))
		if kept := i >= files-3; hit != kept || (err == nil) != kept {
			t.Fatalf("entry %d (0 = oldest): hit=%v, file present=%v, want both %v", i, hit, err == nil, kept)
		} else if kept && !info.ModTime().Equal(saved(i)) {
			t.Fatalf("entry %d: its file was written again on load", i)
		}
	}
	// Eviction order survived: the next add evicts the oldest loaded entry.
	c.add(numbered(obj, 2000), obj, 1024)
	if _, hit := c.lookup(ids[files-3], size); hit {
		t.Fatal("the oldest loaded entry outlived a newer one")
	}
	if _, hit := c.lookup(ids[files-2], size); !hit {
		t.Fatal("an add after the load evicted out of order")
	}
}

// TestContentCacheRecycleRace hammers lookup of one digest while adds of
// other digests evict it and recycle its buffer (and re-adds bring it back):
// a hit must always be the bytes that hash to the digest asked for, never a
// buffer caught halfway through becoming another object. With a directory
// the same holds for the SaveCache still streaming an entry's buffer when
// the entry is evicted: every file in the directory loads and verifies.
// Meaningful under -race, where a write to a buffer a reader still holds is
// reported even when the bytes happen to match.
func TestContentCacheRecycleRace(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  string
	}{{"memory", ""}, {"persisted", t.TempDir()}} {
		t.Run(tc.name, func(t *testing.T) {
			const size, rounds = 64 << 10, 200
			c := newStore(Options{Checkpoint: tc.dir})
			c.max = 2
			hot := makeObj(size)
			hotID := core.ContentID(hot)
			stop := make(chan struct{})
			var readers, adders sync.WaitGroup
			var hits atomic.Int64
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if got, ok := c.lookup(hotID, size); ok {
							hits.Add(1)
							if core.ContentID(got) != hotID {
								t.Error("a hit returned bytes that do not hash to the digest asked for")
								return
							}
						}
					}
				}()
			}
			// Two adders, so that one's SaveCache is in flight while the
			// other's add evicts the entry being saved.
			for a := 0; a < 2; a++ {
				adders.Add(1)
				go func(a int) {
					defer adders.Done()
					other := makeObj(size)
					for i := 0; i < rounds; i++ {
						c.add(numbered(other, a*rounds+i), other, 1024)
						c.add(hotID, hot, 1024)
					}
				}(a)
			}
			adders.Wait()
			close(stop)
			readers.Wait()
			if hits.Load() == 0 {
				t.Fatal("the hot digest never hit: the race was not exercised")
			}
			if tc.dir == "" {
				return
			}
			// Quiescent now: the directory holds exactly the resident entries, each intact.
			resident := map[[32]byte]bool{}
			for _, e := range c.entries {
				resident[e.content] = true
			}
			loaded := newStore(Options{Checkpoint: tc.dir})
			ents, err := os.ReadDir(tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != len(resident) || loaded.len() != len(resident) {
				t.Fatalf("directory holds %d files, %d of them load and verify; the cache holds %d entries",
					len(ents), loaded.len(), len(resident))
			}
			for _, e := range loaded.entries {
				if !resident[e.content] {
					t.Fatal("the directory holds an entry the cache evicted")
				}
			}
		})
	}
}
