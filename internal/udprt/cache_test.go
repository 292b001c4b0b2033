package udprt

import (
	"bytes"
	"context"
	"encoding/binary"
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

// TestReceiveAllocBudget: a completed inbound transfer costs one
// object-sized allocation, the landing buffer the caller is handed. Twelve
// distinct 4 MiB objects through one default Listener: the first eight fill
// the cache (a landing buffer and a cache buffer each); from the ninth on
// the cache is at its bound, each add recycles the buffer it evicts, and
// the whole process — sender included — allocates the object plus small
// change per transfer.
func TestReceiveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const size, pushes, slack = 4 << 20, 12, 256 << 10
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(size)
	for i := 0; i < pushes; i++ {
		numbered(obj, i)
		done, objs, _, rerrs := acceptN(ctx, l, 1)
		before := totalAlloc()
		sst, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: uint32(i + 1)}, Options{})
		<-done
		grew := totalAlloc() - before
		if err != nil || rerrs[0] != nil {
			t.Fatalf("push %d: send err=%v, accept err=%v", i, err, rerrs[0])
		}
		if sst.Deduped || !bytes.Equal(objs[0], obj) {
			t.Fatalf("push %d: Deduped=%v, delivered equal=%v", i, sst.Deduped, bytes.Equal(objs[0], obj))
		}
		if i >= maxCached && grew > size+slack {
			t.Errorf("push %d with the cache at its bound allocated %d KiB, want ≤ %d KiB (object + %d KiB)",
				i, grew>>10, (size+slack)>>10, slack>>10)
		}
		t.Logf("push %d: %d KiB", i, grew>>10)
	}
	if n := l.cache.len(); n != maxCached {
		t.Fatalf("cache holds %d entries after %d pushes, want %d", n, pushes, maxCached)
	}
}

// TestOversizeObjectIsNotCached: an object larger than the cache's byte
// bound is delivered like any other and simply not kept — its re-push is a
// miss that moves the data again — and it evicts nothing on its way past.
func TestOversizeObjectIsNotCached(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.cache.maxBytes = 1 << 20
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	small, big := makeObj(256<<10), makeObj(1<<20+1)
	done, objs, _, rerrs := acceptN(ctx, l, 4)
	for i, tc := range []struct {
		obj     []byte
		deduped bool
	}{{small, false}, {big, false}, {big, false}, {small, true}} {
		sst, err := Send(ctx, l.Addr(), tc.obj, core.Config{Transfer: uint32(i + 1)}, Options{})
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if sst.Deduped != tc.deduped {
			t.Fatalf("push %d: Deduped=%v, want %v", i, sst.Deduped, tc.deduped)
		}
	}
	<-done
	for i, want := range [][]byte{small, big, big, small} {
		if rerrs[i] != nil || !bytes.Equal(objs[i], want) {
			t.Fatalf("accept %d: err=%v, delivered equal=%v", i, rerrs[i], bytes.Equal(objs[i], want))
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
	seed := newContentCache(Options{Checkpoint: dir})
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

	c := &contentCache{dir: dir, max: 4, maxBytes: 3*size + size/2}
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
			c := newContentCache(Options{Checkpoint: tc.dir})
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
			loaded := newContentCache(Options{Checkpoint: tc.dir})
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
