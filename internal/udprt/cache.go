// Receiver-side content cache: the dedup point that turns repeated pushes
// of one hot object into a single control RPC. Every completed inbound
// transfer whose announcement carried a dedup-permitting CHECK is kept
// (bounded, oldest-evicted) keyed by its content identity (core.ContentID),
// so the next sender asking "do you already have digest D?" is answered with a
// full HAVE plus COMPLETE and never dials a data flow — the Dominator
// objectserver's CheckObjects-before-AddObjects shape, folded into the
// FOBS handshake. With Options.Checkpoint set, entries are also persisted
// through the internal/checkpoint container (the same file format the
// resume store uses, under a distinct name prefix), so a restarted
// receiver still deduplicates the objects it verified before the restart.
package udprt

import (
	"sync"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
)

// maxCached and maxCachedBytes bound one endpoint's content cache, in entries
// and in object bytes; past either the oldest entry is evicted, and an object
// larger than the byte bound is not cached at all. Cached entries are whole
// objects, so both are deliberately small (the hot-object fan-out workload
// this serves has a tiny working set), and the byte bound is what keeps eight
// pushes of huge objects from pinning eight huge buffers.
const (
	maxCached      = 8
	maxCachedBytes = 64 << 20
)

// cachedObject is one completed, digest-verified object. An entry is
// immutable once it is in the cache; what is recycled on eviction is its
// buffer, into a new entry.
type cachedObject struct {
	content [32]byte
	obj     []byte
	// readers counts the lookup copy-outs and the SaveCache still reading
	// obj. It changes under contentCache.mu only, and rises only while the
	// entry is in the cache, so an entry evicted with readers == 0 has a
	// buffer nothing else can reach: that buffer, and no other, may be
	// written again.
	readers int
}

// contentCache answers CHECK queries for a listener or server. A nil cache
// (Options.NoDedup) answers every query as a miss and stores nothing; all
// methods are nil-safe.
type contentCache struct {
	dir      string // checkpoint directory; empty = memory only
	max      int    // entry bound; maxCached except under test
	maxBytes int    // byte bound; maxCachedBytes except under test

	mu      sync.Mutex
	entries []*cachedObject // oldest first
	bytes   int             // sum of len(obj) over entries
}

// newContentCache builds the cache for defaulted options, loading any
// persisted entries a previous process left under Options.Checkpoint.
func newContentCache(opts Options) *contentCache {
	if opts.NoDedup {
		return nil
	}
	c := &contentCache{dir: opts.Checkpoint, max: maxCached, maxBytes: maxCachedBytes}
	c.load()
	return c
}

// load fills a new cache from its directory: one file at a time, oldest
// first, each entry adopting the buffer it was read into, so start-up
// replays the adds that wrote the files — eviction order survives the
// restart, and a directory holding more than the bounds allow (another
// build's, or another bound's) sheds its oldest files without ever being
// resident at once. Loaded entries are re-verified — an entry whose bytes do
// not hash to its claimed digest is never served, and its file is removed,
// since nothing will ever ask for it again — so a corrupt or tampered file,
// or one an earlier build wrote under another digest scheme, degrades to a
// cache miss, exactly like a torn resume checkpoint degrades to a fresh
// transfer. Best-effort, like every other use of the directory.
func (c *contentCache) load() {
	if c.dir == "" {
		return
	}
	_ = checkpoint.LoadCacheDir(c.dir, func(st *checkpoint.State) bool {
		if len(st.Object) > c.maxBytes || core.ContentID(st.Object) != st.Content {
			return false
		}
		c.makeRoom(st.Content, len(st.Object))
		c.insert(&cachedObject{content: st.Content, obj: st.Object})
		return true
	})
}

// lookup returns a copy of the size-byte object cached under a digest; an
// entry of another size is a miss, decided before anything is copied. The
// copy is deliberate on both paths (add copies in, lookup copies out):
// cached bytes back dedup answers for the cache's whole lifetime, so neither
// the receive loop that produced the object nor the caller a hit is served
// to may alias them. The copy-out runs outside mu — concurrent hits on one
// hot object are what the cache is for — and holds the entry's reader count
// while it does, so an eviction in the meantime leaves the buffer alone.
func (c *contentCache) lookup(content [32]byte, size uint64) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	i := c.index(content)
	if i < 0 || uint64(len(c.entries[i].obj)) != size {
		c.mu.Unlock()
		return nil, false
	}
	ent := c.entries[i]
	ent.readers++
	c.mu.Unlock()
	out := make([]byte, len(ent.obj))
	copy(out, ent.obj)
	c.mu.Lock()
	ent.readers--
	c.mu.Unlock()
	return out, true
}

// add installs a copy of one completed object under its content digest,
// evicting oldest-first until both bounds hold and persisting a cache file
// when a directory is configured. The copy lands in the buffer of an entry
// this add evicted when one is the right size, so a cache at its bound
// serving same-size traffic allocates nothing: the landing buffer the
// caller keeps is then the only object-sized allocation of the transfer.
// The copy-in runs under mu (a memcpy of at most maxCachedBytes), which is
// what makes the evict-recycle-insert step atomic. Persistence is
// best-effort, like resume checkpoints: a full disk must not turn a
// completed transfer into a failure.
func (c *contentCache) add(content [32]byte, obj []byte, packetSize int) {
	if c == nil || len(obj) == 0 || len(obj) > c.maxBytes {
		return
	}
	c.mu.Lock()
	buf := c.makeRoom(content, len(obj))
	if buf == nil {
		buf = make([]byte, len(obj))
	}
	copy(buf, obj)
	ent := &cachedObject{content: content, obj: buf}
	c.insert(ent)
	if c.dir != "" {
		ent.readers++
	}
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	_ = checkpoint.SaveCache(c.dir, &checkpoint.State{
		ObjectSize: uint64(len(ent.obj)),
		PacketSize: uint32(packetSize),
		Received:   uint32(core.NumPackets(int64(len(ent.obj)), packetSize)),
		Object:     ent.obj,
		Content:    content,
		HasContent: true,
	})
	c.mu.Lock()
	ent.readers--
	if c.index(content) < 0 {
		// Evicted while the file was being written, so the eviction found
		// nothing to remove (the rename had not happened). Under mu, so a
		// re-add of the same content cannot have its new file taken instead.
		checkpoint.RemoveCache(c.dir, content)
	}
	c.mu.Unlock()
}

// makeRoom evicts, under mu, an entry already held for content and then the
// oldest entries until one more object of n bytes fits both bounds, removing
// their files. It returns an evicted buffer the new object may be copied
// into — n bytes of one that no reader holds and whose capacity is at most
// twice n (a small object does not pin a big buffer) — or nil.
func (c *contentCache) makeRoom(content [32]byte, n int) (spare []byte) {
	evict := func(i int) {
		e := c.entries[i]
		c.entries = append(c.entries[:i], c.entries[i+1:]...)
		c.bytes -= len(e.obj)
		if c.dir != "" {
			checkpoint.RemoveCache(c.dir, e.content)
		}
		if spare == nil && e.readers == 0 && n <= cap(e.obj) && cap(e.obj) <= 2*n {
			spare = e.obj[:n]
		}
	}
	if i := c.index(content); i >= 0 {
		evict(i)
	}
	for len(c.entries) >= c.max || c.bytes+n > c.maxBytes {
		evict(0)
	}
	return spare
}

// insert appends one entry as the newest, under mu, after makeRoom.
func (c *contentCache) insert(ent *cachedObject) {
	c.entries = append(c.entries, ent)
	c.bytes += len(ent.obj)
}

// index returns the position of the entry held for content, under mu, or -1.
func (c *contentCache) index(content [32]byte) int {
	for i, e := range c.entries {
		if e.content == content {
			return i
		}
	}
	return -1
}

// len reports the entry count, for tests and gauges.
func (c *contentCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// fullWords builds the every-packet-received HAVE bitmap for n packets —
// the dedup hit answer, and what a deduplicated sender restores its
// stripes from.
func fullWords(n int) []uint64 {
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 {
		words[len(words)-1] = (uint64(1) << rem) - 1
	}
	return words
}
