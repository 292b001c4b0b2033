// Receiver-side content cache: the dedup point that turns repeated pushes
// of one hot object into a single control RPC. Every completed inbound
// transfer whose announcement carried a dedup-permitting CHECK is kept
// (bounded, oldest-evicted) keyed by its content identity (core.ContentID):
// the buffer it landed in becomes the entry, no copy taken (cacheSlot),
// so the next sender asking "do you already have digest D?" is answered with a
// full HAVE plus COMPLETE and never dials a data flow — the Dominator
// objectserver's CheckObjects-before-AddObjects shape, folded into the
// FOBS handshake. With Options.Checkpoint set, entries are also persisted
// through the internal/checkpoint container (the same file format the
// resume store uses, under a distinct name prefix), so a restarted
// receiver still deduplicates the objects it verified before the restart.
package udprt

import (
	"bytes"
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

// cachedObject is one completed, digest-verified object: the buffer its
// transfer landed in, kept as it was verified. An entry is immutable once it
// is in the cache; what is recycled on eviction is its buffer, into the
// landing buffer of a transfer admitted later.
type cachedObject struct {
	content [32]byte
	obj     []byte
	// readers counts the lookup copy-outs, and the slot that made the entry
	// until its caller's copy and cache file are done, still reading obj. It
	// changes under contentCache.mu only, and rises only while the entry is
	// in the cache, so an entry evicted with readers == 0 has a buffer
	// nothing else can reach: that buffer, and no other, may be written
	// again.
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
	// reserved and reservedBytes count the slots of admitted transfers not
	// yet kept or released, and their announced bytes; both count against
	// the bounds beside the entries (admit).
	reserved, reservedBytes int
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
// copy is deliberate: cached bytes back dedup answers for the cache's whole
// lifetime, and their buffer is recycled into a landing buffer once evicted,
// so the caller a hit is served to may not alias them. The copy-out runs
// outside mu — concurrent hits on one hot object are what the cache is for —
// and holds the entry's reader count while it does, so an eviction in the
// meantime leaves the buffer alone.
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

// cacheSlot is one admitted transfer's place in the cache, from admission
// (admit) to its end (release): first a reservation, counted against both
// bounds, then — once the transfer's object is verified — the entry that
// object's landing buffer becomes (keep). All methods are nil-safe; a nil
// slot is a transfer the cache does not take.
type cacheSlot struct {
	c       *contentCache
	content [32]byte
	n       int
	// spare is a buffer an eviction at admission freed: n bytes of one no
	// reader holds, for the transfer to land in; nil when none fitted.
	spare []byte
	// ent is the entry keep made, pinned (a reader) until release.
	ent  *cachedObject
	done bool
}

// admit reserves room for the n-byte object announced under content, or
// returns nil when the cache does not take it: an empty object, one over the
// byte bound, or one the reservations already made leave no room for (the
// transfers in flight hold every slot). Admission evicts oldest-first until
// the entries plus the reservations, this one included, fit both bounds, so
// entries and reservations together never exceed them, and the slot hands
// back a buffer an evicted entry freed when one fits (makeRoom).
func (c *contentCache) admit(content [32]byte, n int) *cacheSlot {
	if c == nil || n <= 0 || n > c.maxBytes {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reserved >= c.max || c.reservedBytes+n > c.maxBytes {
		return nil
	}
	spare := c.makeRoom(content, n)
	c.reserved++
	c.reservedBytes += n
	return &cacheSlot{c: c, content: content, n: n, spare: spare}
}

// recycled is the buffer to land in that admission freed, or nil.
func (s *cacheSlot) recycled() []byte {
	if s == nil {
		return nil
	}
	return s.spare
}

// keep makes obj — the transfer's verified landing buffer, which the cache
// owns from here on — the slot's entry: an insert under mu, replacing an
// entry another transfer of the same content made meanwhile, with no copy.
// The entry stays pinned until release, so the caller's copy and the cache
// file are read from a buffer no admission can recycle.
func (s *cacheSlot) keep(obj []byte) {
	if s == nil {
		return
	}
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reserved--
	c.reservedBytes -= s.n
	if i := c.index(s.content); i >= 0 {
		c.evict(i)
	}
	s.ent = &cachedObject{content: s.content, obj: obj, readers: 1}
	c.insert(s.ent)
}

// deliver hands the caller its object once COMPLETE is out: obj itself on a
// nil slot, else a copy of the kept entry (bytes.Clone: the new buffer is
// written once, never zeroed first). It then persists the entry and releases
// the slot.
func (s *cacheSlot) deliver(obj []byte, packetSize int) []byte {
	if s == nil {
		return obj
	}
	out := bytes.Clone(s.ent.obj)
	s.c.persist(s.ent, packetSize)
	s.release()
	return out
}

// release ends the slot: a reservation never kept gives its room back, and a
// kept entry is unpinned. It is idempotent, so the receive lifecycle defers it
// and every exit, failures included, ends its slot.
func (s *cacheSlot) release() {
	if s == nil || s.done {
		return
	}
	s.done = true
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.ent == nil {
		c.reserved--
		c.reservedBytes -= s.n
		return
	}
	s.ent.readers--
}

// persist writes a pinned entry's cache file when a directory is configured.
// Persistence is best-effort, like resume checkpoints: a full disk must not
// turn a completed transfer into a failure, and a receiver that dies before
// the file is written loses a dedup hit, never correctness.
func (c *contentCache) persist(ent *cachedObject, packetSize int) {
	if c.dir == "" {
		return
	}
	_ = checkpoint.SaveCache(c.dir, &checkpoint.State{
		ObjectSize: uint64(len(ent.obj)),
		PacketSize: uint32(packetSize),
		Received:   uint32(core.NumPackets(int64(len(ent.obj)), packetSize)),
		Object:     ent.obj,
		Content:    ent.content,
		HasContent: true,
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.index(ent.content) < 0 {
		// Evicted while the file was being written, so the eviction found
		// nothing to remove (the rename had not happened). Under mu, so a
		// re-add of the same content cannot have its new file taken instead.
		checkpoint.RemoveCache(c.dir, ent.content)
	}
}

// makeRoom evicts, under mu, an entry already held for content and then the
// oldest entries until one more object of n bytes fits both bounds beside the
// reservations. It returns an evicted buffer the new object may land in — n
// bytes of one that no reader holds and whose capacity is at most twice n (a
// small object does not pin a big buffer) — or nil. The caller has checked
// that the reservations alone leave room, so the entries run out last.
func (c *contentCache) makeRoom(content [32]byte, n int) (spare []byte) {
	take := func(buf []byte) {
		if spare == nil && buf != nil && n <= cap(buf) && cap(buf) <= 2*n {
			spare = buf[:n]
		}
	}
	if i := c.index(content); i >= 0 {
		take(c.evict(i))
	}
	for len(c.entries)+c.reserved >= c.max || c.bytes+c.reservedBytes+n > c.maxBytes {
		take(c.evict(0))
	}
	return spare
}

// evict removes entry i and its file, under mu, and returns its buffer when
// no reader holds it: an entry evicted with readers == 0 has a buffer nothing
// else can reach, and that buffer, and no other, may be written again.
func (c *contentCache) evict(i int) (free []byte) {
	e := c.entries[i]
	c.entries = append(c.entries[:i], c.entries[i+1:]...)
	c.bytes -= len(e.obj)
	if c.dir != "" {
		checkpoint.RemoveCache(c.dir, e.content)
	}
	if e.readers == 0 {
		return e.obj
	}
	return nil
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
