// The receiver's store: what one endpoint holds of an object between
// transfers — the paper's pre-allocated object and its status map, kept past
// the transfer that built them — keyed by the content identity
// (core.ContentID) the CHECK announces. A whole entry is a verified object,
// the buffer its transfer landed in: a CHECK that permits dedup is answered
// from it with a full HAVE plus COMPLETE, the Dominator objectserver's
// CheckObjects-before-AddObjects. A partial entry is a failed single-flow
// transfer's buffer and got-bitmap, kept for Options.ResumeWindow: the next
// announcement of the content is answered with the bitmap, and only the
// missing packets move again, GridFTP's restart markers per object. A
// transfer that may become whole holds a reservation. There is at most one
// entry per content, and with Options.Checkpoint set each is also a file
// named by its content, so a restarted receiver still holds what it held.
package udprt

import (
	"bytes"
	"slices"
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
)

// maxCached and maxCachedBytes bound one endpoint's whole entries plus
// reservations, in entries and in object bytes (an object over the byte bound
// is never kept whole); maxRetained bounds its partial entries. Past a bound
// the oldest entry of the kind goes. Every entry is a whole-object buffer, so
// all three are small, and the byte bound keeps eight pushes of huge objects
// from pinning eight huge buffers.
const (
	maxCached      = 8
	maxCachedBytes = 64 << 20
	maxRetained    = 16
)

// entry is what the store holds of one content.
type entry struct {
	content    [32]byte
	obj        []byte
	packetSize int
	// words is a partial entry's got-bitmap and received the packets it
	// holds; words is nil when the entry is whole and verified.
	words    []uint64
	received int
	// readers counts the copy-outs, the keeping landing and the file write
	// still reading obj. It changes under store.mu, and rises only while the
	// entry is in the store, so the buffer of an entry evicted with readers
	// == 0 may be written again, and only a partial entry no one reads may
	// be claimed.
	readers int
	timer   *time.Timer // a partial entry's expiry
}

func (e *entry) whole() bool { return e.words == nil }

// state is the entry as its file holds it: a whole one with no bitmap.
func (e *entry) state() *checkpoint.State {
	received := e.received
	if e.whole() {
		received = core.NumPackets(int64(len(e.obj)), e.packetSize)
	}
	return &checkpoint.State{ObjectSize: uint64(len(e.obj)), PacketSize: uint32(e.packetSize),
		Received: uint32(received), Words: e.words, Object: e.obj, Content: e.content, HasContent: true}
}

// store holds one listener's or server's entries.
type store struct {
	dir    string        // checkpoint directory; empty = memory only
	dedup  bool          // whole entries are kept (not Options.NoDedup)
	window time.Duration // a partial entry's lifetime; negative: none are kept, zero: no expiry
	// max and maxBytes bound whole entries plus reservations: maxCached and
	// maxCachedBytes except under test.
	max, maxBytes int

	disk sync.Mutex // one file write at a time (write)

	mu      sync.Mutex
	entries []*entry // oldest first, at most one per content
	wholes  int      // whole entries among them
	bytes   int      // sum of len(obj) over the whole entries
	// reserved and reservedBytes count the landings that may become whole
	// entries, not yet kept or released, and their announced bytes; both
	// count against the bounds beside the whole entries (open).
	reserved, reservedBytes int
}

// newStore builds the store for options, loading what a previous process
// left under Options.Checkpoint.
func newStore(opts Options) *store {
	s := &store{dir: opts.Checkpoint, dedup: !opts.NoDedup, window: opts.ResumeWindow,
		max: maxCached, maxBytes: maxCachedBytes}
	s.load()
	return s
}

// load fills a new store from its directory (checkpoint.LoadCacheDir): by
// header, newest first, it takes as many files of each kind as the bounds
// hold, and then installs them oldest first, each adopting the buffer it was
// read into and none written again. A file holding every packet of an object
// the store may keep whole is a whole entry if it hashes to its name, and is
// removed if not (rotten, or another identity scheme's); any other is a
// partial entry with a fresh ResumeWindow. Best-effort, like every use of
// the directory.
func (s *store) load() {
	if s.dir == "" {
		return
	}
	wholes, bytes, partials := 0, 0, 0
	room := func(st *checkpoint.State) bool {
		switch {
		case s.wholeFile(st):
			if wholes < s.max && bytes+int(st.ObjectSize) <= s.maxBytes {
				wholes, bytes = wholes+1, bytes+int(st.ObjectSize)
				return true
			}
		case s.window >= 0 && partials < maxRetained:
			partials++
			return true
		}
		return false
	}
	_ = checkpoint.LoadCacheDir(s.dir, room, func(st *checkpoint.State) bool {
		e := &entry{content: st.Content, obj: st.Object, packetSize: int(st.PacketSize)}
		if s.wholeFile(st) {
			if core.ContentID(st.Object) != st.Content {
				return false
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			s.makeRoom(e.content, len(e.obj))
			s.insert(e)
			return true
		}
		e.words, e.received = st.Words, int(st.Received)
		if len(e.words) == 0 && full(st) {
			e.words = fullWords(e.received) // a whole object's file, kept as resume state
		}
		return s.hold(e)
	})
}

// full reports whether a file's header counts every packet of its object.
func full(st *checkpoint.State) bool {
	return st.ObjectSize <= 1<<62 && int64(st.Received) == int64(core.NumPackets(int64(st.ObjectSize), int(st.PacketSize)))
}

// wholeFile reports whether a file holds every packet of an object the store
// may keep whole.
func (s *store) wholeFile(st *checkpoint.State) bool {
	return s.dedup && st.ObjectSize <= uint64(s.maxBytes) && full(st)
}

// landing is one announced transfer's handle on the store: a dedup answer,
// or where the transfer lands and what the store lent it. keep, deliver,
// retain and release are the transfer's only further calls on the store.
type landing struct {
	s          *store
	content    [32]byte
	n          int
	packetSize int
	single     bool // a single-flow plan: may claim and retain partial entries
	hit        bool // a dedup answer: obj is the whole entry's copy
	// obj is a buffer the reservation's eviction freed, to land in when
	// nothing was claimed; nil when the transfer needs a new one.
	obj []byte
	// claimed is the partial entry the transfer lands in, out of the store
	// until retain gives it back.
	claimed  *entry
	reserved bool   // holds a reservation, which keep turns into a whole entry
	ent      *entry // the whole entry keep made, pinned until release
	done     bool
}

// open is a transfer's one call on the store per announcement: a copy of the
// whole entry a dedup CHECK names (answer), or a landing. A single-flow plan
// claims the partial entry held for its content, when one no write is reading
// matches its object and packet size. A plan whose CHECK permits dedup
// reserves room to become whole, when the store keeps whole entries and the
// reservations already made leave room (transfers in flight may hold every
// slot); the reservation evicts oldest-first until whole entries plus
// reservations fit both bounds, and an unclaimed landing takes a buffer an
// eviction freed when one fits (makeRoom).
func (s *store) open(plan recvPlan) landing {
	if obj, ok := s.answer(plan); ok {
		return landing{hit: true, obj: obj, done: true}
	}
	h := landing{s: s, content: plan.checkDigest, n: int(plan.objectSize), packetSize: plan.packetSize,
		single: !plan.striped()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.index(h.content); i >= 0 && h.single {
		if e := s.entries[i]; !e.whole() && e.readers == 0 && len(e.obj) == h.n && e.packetSize == h.packetSize {
			h.claimed = s.take(i)
		}
	}
	if plan.checkDedup && s.dedup && h.n <= s.maxBytes && s.reserved < s.max && s.reservedBytes+h.n <= s.maxBytes {
		if spare := s.makeRoom(h.content, h.n); h.claimed == nil {
			h.obj = spare
		}
		s.reserved++
		s.reservedBytes += h.n
		h.reserved = true
	}
	return h
}

// answer returns the copy of the whole entry a CHECK may be answered from.
// The dedup flag and the announced size are tested before the copy-out (a
// whole object): a CHECK without the flag, or one that names a different
// size, is a miss that costs nothing.
func (s *store) answer(plan recvPlan) ([]byte, bool) {
	if !plan.checkDedup {
		return nil, false
	}
	return s.lookup(plan.checkDigest, plan.objectSize)
}

// lookup returns a copy of the size-byte whole entry held for content; an
// entry of another size or kind is a miss, decided before anything is
// copied. The copy is deliberate: an evicted entry's buffer is recycled into
// a landing, so a hit may not alias it. The copy-out runs outside mu —
// concurrent hits on one hot object are what the store is for — holding a
// reader, so an eviction in the meantime leaves the buffer alone.
func (s *store) lookup(content [32]byte, size uint64) ([]byte, bool) {
	s.mu.Lock()
	i := s.index(content)
	if i < 0 || !s.entries[i].whole() || uint64(len(s.entries[i].obj)) != size {
		s.mu.Unlock()
		return nil, false
	}
	e := s.entries[i]
	e.readers++
	s.mu.Unlock()
	out := make([]byte, len(e.obj))
	copy(out, e.obj)
	s.mu.Lock()
	e.readers--
	s.mu.Unlock()
	return out, true
}

// keep makes obj — the transfer's verified landing buffer, the store's from
// here on — a whole entry when the landing holds a reservation: no copy, and
// whatever the store holds for the content by now, a partial entry included,
// is displaced. The entry is pinned until release, so the caller's copy and
// the file read a buffer no reservation can recycle.
func (h *landing) keep(obj []byte) {
	if !h.reserved {
		return
	}
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	h.reserved = false
	s.reserved--
	s.reservedBytes -= h.n
	if i := s.index(h.content); i >= 0 {
		s.evict(i)
	}
	h.ent = &entry{content: h.content, obj: obj, packetSize: h.packetSize, readers: 1}
	s.insert(h.ent)
}

// deliver hands the caller its object once COMPLETE is out — obj itself when
// nothing was kept, else a copy of the kept entry (bytes.Clone: written once,
// never zeroed) — writes the entry's file, and ends the landing.
func (h *landing) deliver(obj []byte) []byte {
	defer h.release()
	if h.ent == nil {
		return obj
	}
	out := bytes.Clone(h.ent.obj)
	h.s.write(h.ent)
	return out
}

// retain gives back what a failed single-flow transfer holds as the partial
// entry for its content: what rcv placed, and zeros (a recycled buffer's
// other bytes are an evicted object's), or with no receiver — the
// announcement was refused before it landed — the claimed entry as claimed.
// An empty receiver retains nothing; a complete one is the fully restored
// transfer whose answer never reached the sender, and stays claimable.
func (h *landing) retain(rcv *core.Receiver) {
	if !h.single {
		return
	}
	e := h.claimed
	if rcv != nil {
		st := rcv.Stats()
		if st.Received == 0 {
			return
		}
		e = &entry{content: h.content, obj: rcv.Object(), packetSize: h.packetSize,
			words: rcv.HaveWords(nil), received: st.Received}
		clearUnplaced(e.obj, e.words, e.packetSize)
	}
	if e != nil && h.s.hold(e) {
		h.s.write(e)
	}
}

// release ends the landing, idempotently, so every exit may defer it: a
// reservation never kept gives its room back, a kept entry is unpinned, and a
// claimed entry neither kept nor given back is dropped with its file, unless
// the store holds the content again by now (under the same name).
func (h *landing) release() {
	if h.done {
		return
	}
	h.done = true
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.reserved {
		s.reserved--
		s.reservedBytes -= h.n
	}
	if h.ent != nil {
		h.ent.readers--
	}
	if h.claimed != nil && s.dir != "" && s.index(h.content) < 0 {
		checkpoint.RemoveCache(s.dir, h.content)
	}
}

// hold installs a partial entry as the newest and arms its expiry, unless
// the store keeps no partial entries or holds the content whole. It
// displaces the partial entry held for the same content and evicts the
// oldest partial entry past maxRetained. It reports whether e went in.
func (s *store) hold(e *entry) bool {
	if s.window < 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.index(e.content); i >= 0 {
		if s.entries[i].whole() {
			return false
		}
		s.evict(i)
	}
	if len(s.entries)-s.wholes >= maxRetained {
		s.evict(slices.IndexFunc(s.entries, func(e *entry) bool { return !e.whole() }))
	}
	if s.window > 0 {
		e.timer = time.AfterFunc(s.window, func() { s.expire(e) })
	}
	s.insert(e)
	return true
}

// expire drops a partial entry when its window lapses. The identity check
// keeps a stale timer from reaping a newer entry for the same content.
func (s *store) expire(e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.index(e.content); i >= 0 && s.entries[i] == e {
		s.evict(i)
	}
}

// write saves an entry's file, one at a time and holding a reader. An entry
// no longer the one held for its content is not written (a newer one of the
// name is, or will be), and a file whose content the store no longer holds
// is removed again: its entry was evicted before the rename. Best-effort: a
// full disk must not fail a transfer, and a receiver that dies first loses a
// dedup hit or a resume, never correctness.
func (s *store) write(e *entry) {
	if s.dir == "" {
		return
	}
	s.disk.Lock()
	defer s.disk.Unlock()
	s.mu.Lock()
	i := s.index(e.content)
	held := i >= 0 && s.entries[i] == e
	if held {
		e.readers++
	}
	s.mu.Unlock()
	if held {
		_ = checkpoint.SaveCache(s.dir, e.state())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if held {
		e.readers--
	}
	if s.index(e.content) < 0 {
		checkpoint.RemoveCache(s.dir, e.content)
	}
}

// makeRoom evicts, under mu, a whole entry held for content, then the oldest
// whole entries until n more bytes fit both bounds beside the reservations
// (which alone leave room: the caller checked). It returns an evicted buffer
// to land in — n bytes of one no reader holds, of capacity at most 2n, so a
// small object does not pin a big buffer — or nil.
func (s *store) makeRoom(content [32]byte, n int) (spare []byte) {
	take := func(buf []byte) {
		if spare == nil && buf != nil && n <= cap(buf) && cap(buf) <= 2*n {
			spare = buf[:n]
		}
	}
	if i := s.index(content); i >= 0 && s.entries[i].whole() {
		take(s.evict(i))
	}
	for s.wholes+s.reserved >= s.max || s.bytes+s.reservedBytes+n > s.maxBytes {
		take(s.evict(slices.IndexFunc(s.entries, (*entry).whole)))
	}
	return spare
}

// evict removes entry i and its file, under mu, and returns its buffer when
// no reader holds it.
func (s *store) evict(i int) (free []byte) {
	e := s.take(i)
	if s.dir != "" {
		checkpoint.RemoveCache(s.dir, e.content)
	}
	if e.readers == 0 {
		return e.obj
	}
	return nil
}

// take removes entry i from the store, under mu, leaving its file alone.
func (s *store) take(i int) *entry {
	e := s.entries[i]
	s.entries = slices.Delete(s.entries, i, i+1)
	if e.whole() {
		s.wholes--
		s.bytes -= len(e.obj)
	} else if e.timer != nil {
		e.timer.Stop()
	}
	return e
}

// insert appends one entry as the newest, under mu.
func (s *store) insert(e *entry) {
	s.entries = append(s.entries, e)
	if e.whole() {
		s.wholes++
		s.bytes += len(e.obj)
	}
}

// index returns the position of the entry held for content, under mu, or -1.
func (s *store) index(content [32]byte) int {
	for i, e := range s.entries {
		if e.content == content {
			return i
		}
	}
	return -1
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

// clearUnplaced zeroes every packet of obj the got-bitmap words do not hold,
// and the buffer's capacity past the object.
func clearUnplaced(obj []byte, words []uint64, packetSize int) {
	clear(obj[len(obj):cap(obj)])
	for seq, lo := 0, 0; lo < len(obj); seq, lo = seq+1, lo+packetSize {
		if words[seq/64]&(1<<(seq%64)) == 0 {
			clear(obj[lo:min(lo+packetSize, len(obj))])
		}
	}
}
