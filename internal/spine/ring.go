// Package spine is the plumbing the three instruments share: the one
// claim-then-publish seqlock ring their hot paths push into, and the one
// background-drained log that carries a ring's contents to a writer. What a
// slot's three words mean, and how they are spelled in a file, belongs to the
// instrument: internal/metrics keeps lifecycle events in a ring it only ever
// snapshots, internal/flight drains packet records into .fobrec frames,
// internal/obs drains phase events into JSONL lines.
package spine

import (
	"encoding/binary"
	"sync/atomic"
)

// SlotBytes is the drained form of one slot: its three words, big-endian.
const SlotBytes = 24

// Ring is a fixed-size, lock-free, multi-producer buffer of three-word slots.
// A writer claims a slot with one atomic add and brackets its stores with a
// per-slot sequence marker; a reader copies the words and re-checks the
// marker, discarding a slot a writer moved into meanwhile. Every field is
// individually atomic, so the race detector sees a data-race-free program
// rather than a "benign" seqlock race. A producer that laps its reader
// overwrites the oldest slots, and the reader counts what it lost.
type Ring struct {
	next  atomic.Uint64 // claim counter; slot = claim & mask
	mask  uint64
	slots []slot
}

type slot struct {
	// seq is the publication marker: 0 never written, odd while a writer
	// owns the slot, 2*claim+2 once generation claim is published. Writers
	// that meet on one slot are a whole ring of claims apart, so their
	// markers never collide.
	seq        atomic.Uint64
	w0, w1, w2 atomic.Uint64
}

// NewRing returns a ring of at least size slots (a power of two).
func NewRing(size int) *Ring {
	n := 1
	for n < size {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Len is the ring's capacity in slots.
func (r *Ring) Len() int { return len(r.slots) }

// Push publishes one slot. It never blocks and never allocates.
func (r *Ring) Push(w0, w1, w2 uint64) {
	claim := r.next.Add(1) - 1
	s := &r.slots[claim&r.mask]
	seq := 2*claim + 1
	s.seq.Store(seq)
	s.w0.Store(w0)
	s.w1.Store(w1)
	s.w2.Store(w2)
	s.seq.Store(seq + 1)
}

// Drain appends to buf, in claim order and exactly once, every slot published
// since *cursor, and stops at the first claim still between its writer's
// bracket stores (the next call retries it). Slots overwritten before it
// reached them are skipped and counted in dropped. The caller owns cursor and
// drains from one goroutine at a time.
func (r *Ring) Drain(cursor *uint64, buf []byte) (out []byte, dropped uint64) {
	return r.read(cursor, buf, false)
}

// Snapshot appends to buf the published slots the ring holds now, oldest
// first, consuming nothing. A slot being rewritten is skipped, not waited for.
func (r *Ring) Snapshot(buf []byte) []byte {
	var cursor uint64
	buf, _ = r.read(&cursor, buf, true)
	return buf
}

func (r *Ring) read(cursor *uint64, buf []byte, skipUnpublished bool) ([]byte, uint64) {
	head := r.next.Load()
	size := uint64(len(r.slots))
	var dropped uint64
	// Claims a full ring or more behind head are gone wholesale.
	if head > size && *cursor < head-size {
		dropped = head - size - *cursor
		*cursor = head - size
	}
	for ; *cursor < head; *cursor++ {
		s := &r.slots[*cursor&r.mask]
		want := 2*(*cursor) + 2
		if got := s.seq.Load(); got != want {
			if got < want && !skipUnpublished {
				break
			}
			dropped++ // lapped between the head check and here
			continue
		}
		w0, w1, w2 := s.w0.Load(), s.w1.Load(), s.w2.Load()
		if s.seq.Load() != want {
			dropped++ // a writer moved in while the words were read
			continue
		}
		buf = binary.BigEndian.AppendUint64(buf, w0)
		buf = binary.BigEndian.AppendUint64(buf, w1)
		buf = binary.BigEndian.AppendUint64(buf, w2)
	}
	return buf, dropped
}

// Words decodes the slot at the front of b.
func Words(b []byte) (w0, w1, w2 uint64) {
	return binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[16:])
}
