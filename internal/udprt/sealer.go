package udprt

import (
	"math/bits"
	"sync/atomic"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// sealer computes an inbound object's content identity while the object is
// still assembling: it counts, per leaf of core.LeafSize bytes, the packets
// not yet placed, and the moment a leaf's count reaches zero one background
// goroutine hashes it in place — so when the last packet lands, all that is
// left to hash is what arrived last. Leaves complete in whatever order the
// network (and the stripes, which share one sealer) delivers them; holes
// elsewhere in the object do not hold a finished leaf back.
//
// The worker reads object bytes the receive loop may still be writing next
// to. That is safe because core.Receiver places each packet exactly once —
// a duplicate returns before the copy — so the bytes of a leaf whose every
// packet is placed never change again, and the channel send that queues the
// leaf orders those writes before the worker's reads.
//
// placed and restore are called under whatever serializes the transfer's
// engines (the lifecycle goroutine before the transfer goes live, the
// endpoint's loop under the transfer's lock after); sum and abandon from the
// goroutine that owns the transfer's lifecycle. Every transfer the receive
// lifecycle runs has one; placed ignores a nil sealer, so an engine driven
// without one (as the engine-level tests do) needs no other case.
type sealer struct {
	obj     []byte
	missing []int32    // per leaf: packets overlapping it that are not yet placed
	leaves  [][32]byte // leaf digests, each written once by whoever hashed the leaf
	// ready queues complete leaves for hashing. Its capacity is the leaf
	// count plus one: every leaf is queued at most once and sealStop once,
	// so no send ever blocks and the per-packet path stays allocation-free.
	ready  chan int
	hashed atomic.Int32  // leaves hashed so far
	done   chan struct{} // closed when the worker has exited
	joined bool          // sum or abandon already ran
}

// sealStop on the ready queue tells the worker to exit.
const sealStop = -1

// newSealer prepares the leaf counters for an object received as the given
// stripes (each its own packet sequence of packetSize bytes, the last packet
// of a stripe possibly short) and starts the worker. A packet that straddles
// a leaf boundary counts toward both leaves.
func newSealer(obj []byte, packetSize int, stripes []wire.StripeDesc) *sealer {
	n := core.NumLeaves(len(obj))
	s := &sealer{
		obj:     obj,
		missing: make([]int32, n),
		leaves:  make([][32]byte, n),
		ready:   make(chan int, n+1),
		done:    make(chan struct{}),
	}
	for _, sd := range stripes {
		lo, hi := int(sd.Offset), int(sd.Offset+sd.Length)
		for j := lo / core.LeafSize; j <= (hi-1)/core.LeafSize; j++ {
			// [a, b) is the part of leaf j this stripe covers; the packets
			// overlapping it run from the one holding byte a to the one
			// holding byte b-1.
			a, b := max(lo, j*core.LeafSize), hi
			if b-j*core.LeafSize > core.LeafSize {
				b = j*core.LeafSize + core.LeafSize
			}
			s.missing[j] += int32((b-1-lo)/packetSize - (a-lo)/packetSize + 1)
		}
	}
	if n > 1 {
		go s.work()
	} else {
		// A lone leaf completes with the object's last packet: there is
		// nothing to overlap, so sum hashes it without a goroutine hand-off.
		close(s.done)
	}
	return s
}

func (s *sealer) work() {
	defer close(s.done)
	for i := range s.ready {
		if i == sealStop {
			return
		}
		s.hash(i)
	}
}

func (s *sealer) hash(i int) {
	s.leaves[i] = core.LeafID(s.obj, i)
	s.hashed.Add(1)
}

// placed records that the n object bytes at off were just placed by a fresh
// packet, queueing every leaf that completes.
func (s *sealer) placed(off, n int) {
	if s == nil {
		return
	}
	for j, last := off/core.LeafSize, (off+n-1)/core.LeafSize; j <= last; j++ {
		if s.missing[j]--; s.missing[j] == 0 {
			select {
			case s.ready <- j:
			default: // unreachable (see ready); a lost leaf fails verification
			}
		}
	}
}

// restore marks the packets a resumed stripe already holds — words is its
// got-bitmap, off and length its extent in the object — as placed, so
// fully restored leaves are hashed while the handshake is still in flight.
func (s *sealer) restore(off, length, packetSize int, words []uint64) {
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			at := (w*64 + bits.TrailingZeros64(word)) * packetSize
			s.placed(off+at, min(packetSize, length-at))
		}
	}
}

// pending reports how many leaves have not been hashed yet.
func (s *sealer) pending() int {
	return len(s.leaves) - int(s.hashed.Load())
}

// sum returns the identity of the completed object: the caller hashes
// whatever is still queued alongside the worker, waits for the worker's leaf
// in hand, and folds the leaf digests into the root.
func (s *sealer) sum() [32]byte {
	s.finish(s.hash)
	return core.RootID(len(s.obj), s.leaves)
}

// abandon stops the worker of a transfer that will not be summed — what is
// still queued is dropped unhashed — and waits for it, so no goroutine
// outlives its transfer. Safe after sum.
func (s *sealer) abandon() {
	if !s.joined {
		s.finish(func(int) {})
	}
}

// finish takes every queued leaf off the worker's hands, then stops the
// worker and waits for it.
func (s *sealer) finish(take func(leaf int)) {
	for queued := true; queued; {
		select {
		case i := <-s.ready:
			take(i)
		default:
			queued = false
		}
	}
	s.joined = true
	s.ready <- sealStop
	<-s.done
}
