// Resumable transfers, receive side: when a transfer dies mid-flight the
// receiver already holds most of the object, and the paper's whole-object
// selective-acknowledgement bitmap describes the hole pattern exactly. The
// resume store retains that state (buffer + got-bitmap) for a grace window
// keyed by the content identity the transfer's CHECK announced, so the next
// announcement of the same content — a retry, a rerun, another sender —
// is answered with the retained bitmap in its CHECK's HAVE and only the
// missing packets cross the network again. With Options.Checkpoint set the
// retained state is also persisted through internal/checkpoint, surviving a
// receiver restart — the object-based analogue of GridFTP's restart markers.
package udprt

import (
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
)

// maxRetained bounds how many aborted transfers one endpoint keeps resume
// state for; beyond it the oldest entry is evicted. Retained buffers are
// whole objects, so the bound is deliberately small.
const maxRetained = 16

// retained is one aborted transfer's resume state.
type retained struct {
	content    [32]byte // the identity a later CHECK finds it by
	transfer   uint32   // the id its checkpoint file is named by
	objectSize uint64
	packetSize int
	obj        []byte   // partially filled object buffer
	words      []uint64 // got-bitmap
	received   int      // distinct packets held
	timer      *time.Timer
	retainedAt time.Time
}

// resumeStore holds retained transfers for a listener or server. A nil
// store (ResumeWindow < 0) retains nothing and so answers every CHECK from
// the content cache or as a miss; all methods are nil-safe.
type resumeStore struct {
	window time.Duration
	dir    string // checkpoint directory; empty = memory only

	mu      sync.Mutex
	entries map[[32]byte]*retained
}

// newResumeStore builds the store for defaulted options, installing any
// checkpoints a previous process left under Options.Checkpoint as they are
// — they are on disk already, so nothing is written. A checkpoint that names
// no content could never be claimed and is removed (LoadDir removes those of
// an earlier format version). A negative ResumeWindow disables retention
// entirely (nil store).
func newResumeStore(opts Options) *resumeStore {
	if opts.ResumeWindow < 0 {
		return nil
	}
	s := &resumeStore{
		window:  opts.ResumeWindow,
		dir:     opts.Checkpoint,
		entries: make(map[[32]byte]*retained),
	}
	if s.dir == "" {
		return s
	}
	states, _ := checkpoint.LoadDir(s.dir)
	for id, st := range states {
		if !st.HasContent {
			checkpoint.Remove(s.dir, id)
			continue
		}
		s.insert(&retained{
			content:    st.Content,
			transfer:   id,
			objectSize: st.ObjectSize,
			packetSize: int(st.PacketSize),
			obj:        st.Object,
			words:      st.Words,
			received:   int(st.Received),
		})
	}
	return s
}

// retain keeps a failed single-flow transfer's state under the content
// identity its CHECK announced, so a later CHECK for that content within the
// window can pick it up. Striped plans are never retained, and neither is an
// empty receiver; a complete one is kept like any other — it is the fully
// restored transfer whose answer never reached the sender, and must stay
// claimable. Checkpoint IO is best-effort: a full disk must not turn
// retention into a failure.
func (s *resumeStore) retain(plan recvPlan, rcv *core.Receiver) {
	if s == nil || plan.striped() {
		return
	}
	st := rcv.Stats()
	if st.Received == 0 {
		return
	}
	ret := &retained{
		content:    plan.checkDigest,
		transfer:   plan.base,
		objectSize: plan.objectSize,
		packetSize: plan.packetSize,
		obj:        rcv.Object(),
		words:      rcv.HaveWords(nil),
		received:   st.Received,
	}
	s.insert(ret)
	if s.dir != "" {
		_ = checkpoint.Save(s.dir, &checkpoint.State{
			Transfer:   ret.transfer,
			ObjectSize: ret.objectSize,
			PacketSize: uint32(ret.packetSize),
			Received:   uint32(ret.received),
			Words:      ret.words,
			Object:     ret.obj,
			Content:    ret.content,
			HasContent: true,
		})
	}
}

// insert installs one entry and arms its expiry timer. It replaces the entry
// held for the same content, and the one held under the same transfer id —
// whose checkpoint file the new entry's would overwrite — and evicts the
// oldest entry past maxRetained.
func (s *resumeStore) insert(ret *retained) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.content == ret.content || e.transfer == ret.transfer {
			s.drop(e)
		}
	}
	if len(s.entries) >= maxRetained {
		var oldest *retained
		for _, e := range s.entries {
			if oldest == nil || e.retainedAt.Before(oldest.retainedAt) {
				oldest = e
			}
		}
		s.drop(oldest)
	}
	ret.retainedAt = time.Now()
	if s.window > 0 {
		ret.timer = time.AfterFunc(s.window, func() { s.expire(ret) })
	}
	s.entries[ret.content] = ret
}

// drop removes one entry and its checkpoint, under mu.
func (s *resumeStore) drop(ret *retained) {
	if ret.timer != nil {
		ret.timer.Stop()
	}
	delete(s.entries, ret.content)
	if s.dir != "" {
		checkpoint.Remove(s.dir, ret.transfer)
	}
}

// expire drops one entry when its grace window lapses. The identity check
// keeps a stale timer from reaping a newer entry for the same content.
func (s *resumeStore) expire(ret *retained) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[ret.content] == ret {
		s.drop(ret)
	}
}

// claim removes and returns the state retained for the content a
// single-flow plan's CHECK announced, when its object and packet size match
// the plan's; anything else is a miss that leaves the store as it was. A
// claimed transfer that fails, its answer included, is retained again.
func (s *resumeStore) claim(plan recvPlan) *retained {
	if s == nil || plan.striped() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ret := s.entries[plan.checkDigest]
	if ret == nil || ret.objectSize != plan.objectSize || ret.packetSize != plan.packetSize {
		return nil
	}
	s.drop(ret)
	return ret
}
