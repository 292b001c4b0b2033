// Resumable transfers, receive side: when a transfer dies mid-flight the
// receiver already holds most of the object, and the paper's whole-object
// selective-acknowledgement bitmap describes the hole pattern exactly. The
// resume store retains that state (buffer + got-bitmap) for a grace window
// keyed by transfer id, so a reconnecting sender's RESUME can be answered
// with a HAVE bitmap and only the missing packets cross the network again.
// With Options.Checkpoint set the retained state is also persisted through
// internal/checkpoint, surviving a receiver restart — the object-based
// analogue of GridFTP's restart markers.
package udprt

import (
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// maxRetained bounds how many aborted transfers one endpoint keeps resume
// state for; beyond it the oldest entry is evicted. Retained buffers are
// whole objects, so the bound is deliberately small.
const maxRetained = 16

// retained is one aborted transfer's resume state.
type retained struct {
	objectSize uint64
	packetSize int
	obj        []byte   // partially filled object buffer
	words      []uint64 // got-bitmap
	received   int      // distinct packets held
	// digest is the whole-object CRC the sender announced, when known; a
	// classic HELLO carries none, so hasDigest guards the claim-time check.
	digest     uint32
	hasDigest  bool
	timer      *time.Timer
	retainedAt time.Time
}

// resumeStore holds retained transfers for a listener or server. A nil
// store (ResumeWindow < 0) refuses every RESUME and retains nothing; all
// methods are nil-safe.
type resumeStore struct {
	window time.Duration
	dir    string // checkpoint directory; empty = memory only

	mu      sync.Mutex
	entries map[uint32]*retained
}

// newResumeStore builds the store for defaulted options, loading any
// checkpoints a previous process left under Options.Checkpoint. A negative
// ResumeWindow disables retention entirely (nil store).
func newResumeStore(opts Options) *resumeStore {
	if opts.ResumeWindow < 0 {
		return nil
	}
	s := &resumeStore{
		window:  opts.ResumeWindow,
		dir:     opts.Checkpoint,
		entries: make(map[uint32]*retained),
	}
	if s.dir != "" {
		states, err := checkpoint.LoadDir(s.dir)
		if err == nil {
			for id, st := range states {
				s.put(id, &retained{
					objectSize: st.ObjectSize,
					packetSize: int(st.PacketSize),
					obj:        st.Object,
					words:      st.Words,
					received:   int(st.Received),
					digest:     st.Digest,
					hasDigest:  st.HasDigest,
				})
			}
		}
	}
	return s
}

// retainReceiver keeps a single-flow receiver's state so a RESUME within the
// window can pick it up. An empty receiver retains nothing; a complete one is
// kept like any other — it is the fully restored transfer whose HAVE never
// reached the sender, and must stay claimable. digest is the sender-announced
// object CRC when known (a RESUME carries one, a classic HELLO does not).
func (s *resumeStore) retainReceiver(transfer uint32, objectSize uint64, packetSize int,
	rcv *core.Receiver, digest uint32, hasDigest bool) {
	if s == nil || rcv == nil {
		return
	}
	st := rcv.Stats()
	if st.Received == 0 {
		return
	}
	s.put(transfer, &retained{
		objectSize: objectSize,
		packetSize: packetSize,
		obj:        rcv.Object(),
		words:      rcv.HaveWords(nil),
		received:   st.Received,
		digest:     digest,
		hasDigest:  hasDigest,
	})
}

// put installs (or replaces) one retained entry, arming its expiry timer,
// evicting the oldest entry past maxRetained, and persisting a checkpoint
// when a directory is configured. Checkpoint IO is best-effort: a full
// disk must not turn retention into a failure.
func (s *resumeStore) put(transfer uint32, ret *retained) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if old := s.entries[transfer]; old != nil && old.timer != nil {
		old.timer.Stop()
	}
	if _, replacing := s.entries[transfer]; !replacing && len(s.entries) >= maxRetained {
		var oldestID uint32
		var oldest *retained
		for id, e := range s.entries {
			if oldest == nil || e.retainedAt.Before(oldest.retainedAt) {
				oldestID, oldest = id, e
			}
		}
		if oldest.timer != nil {
			oldest.timer.Stop()
		}
		delete(s.entries, oldestID)
		if s.dir != "" {
			checkpoint.Remove(s.dir, oldestID)
		}
	}
	ret.retainedAt = time.Now()
	if s.window > 0 {
		ret.timer = time.AfterFunc(s.window, func() { s.expire(transfer, ret) })
	}
	s.entries[transfer] = ret
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		_ = checkpoint.Save(dir, &checkpoint.State{
			Transfer:   transfer,
			ObjectSize: ret.objectSize,
			PacketSize: uint32(ret.packetSize),
			Digest:     ret.digest,
			HasDigest:  ret.hasDigest,
			Received:   uint32(ret.received),
			Words:      ret.words,
			Object:     ret.obj,
		})
	}
}

// expire drops one entry when its grace window lapses. The identity check
// keeps a stale timer from reaping a newer entry under a reused id.
func (s *resumeStore) expire(transfer uint32, ret *retained) {
	s.mu.Lock()
	owned := s.entries[transfer] == ret
	if owned {
		delete(s.entries, transfer)
	}
	dir := s.dir
	s.mu.Unlock()
	if owned && dir != "" {
		checkpoint.Remove(dir, transfer)
	}
}

// claim validates a RESUME against the retained entry for its transfer id
// and, on success, removes and returns the entry (a resumed run that fails,
// its answer included, re-retains it). On refusal the entry stays put and the returned abort
// reason tells the sender whether to degrade to a fresh transfer
// (ResumeUnknown, BadHello) or give up (DigestMismatch — the peer is
// resuming a different object under a known id).
func (s *resumeStore) claim(res wire.Resume) (*retained, wire.AbortReason) {
	if s == nil {
		return nil, wire.AbortResumeUnknown
	}
	s.mu.Lock()
	ret := s.entries[res.Transfer]
	if ret == nil {
		s.mu.Unlock()
		return nil, wire.AbortResumeUnknown
	}
	if ret.objectSize != res.ObjectSize || ret.packetSize != int(res.PacketSize) {
		s.mu.Unlock()
		return nil, wire.AbortBadHello
	}
	if ret.hasDigest && ret.digest != res.Digest {
		s.mu.Unlock()
		return nil, wire.AbortDigestMismatch
	}
	if ret.timer != nil {
		ret.timer.Stop()
	}
	delete(s.entries, res.Transfer)
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		checkpoint.Remove(dir, res.Transfer)
	}
	// The RESUME's digest is authoritative from here: the completed object
	// is verified against it before COMPLETE goes out.
	ret.digest, ret.hasDigest = res.Digest, true
	return ret, 0
}

// resumeFrame reconstructs the wire announcement a resume plan arrived as,
// for claim validation.
func (p recvPlan) resumeFrame() wire.Resume {
	return wire.Resume{
		Transfer:   p.base,
		Streams:    uint16(p.resumeStreams),
		ObjectSize: p.objectSize,
		PacketSize: uint32(p.packetSize),
		Digest:     p.resumeDigest,
	}
}
