package obs

import (
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"github.com/hpcnet/fobs/internal/spine"
)

// defaultRingSize is the per-recorder ring capacity in events. Phase
// events are a handful per transfer lifetime, so even a small ring is
// generous headroom for the 5 ms drain period.
const defaultRingSize = 64

// maxLineBytes bounds one encoded event line; drain buffers are
// pre-sized to ring×maxLineBytes so the drainer never allocates.
const maxLineBytes = 192

// format is what the shared log core (internal/spine) needs to know of a
// span log; the core owns the writer, the recorder registry, the sweep
// goroutine, the write-error latch and Close. Sweeps are flushed through:
// a span log is low-volume, and the value of a 5 ms drain period is that a
// crash loses at most 5 ms of events.
var format = spine.Format{BufSize: 1 << 14, FlushSweeps: true}

// Log is one span log in progress: a shared JSONL destination, a common
// timebase, and the set of per-endpoint recorders feeding it. All
// methods are safe for concurrent use and safe on a nil receiver (Start
// returns a nil recorder; Close no-ops).
type Log struct {
	// RingSize overrides the per-recorder ring capacity (in events) for
	// recorders started after it is set; zero means defaultRingSize.
	// Tests use tiny rings to exercise overload; production leaves it
	// alone.
	RingSize int

	core   *spine.Log
	wallNs int64 // wall clock at the core's epoch; wall_ns = wallNs + t_ns
}

// Create opens path for writing and returns a running Log.
func Create(path string) (*Log, error) {
	core, err := spine.Create(path, format)
	if err != nil {
		return nil, fmt.Errorf("obs: create %s: %w", path, err)
	}
	return newLog(core), nil
}

// NewLog returns a running Log writing to w, for tests and in-memory
// use.
func NewLog(w io.Writer) *Log { return newLog(spine.NewLog(w, format)) }

func newLog(core *spine.Log) *Log {
	return &Log{core: core, wallNs: core.Epoch().UnixNano()}
}

// Start registers one endpoint of a traced transfer and returns its
// recorder. Safe on a nil Log (returns a nil, inert recorder).
func (l *Log) Start(trace TraceID, transfer uint32, role Role) *Recorder {
	if l == nil {
		return nil
	}
	size := l.RingSize
	if size <= 0 {
		size = defaultRingSize
	}
	r := &Recorder{log: l, trace: trace, transfer: transfer, role: role, ring: spine.NewRing(size)}
	// One sweep never yields more events than the ring holds, so sizing
	// the scratch buffers to the ring keeps the drainer allocation-free
	// for the recorder's whole life (the udprt hot-path gates measure
	// process-wide allocations, so the background writer must be quiet
	// too).
	r.raw = make([]byte, 0, r.ring.Len()*spine.SlotBytes)
	r.buf = make([]byte, 0, r.ring.Len()*maxLineBytes)
	hex.Encode(r.traceHex[:], trace[:])
	if !l.core.Add(r, nil) {
		return nil
	}
	return r
}

// Close stops the drainer, performs a final sweep of any recorder still
// open, flushes and — when the Log owns the file — closes it. The first
// underlying write error, if any, is returned. Safe on nil, idempotent,
// and safe to call from several goroutines: every call returns once the
// log is closed.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.core.Close()
}

// Sweep encodes every published event of r, a line each. The Log calls it
// (spine.Source), under its mutex.
func (r *Recorder) Sweep() []byte {
	var dropped uint64
	r.raw, dropped = r.ring.Drain(&r.cursor, r.raw[:0])
	r.dropped += dropped
	r.buf = r.buf[:0]
	for raw := r.raw; len(raw) > 0; raw = raw[spine.SlotBytes:] {
		atNs, kind, arg := spine.Words(raw)
		r.buf = r.appendEvent(r.buf, int64(atNs), Kind(kind), arg)
	}
	return r.buf
}

// Seal discards later events and returns the last lines, closed by a loss
// marker when Finish retired a recorder whose ring overran.
func (r *Recorder) Seal(closing bool) []byte {
	r.finished.Store(true)
	out := r.Sweep()
	if !closing && r.dropped > 0 {
		out = r.appendEvent(out, int64(r.log.core.Since()), KindLost, r.dropped)
	}
	return out
}

// appendEvent hand-rolls one JSONL line into b. Every value is a fixed
// name, a hex id, or an integer — no escaping, no reflection, no
// allocation beyond b's own growth (pre-sized by Start).
func (r *Recorder) appendEvent(b []byte, atNs int64, kind Kind, arg uint64) []byte {
	b = append(b, `{"v":1,"trace":"`...)
	b = append(b, r.traceHex[:]...)
	b = append(b, `","transfer":`...)
	b = strconv.AppendUint(b, uint64(r.transfer), 10)
	b = append(b, `,"role":"`...)
	b = append(b, r.role.String()...)
	b = append(b, `","kind":"`...)
	b = append(b, kind.String()...)
	b = append(b, `","t_ns":`...)
	b = strconv.AppendInt(b, atNs, 10)
	b = append(b, `,"wall_ns":`...)
	b = strconv.AppendInt(b, r.log.wallNs+atNs, 10)
	if arg != 0 {
		b = append(b, `,"arg":`...)
		b = strconv.AppendUint(b, arg, 10)
	}
	b = append(b, '}', '\n')
	return b
}

// Recorder captures one endpoint's lifecycle events. The recording
// methods are allocation-free, lock-free, and safe on a nil receiver
// and from any goroutine.
type Recorder struct {
	log      *Log
	trace    TraceID
	traceHex [32]byte
	transfer uint32
	role     Role
	ring     *spine.Ring

	// finished gates late events from stragglers.
	finished atomic.Bool

	// Drain state, owned by the Log (under its mutex).
	cursor  uint64
	raw     []byte // one sweep's slots as the ring drains them
	buf     []byte // the same, encoded
	dropped uint64
}

// Trace returns the recorder's trace id (zero for a nil recorder).
func (r *Recorder) Trace() TraceID {
	if r == nil {
		return TraceID{}
	}
	return r.trace
}

// Event records one lifecycle event.
func (r *Recorder) Event(kind Kind, arg uint64) {
	if r == nil || r.finished.Load() {
		return
	}
	r.ring.Push(uint64(r.log.core.Since()), uint64(kind), arg)
}

// Finish retires the recorder: a final drain, a loss marker when the
// ring overran, and discard of any later events. Safe on nil; only the
// first call writes.
func (r *Recorder) Finish() {
	if r == nil || r.finished.Swap(true) {
		return
	}
	r.log.core.Retire(r)
}
