package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/spine"
)

// fileMagic opens every .fobrec file: "FOBREC" and a two-digit format
// version. Version 02 carries obs.Kind in event records and obs.Role in
// frame headers; version 01 had flight's own phase codes and roles.
const fileMagic = "FOBREC02"

// Frame types within a .fobrec file. A file is the magic followed by a
// sequence of frames; frames from concurrent transfers interleave freely
// and the reader regroups them by (transfer, role).
const (
	frameStart   = 1 // endpoint announcement: meta payload
	frameRecords = 2 // a run of encoded records
	frameEnd     = 3 // endpoint trailer: drop count + final metrics snapshot
)

// frameHeaderLen is the fixed frame header: marker byte, frame type, role,
// reserved, transfer id (4), payload length (4).
const frameHeaderLen = 12

// frameMarker begins every frame header, so a reader landing mid-stream
// fails loudly instead of misparsing.
const frameMarker = 0xFB

// startPayloadLen is the frameStart payload: packetsNeeded (4), packetSize
// (4), schedule (1), reserved (3), objectBytes (8), startNs (8).
const startPayloadLen = 28

// defaultRingSize is the per-recorder ring capacity in records. At 24
// bytes per record a 64K ring holds ~1.5 MiB — roughly 30 ms of headroom
// at two million records per second, far beyond loopback rates.
const defaultRingSize = 1 << 16

// format is what the shared log core (internal/spine) needs to know of a
// .fobrec file; the core owns the writer, the recorder registry, the sweep
// goroutine, the write-error latch and Close.
var format = spine.Format{Head: fileMagic, BufSize: 1 << 16}

// Log is one .fobrec capture in progress: a shared destination file, a
// common timebase, and the set of per-endpoint recorders feeding it. All
// methods are safe for concurrent use and safe on a nil receiver (Start*
// return nil recorders; Close no-ops).
type Log struct {
	// RingSize overrides the per-recorder ring capacity (in records) for
	// recorders started after it is set; zero means defaultRingSize.
	// Tests use tiny rings to exercise overload; production leaves it
	// alone.
	RingSize int

	core *spine.Log
}

// Create opens path for writing and returns a running Log. The file is
// complete and readable only after Close.
func Create(path string) (*Log, error) {
	core, err := spine.Create(path, format)
	if err != nil {
		return nil, fmt.Errorf("flight: create %s: %w", path, err)
	}
	return &Log{core: core}, nil
}

// NewLog returns a running Log writing to w, for tests and in-memory use.
func NewLog(w io.Writer) *Log { return &Log{core: spine.NewLog(w, format)} }

// StartSender registers the data-sending endpoint of a transfer and
// returns its recorder. packetsNeeded sizes the per-packet attempt table;
// schedule is the core schedule code (0 = circular), recorded so the
// analyzer knows which invariants apply.
func (l *Log) StartSender(transfer uint32, packetsNeeded int, objectBytes int64, packetSize, schedule int) *Recorder {
	if l == nil {
		return nil
	}
	r := l.startRecorder(Meta{
		Transfer:      transfer,
		Role:          obs.RoleSender,
		PacketsNeeded: packetsNeeded,
		PacketSize:    packetSize,
		ObjectBytes:   objectBytes,
		Schedule:      schedule,
	})
	if r != nil && packetsNeeded > 0 {
		r.tx = make([]uint32, packetsNeeded)
	}
	return r
}

// StartReceiver registers the data-receiving endpoint of a transfer.
func (l *Log) StartReceiver(transfer uint32, packetsNeeded int, objectBytes int64, packetSize int) *Recorder {
	if l == nil {
		return nil
	}
	return l.startRecorder(Meta{
		Transfer:      transfer,
		Role:          obs.RoleReceiver,
		PacketsNeeded: packetsNeeded,
		PacketSize:    packetSize,
		ObjectBytes:   objectBytes,
	})
}

func (l *Log) startRecorder(m Meta) *Recorder {
	size := l.RingSize
	if size <= 0 {
		size = defaultRingSize
	}
	m.StartAt = l.core.Since()
	r := &Recorder{core: l.core, meta: m, ring: spine.NewRing(size), lastBatch: -1}
	// One sweep never yields more records than the ring holds, so sizing
	// the drain buffer to the ring keeps the drainer allocation-free for
	// the recorder's whole life (the hot-path gates measure process-wide
	// allocations, so the background writer must be quiet too).
	r.buf = make([]byte, 0, frameHeaderLen+r.ring.Len()*recordBytes)
	var p [startPayloadLen]byte
	be32(p[0:], uint32(m.PacketsNeeded))
	be32(p[4:], uint32(m.PacketSize))
	p[8] = uint8(m.Schedule)
	be64(p[12:], uint64(m.ObjectBytes))
	be64(p[20:], uint64(m.StartAt.Nanoseconds()))
	h := r.frameHeader(frameStart, len(p))
	if !l.core.Add(r, append(h[:], p[:]...)) {
		return nil
	}
	return r
}

// Close stops the drainer, performs a final sweep of any recorder still
// open (emitting its trailer with whatever was captured), flushes and —
// when the Log owns the file — closes it. The first underlying write
// error, if any, is returned. Safe on nil, idempotent, and safe to call
// from several goroutines: every call returns once the log is closed.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.core.Close()
}

// Recorder captures one endpoint's protocol decisions. The recording
// methods are allocation-free, lock-free, and safe on a nil receiver.
// DataSent and AckedSeq additionally assume the driver's usual discipline
// of one sending goroutine per transfer (they maintain the per-packet
// attempt table without atomics); the other methods are safe from any
// goroutine.
type Recorder struct {
	core *spine.Log
	meta Meta
	ring *spine.Ring

	// tx is the per-packet transmit count (sender role): attempt numbers
	// in DataSent records come from here, and AckedSeq snapshots the
	// count at acknowledgement time.
	tx []uint32
	// lastBatch dedups KindBatch records to actual policy changes.
	lastBatch int
	// finished gates late records from stragglers (a server's data loop
	// can race a datagram past the control goroutine's trailer).
	finished atomic.Bool

	// Drain state, owned by the Log (under its mutex); buf opens with room
	// for the records frame's header. snapshot is Finish's, for the trailer.
	cursor   uint64
	buf      []byte
	dropped  uint64
	snapshot []byte
}

// frameHeader is the header of one frame of this endpoint.
func (r *Recorder) frameHeader(typ uint8, payloadLen int) (h [frameHeaderLen]byte) {
	h[0], h[1], h[2] = frameMarker, typ, uint8(r.meta.Role)
	be32(h[4:], r.meta.Transfer)
	be32(h[8:], uint32(payloadLen))
	return h
}

// Sweep moves every published record into one records frame. The Log calls
// it (spine.Source), under its mutex.
func (r *Recorder) Sweep() []byte {
	var dropped uint64
	r.buf, dropped = r.ring.Drain(&r.cursor, r.buf[:frameHeaderLen])
	r.dropped += dropped
	if len(r.buf) == frameHeaderLen {
		return nil
	}
	h := r.frameHeader(frameRecords, len(r.buf)-frameHeaderLen)
	copy(r.buf, h[:])
	return r.buf
}

// Seal discards later records and returns a last records frame and the
// trailer frame: the drop count and, when Finish retired the recorder rather
// than Close, the final metrics snapshot Finish left.
func (r *Recorder) Seal(closing bool) []byte {
	r.finished.Store(true)
	out := r.Sweep()
	var snapshot []byte
	if !closing {
		snapshot = r.snapshot
	}
	var p [12]byte
	be64(p[0:], r.dropped)
	be32(p[8:], uint32(len(snapshot)))
	h := r.frameHeader(frameEnd, len(p)+len(snapshot))
	return append(append(append(out, h[:]...), p[:]...), snapshot...)
}

// Meta describes one recorded endpoint.
type Meta struct {
	Transfer      uint32
	Role          obs.Role
	PacketsNeeded int
	PacketSize    int
	ObjectBytes   int64
	// Schedule is the core schedule code (0 = circular) for sender
	// endpoints; the analyzer's fairness checks apply only to circular
	// recordings.
	Schedule int
	// StartAt is when the endpoint registered, relative to the Log start.
	StartAt time.Duration
}

func (r *Recorder) push(rec Record) {
	if r == nil || r.finished.Load() {
		return
	}
	rec.At = r.core.Since()
	r.ring.Push(rec.words())
}

// DataSent records one data packet placed on the wire; batchIdx is its
// position within the current batch round. The attempt number is derived
// from the recorder's own transmit table.
func (r *Recorder) DataSent(seq uint32, size, batchIdx int) {
	if r == nil || r.finished.Load() {
		return
	}
	attempt := uint32(1)
	if int(seq) < len(r.tx) {
		r.tx[seq]++
		attempt = r.tx[seq]
	}
	r.push(Record{Kind: KindDataSend, Seq: seq, Aux: attempt, Aux2: uint32(batchIdx), Size: uint16(size)})
}

// AckReceived records one acknowledgement consumed by the sender: serial
// is the ack sequence, received the cumulative count it carried, stale
// whether the serial had already been passed. The fragment's newly
// acknowledged packets follow as AckedSeq records.
func (r *Recorder) AckReceived(serial uint32, received int, stale bool) {
	var flag uint8
	if stale {
		flag = 1
	}
	r.push(Record{Kind: KindAckRecv, Seq: serial, Aux: uint32(received), Flag: flag})
}

// AckedSeq records one packet newly acknowledged by the fragment of the
// preceding AckReceived.
func (r *Recorder) AckedSeq(seq uint32) {
	if r == nil || r.finished.Load() {
		return
	}
	var count uint32
	if int(seq) < len(r.tx) {
		count = r.tx[seq]
	}
	r.push(Record{Kind: KindAcked, Seq: seq, Aux: count})
}

// BatchSize records the B policy's chosen size when it changes.
func (r *Recorder) BatchSize(b int) {
	if r == nil || r.finished.Load() || b == r.lastBatch {
		return
	}
	r.lastBatch = b
	r.push(Record{Kind: KindBatch, Seq: uint32(b)})
}

// DataReceived records one data packet routed to the receiver with its
// classification (ClassFresh, ClassDuplicate, ClassRejected).
func (r *Recorder) DataReceived(seq uint32, size int, class uint8) {
	r.push(Record{Kind: KindDataRecv, Seq: seq, Size: uint16(size), Flag: class})
}

// AckSent records one acknowledgement emitted by the receiver.
func (r *Recorder) AckSent(serial uint32, received int, size int) {
	r.push(Record{Kind: KindAckSend, Seq: serial, Aux: uint32(received), Size: uint16(size)})
}

// Event records one lifecycle event of the endpoint; arg is the kind's (the
// abort-reason code for obs.KindAbort), kept to its low 32 bits.
func (r *Recorder) Event(kind obs.Kind, arg uint64) {
	r.push(Record{Kind: KindEvent, Seq: uint32(kind), Aux: uint32(arg)})
}

// Finish retires the recorder, emitting its trailer frame with the final
// metrics snapshot for the analyzer's cross-check. Pass the zero snapshot
// when the run had metrics disabled. Records arriving after Finish (late
// stragglers) are discarded. Safe on nil; only the first call writes.
func (r *Recorder) Finish(snap metrics.TransferSnapshot) {
	if r == nil || r.finished.Swap(true) {
		return
	}
	if js, err := json.Marshal(snap); err == nil {
		r.snapshot = js
	}
	r.core.Retire(r)
}

func be32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

func be64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
