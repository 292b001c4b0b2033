// Package metrics is the live observability layer of the real-network FOBS
// runtime: a low-overhead registry of per-transfer counters and lifecycle
// events that the sender, receiver, session and multi-transfer server
// drivers feed while a transfer is in flight.
//
// The paper's evaluation is entirely about measured behaviour — goodput,
// retransmission cost, duplicate rate as a function of batch size and ack
// frequency — and the simulated runtime already exposes those quantities
// through internal/stats and internal/trace. This package gives the socket
// runtime the same visibility, live: every quantity the paper reports is a
// counter here, sampled into trace series so a running transfer can emit
// the same CSV/ASCII charts the simulator produces.
//
// Design constraints, in order:
//
//  1. The hot paths (one note per datagram and per acknowledgement) must
//     not allocate and must not take locks: every per-packet quantity is an
//     atomic counter on a pre-allocated Transfer handle, and the
//     retransmission classifier is a test-and-set on a pre-sized atomic
//     bitmap. The hot-path allocation gates in internal/udprt run with
//     metrics enabled to keep this honest.
//  2. Lifecycle events — internal/obs's vocabulary: handshake, rounds,
//     completion, abort, watchdog firings and the rest — go through one
//     Transfer.Event into a fixed-size lock-free ring (internal/spine), so
//     recording an event never blocks a transfer loop and a crashed or
//     wedged transfer leaves its last events readable.
//  3. Everything is nil-safe: a nil *Registry hands out nil *Transfer
//     handles whose methods are no-ops, so drivers instrument
//     unconditionally and pay one predictable nil check when metrics are
//     off.
package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/spine"
	"github.com/hpcnet/fobs/internal/stats"
)

// Outcome is a transfer's terminal state.
type Outcome uint8

const (
	// OutcomeRunning means the transfer has not finished.
	OutcomeRunning Outcome = iota
	// OutcomeCompleted means the transfer delivered the whole object.
	OutcomeCompleted
	// OutcomeAborted means the transfer ended on an error or ABORT.
	OutcomeAborted
)

func (o Outcome) String() string {
	switch o {
	case OutcomeRunning:
		return "running"
	case OutcomeCompleted:
		return "completed"
	case OutcomeAborted:
		return "aborted"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// MarshalJSON renders the outcome as its name.
func (o Outcome) MarshalJSON() ([]byte, error) { return []byte(`"` + o.String() + `"`), nil }

// UnmarshalJSON parses an outcome name, so snapshots round-trip through
// JSON (the flight-recorder trailer embeds one).
func (o *Outcome) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"running"`:
		*o = OutcomeRunning
	case `"completed"`:
		*o = OutcomeCompleted
	case `"aborted"`:
		*o = OutcomeAborted
	default:
		return fmt.Errorf("metrics: unknown outcome %s", b)
	}
	return nil
}

// ringSize is the number of retained events. 256 comfortably covers the
// lifecycle traffic of a multi-transfer server's recent past (a clean
// transfer emits 6 or 7 events per endpoint).
const ringSize = 256

// historyCap bounds how many finished transfers a registry retains; older
// snapshots are dropped oldest-first so a long-lived server's registry
// cannot grow without bound.
const historyCap = 256

// Registry collects the metrics of every transfer an endpoint (or a whole
// multi-transfer server) runs. The zero value is not usable; construct with
// New. All methods are safe for concurrent use, and safe on a nil receiver
// (they no-op or return zero values).
type Registry struct {
	start time.Time
	// ring holds the recent lifecycle events, a slot each: the instant, then
	// transfer (high 32 bits), role (8) and kind (8) packed, then the arg.
	ring *spine.Ring

	// retries and resumes count recovery actions, which span transfers (a
	// retried Send registers a fresh Transfer handle per attempt) and so
	// live on the registry.
	retries atomic.Int64
	resumes atomic.Int64

	mu       sync.Mutex
	active   map[transferKey]*Transfer
	finished []TransferSnapshot

	// gmu guards the named-gauge map (see gauge.go); a separate lock so
	// orchestration-layer gauge updates never contend with transfer
	// bookkeeping.
	gmu    sync.Mutex
	gauges map[string]float64

	// hmu guards the named-histogram map (see namedhist.go); observations
	// only hold it for the name lookup.
	hmu   sync.Mutex
	hists map[string]*Histogram

	sampler samplerState
}

// transferKey identifies one endpoint of one transfer: a loopback test
// registers both roles of the same id in one registry.
type transferKey struct {
	id   uint32
	role obs.Role
}

// New returns an empty registry whose clock starts now.
func New() *Registry {
	return &Registry{
		start:  time.Now(),
		ring:   spine.NewRing(ringSize),
		active: make(map[transferKey]*Transfer),
	}
}

// Since returns the registry-relative timestamp of the given instant.
func (r *Registry) Since(t time.Time) time.Duration { return t.Sub(r.start) }

// now returns the registry-relative current time.
func (r *Registry) now() time.Duration { return time.Since(r.start) }

// StartSender registers the sending end of a transfer: packetsNeeded is the
// object's packet count and objectBytes its size. The returned handle is
// what the driver feeds; it is nil (and safe to use) when the registry is
// nil. Starting a role+id pair that is already active replaces the old
// handle, snapshotting it into history first — ids are reusable once a
// transfer ends.
func (r *Registry) StartSender(id uint32, packetsNeeded int, objectBytes int64) *Transfer {
	return r.startTransfer(id, obs.RoleSender, packetsNeeded, objectBytes)
}

// StartReceiver registers the receiving end of a transfer.
func (r *Registry) StartReceiver(id uint32, packetsNeeded int, objectBytes int64) *Transfer {
	return r.startTransfer(id, obs.RoleReceiver, packetsNeeded, objectBytes)
}

// Supervisor returns the handle of a sending transfer's retry supervisor:
// its events (KindRetry) reach the ring and the registry's retry count,
// but it is registered nowhere, so it is no transfer of the snapshot's.
// Nil (and safe to use) when the registry is nil.
func (r *Registry) Supervisor(id uint32) *Transfer {
	if r == nil {
		return nil
	}
	return &Transfer{reg: r, id: id, role: obs.RoleSender}
}

func (r *Registry) startTransfer(id uint32, role obs.Role, packetsNeeded int, objectBytes int64) *Transfer {
	if r == nil {
		return nil
	}
	t := &Transfer{
		reg:         r,
		id:          id,
		role:        role,
		needed:      int64(packetsNeeded),
		objectBytes: objectBytes,
	}
	if role == obs.RoleSender && packetsNeeded > 0 {
		t.sentOnce = make([]atomic.Uint64, (packetsNeeded+63)/64)
		t.firstSendNs = make([]int64, packetsNeeded)
		t.lastSendNs = make([]int64, packetsNeeded)
		t.ackDelay = new(Histogram)
		t.rtt = new(Histogram)
	}
	t.startedNs.Store(int64(r.now()))
	key := transferKey{id: id, role: role}
	r.mu.Lock()
	if old := r.active[key]; old != nil {
		r.retireLocked(old)
	}
	r.active[key] = t
	r.mu.Unlock()
	return t
}

// retireLocked moves a transfer into the finished history. Caller holds
// r.mu.
func (r *Registry) retireLocked(t *Transfer) {
	r.finished = append(r.finished, t.snapshot())
	if len(r.finished) > historyCap {
		r.finished = r.finished[len(r.finished)-historyCap:]
	}
}

// finish is called by a transfer's first outcome event exactly once: it
// removes the handle from the active set and archives its final snapshot.
func (r *Registry) finish(t *Transfer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := transferKey{id: t.id, role: t.role}
	if r.active[key] == t {
		delete(r.active, key)
	}
	r.retireLocked(t)
}

// Event is one lifecycle occurrence pulled out of the ring.
type Event struct {
	// At is the event instant relative to the registry's start.
	At time.Duration `json:"at_ns"`
	// Transfer and Role identify the endpoint the event belongs to.
	Transfer uint32   `json:"transfer"`
	Role     obs.Role `json:"role"`
	Kind     obs.Kind `json:"kind"`
	// Arg carries kind-specific detail (see obs.Kind): the abort-reason
	// code for KindAbort, the attempt for KindRetry, zero for most.
	Arg uint64 `json:"arg,omitempty"`
}

// Events returns the lifecycle events still held in the ring, oldest
// first. The ring is fixed-size; a busy registry only retains the most
// recent events.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	raw := r.ring.Snapshot(nil)
	if len(raw) == 0 {
		return nil
	}
	out := make([]Event, 0, len(raw)/spine.SlotBytes)
	for ; len(raw) > 0; raw = raw[spine.SlotBytes:] {
		at, meta, arg := spine.Words(raw)
		out = append(out, Event{
			At:       time.Duration(at),
			Transfer: uint32(meta >> 32),
			Role:     obs.Role(meta >> 8),
			Kind:     obs.Kind(meta),
			Arg:      arg,
		})
	}
	return out
}

// record publishes one lifecycle event. It never blocks: an event lapped
// by ringSize newer ones is simply overwritten.
func (r *Registry) record(at time.Duration, transfer uint32, role obs.Role, kind obs.Kind, arg uint64) {
	r.ring.Push(uint64(at), uint64(transfer)<<32|uint64(role)<<8|uint64(kind), arg)
}

// Snapshot captures the registry's current state: every active transfer,
// the retained finished history (oldest first), aggregate totals across
// both, and the event ring.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	transfers := make([]TransferSnapshot, 0, len(r.finished)+len(r.active))
	transfers = append(transfers, r.finished...)
	for _, t := range r.active {
		transfers = append(transfers, t.snapshot())
	}
	r.mu.Unlock()

	snap := Snapshot{
		At:         r.now(),
		Transfers:  transfers,
		Events:     r.Events(),
		Retries:    r.retries.Load(),
		Resumes:    r.resumes.Load(),
		Gauges:     r.gaugesSnapshot(),
		Histograms: r.histsSnapshot(),
	}
	for i := range transfers {
		snap.Totals.add(&transfers[i])
		if transfers[i].Outcome == OutcomeRunning {
			snap.Active++
		}
	}
	return snap
}

// Snapshot is one observation of a whole registry.
type Snapshot struct {
	// At is the observation instant, relative to the registry's start.
	At time.Duration `json:"at_ns"`
	// Active counts transfers still running.
	Active int `json:"active"`
	// Totals aggregates the counters of every transfer the registry has
	// seen (running and finished).
	Totals Totals `json:"totals"`
	// Transfers lists finished transfers (oldest first, capped) followed
	// by running ones.
	Transfers []TransferSnapshot `json:"transfers"`
	// Events is the retained lifecycle event ring, oldest first.
	Events []Event `json:"events"`
	// Retries counts sender-supervisor retry attempts; Resumes counts
	// handshakes answered from retained state (either role; a dedup hit is
	// no resume). Registry-wide: one logical transfer spans several
	// Transfer handles when retried.
	Retries int64 `json:"retries,omitempty"`
	Resumes int64 `json:"resumes,omitempty"`
	// Gauges holds the registry's named instantaneous values (queue
	// depths, worker occupancy, rate caps — see Registry.SetGauge), absent
	// when none were ever set.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms holds the registry's named distributions (task queue
	// wait, time-to-done, attempts — see Registry.ObserveHistogram),
	// absent when none were ever observed.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Find returns the snapshot of the given transfer endpoint and whether it
// was present. When an id was reused, the most recent entry wins.
func (s Snapshot) Find(id uint32, role obs.Role) (TransferSnapshot, bool) {
	for i := len(s.Transfers) - 1; i >= 0; i-- {
		if t := s.Transfers[i]; t.Transfer == id && t.Role == role {
			return t, true
		}
	}
	return TransferSnapshot{}, false
}

// Totals aggregates counters across transfers. Fields mirror
// TransferSnapshot; see there for meanings.
type Totals struct {
	PacketsSent     int64 `json:"packets_sent"`
	Retransmits     int64 `json:"retransmits"`
	PacketsRestored int64 `json:"packets_restored"`
	BytesSent       int64 `json:"bytes_sent"`
	AcksReceived    int64 `json:"acks_received"`
	Rounds          int64 `json:"rounds"`
	Stalls          int64 `json:"stalls"`
	DataDemuxed     int64 `json:"data_demuxed"`
	Fresh           int64 `json:"packets_fresh"`
	Duplicates      int64 `json:"duplicates"`
	Rejected        int64 `json:"rejected"`
	BytesReceived   int64 `json:"bytes_received"`
	AcksSent        int64 `json:"acks_sent"`
	IdleTimeouts    int64 `json:"idle_timeouts"`
	Completed       int64 `json:"completed"`
	Aborted         int64 `json:"aborted"`
}

func (a *Totals) add(t *TransferSnapshot) {
	a.PacketsSent += t.PacketsSent
	a.Retransmits += t.Retransmits
	a.PacketsRestored += t.PacketsRestored
	a.BytesSent += t.BytesSent
	a.AcksReceived += t.AcksReceived
	a.Rounds += t.Rounds
	a.Stalls += t.Stalls
	a.DataDemuxed += t.DataDemuxed
	a.Fresh += t.Fresh
	a.Duplicates += t.Duplicates
	a.Rejected += t.Rejected
	a.BytesReceived += t.BytesReceived
	a.AcksSent += t.AcksSent
	a.IdleTimeouts += t.IdleTimeouts
	switch t.Outcome {
	case OutcomeCompleted:
		a.Completed++
	case OutcomeAborted:
		a.Aborted++
	}
}

// TransferSnapshot is the frozen state of one transfer endpoint. Sender
// fields are zero on receiver snapshots and vice versa. Durations are
// relative to the registry's start; zero means "has not happened yet"
// (StartedAt is always set, so the zero ambiguity only affects transfers
// registered in the registry's first nanosecond — tolerable).
type TransferSnapshot struct {
	Transfer uint32   `json:"transfer"`
	Role     obs.Role `json:"role"`
	// PacketsNeeded is the object's packet count; ObjectBytes its size.
	PacketsNeeded int64 `json:"packets_needed"`
	ObjectBytes   int64 `json:"object_bytes"`

	// Sender side. PacketsSent counts every data packet placed on the
	// wire; Retransmits counts the subset whose sequence number had been
	// sent before, so at completion PacketsSent == PacketsNeeded -
	// PacketsRestored + Retransmits (PacketsRestored is zero except on
	// resumed transfers, where the HAVE bitmap excused that many packets
	// from transmission). KnownReceived is the receiver's cumulative count
	// as of the last acknowledgement.
	PacketsSent   int64 `json:"packets_sent"`
	Retransmits   int64 `json:"retransmits"`
	BytesSent     int64 `json:"bytes_sent"`
	AcksReceived  int64 `json:"acks_received"`
	KnownReceived int64 `json:"known_received"`
	// PacketsRestored counts packets a resume handshake or a dedup hit
	// marked already delivered before this run's first send (sender role)
	// or carried over from retained state or the content cache (receiver
	// role).
	PacketsRestored int64 `json:"packets_restored,omitempty"`
	// Rounds counts batch-send phases that placed at least one packet.
	Rounds int64 `json:"rounds"`
	Stalls int64 `json:"stalls"`

	// Receiver side. DataDemuxed counts well-formed data packets routed
	// to this transfer; every one is classified as exactly one of Fresh,
	// Duplicates or Rejected, so Fresh + Duplicates + Rejected ==
	// DataDemuxed always.
	DataDemuxed   int64 `json:"data_demuxed"`
	Fresh         int64 `json:"packets_fresh"`
	Duplicates    int64 `json:"duplicates"`
	Rejected      int64 `json:"rejected"`
	BytesReceived int64 `json:"bytes_received"`
	AcksSent      int64 `json:"acks_sent"`
	IdleTimeouts  int64 `json:"idle_timeouts"`

	// Phase timestamps, relative to the registry's start. FirstDataAt is
	// the transfer's KindRounds: its first data batch on the wire (sender)
	// or its first data packet demuxed (receiver).
	StartedAt   time.Duration `json:"started_at_ns"`
	HandshakeAt time.Duration `json:"handshake_at_ns"`
	FirstDataAt time.Duration `json:"first_data_at_ns"`
	DoneAt      time.Duration `json:"done_at_ns"`

	Outcome Outcome `json:"outcome"`
	// AbortReason carries the wire.AbortReason code when Outcome is
	// aborted (stored as a plain integer to keep this package free of
	// protocol imports).
	AbortReason uint32 `json:"abort_reason,omitempty"`

	// AckDelay and RTT are the sender's per-packet latency histograms
	// (nanoseconds): AckDelay is first-send → acknowledgement, RTT is
	// last-send → acknowledgement. Nil on receiver snapshots and on
	// senders that saw no acknowledged packet.
	AckDelay *HistogramSnapshot `json:"ack_delay,omitempty"`
	RTT      *HistogramSnapshot `json:"rtt,omitempty"`

	// IO is the transfer's socket-level syscall accounting, filled when
	// the driver's IO loop ends.
	IO stats.IOCounters `json:"io"`
}

// Transfer is the live handle one endpoint's driver feeds. Event and the
// Note methods are safe for concurrent use and no-op on a nil receiver; none
// allocates or locks, but for the first outcome event, which archives the
// handle under the registry's lock.
type Transfer struct {
	reg         *Registry
	id          uint32
	role        obs.Role
	needed      int64
	objectBytes int64

	packetsSent   atomic.Int64
	firstSends    atomic.Int64
	restored      atomic.Int64
	bytesSent     atomic.Int64
	acksReceived  atomic.Int64
	knownReceived atomic.Int64
	rounds        atomic.Int64
	stalls        atomic.Int64

	demuxed       atomic.Int64
	fresh         atomic.Int64
	duplicates    atomic.Int64
	rejected      atomic.Int64
	bytesReceived atomic.Int64
	acksSent      atomic.Int64
	idles         atomic.Int64

	startedNs   atomic.Int64
	handshakeNs atomic.Int64
	firstDataNs atomic.Int64
	doneNs      atomic.Int64
	outcome     atomic.Uint32
	abortReason atomic.Uint32

	// sentOnce marks sequence numbers that have been sent at least once,
	// classifying later sends as retransmissions (sender role only).
	sentOnce []atomic.Uint64

	// Per-packet send timestamps feeding the latency histograms (sender
	// role only). Plain slices: NoteDataSent and NoteSeqAcked both run on
	// the transfer's single sending goroutine, and nothing else reads
	// them — only the histograms (which are atomic) cross goroutines.
	firstSendNs []int64
	lastSendNs  []int64
	// ackDelay observes first-send → acknowledgement per packet (the
	// paper-relevant recovery latency, retransmission waits included);
	// rtt observes last-send → acknowledgement, a lower-bound round-trip
	// sample per packet.
	ackDelay *Histogram
	rtt      *Histogram

	// cold guards the rarely-written, non-atomic tail (IO counters).
	cold sync.Mutex
	io   stats.IOCounters
}

// ID returns the transfer tag, or zero on a nil handle.
func (t *Transfer) ID() uint32 {
	if t == nil {
		return 0
	}
	return t.id
}

// Event records one lifecycle moment of the endpoint in the registry's
// ring, with the state that depends on its kind: the handshake and
// first-data stamps (KindHandshake, KindRounds — the first only), the
// watchdog counts (KindStall, KindIdle), packets a resume or a dedup hit
// excused (KindResume, KindSkip; a resume also counts in Resumes), the
// registry's retry count (KindRetry) and the outcome (KindComplete, or
// KindAbort with the wire abort-reason code as arg). Only the first
// outcome takes effect: it archives the transfer, and a later one is not
// recorded at all.
func (t *Transfer) Event(kind obs.Kind, arg uint64) {
	if t == nil {
		return
	}
	now := t.reg.now()
	switch kind {
	case obs.KindHandshake:
		t.handshakeNs.Store(int64(now))
	case obs.KindRounds:
		t.firstDataNs.CompareAndSwap(0, int64(now))
	case obs.KindStall:
		t.stalls.Add(1)
	case obs.KindIdle:
		t.idles.Add(1)
	case obs.KindResume:
		t.restored.Add(int64(arg))
		t.reg.resumes.Add(1)
	case obs.KindSkip:
		t.restored.Add(int64(arg))
	case obs.KindRetry:
		t.reg.retries.Add(1)
	case obs.KindComplete, obs.KindAbort:
		outcome := OutcomeCompleted
		if kind == obs.KindAbort {
			outcome = OutcomeAborted
		}
		if !t.outcome.CompareAndSwap(uint32(OutcomeRunning), uint32(outcome)) {
			return
		}
		t.abortReason.Store(uint32(arg))
		t.doneNs.Store(int64(now))
		defer t.reg.finish(t)
	}
	t.reg.record(now, t.id, t.role, kind, arg)
}

// NoteDataSent records one data packet placed on the wire: seq is its
// sequence number (used to classify retransmissions), n its payload bytes.
func (t *Transfer) NoteDataSent(seq uint32, n int) {
	if t == nil {
		return
	}
	t.packetsSent.Add(1)
	t.bytesSent.Add(int64(n))
	if w := int(seq) / 64; w < len(t.sentOnce) {
		bit := uint64(1) << (seq % 64)
		if old := t.sentOnce[w].Load(); old&bit == 0 {
			// Plain load/store pair: drivers send a given transfer's
			// packets from one goroutine, so no first-send can be lost;
			// the atomic store only orders the word against concurrent
			// snapshot readers.
			t.sentOnce[w].Store(old | bit)
			t.firstSends.Add(1)
		}
	}
	if int(seq) < len(t.lastSendNs) {
		now := int64(t.reg.now())
		t.lastSendNs[seq] = now
		if t.firstSendNs[seq] == 0 {
			t.firstSendNs[seq] = now
		}
	}
}

// NoteSeqAcked records that one packet became known-received: the latency
// histograms get the delay since the packet's first send (ack delay) and
// since its most recent send (an RTT sample). Drivers call it from the
// sending goroutine, once per newly acknowledged packet.
func (t *Transfer) NoteSeqAcked(seq uint32) {
	if t == nil || int(seq) >= len(t.firstSendNs) {
		return
	}
	first := t.firstSendNs[seq]
	if first == 0 {
		return // acked a packet never sent: corrupt peer, nothing to time
	}
	now := int64(t.reg.now())
	t.ackDelay.Observe(now - first)
	t.rtt.Observe(now - t.lastSendNs[seq])
}

// NoteRound records one batch-send phase that placed at least one packet.
func (t *Transfer) NoteRound() {
	if t == nil {
		return
	}
	t.rounds.Add(1)
}

// NoteAckReceived records one acknowledgement consumed by the sender;
// received is the receiver's cumulative delivered count the ack carried.
func (t *Transfer) NoteAckReceived(received int64) {
	if t == nil {
		return
	}
	t.acksReceived.Add(1)
	// Acks can arrive reordered; the gauge keeps the maximum.
	for {
		cur := t.knownReceived.Load()
		if received <= cur || t.knownReceived.CompareAndSwap(cur, received) {
			return
		}
	}
}

// NoteDataFresh records one never-before-seen data packet of n payload
// bytes delivered to the receiver.
func (t *Transfer) NoteDataFresh(n int) {
	if t == nil {
		return
	}
	t.demuxed.Add(1)
	t.fresh.Add(1)
	t.bytesReceived.Add(int64(n))
}

// NoteDataDuplicate records one retransmission of a packet the receiver
// already held.
func (t *Transfer) NoteDataDuplicate() {
	if t == nil {
		return
	}
	t.demuxed.Add(1)
	t.duplicates.Add(1)
}

// NoteDataRejected records one well-formed packet for this transfer that
// the receiver state machine refused (wrong total, bad payload length).
func (t *Transfer) NoteDataRejected() {
	if t == nil {
		return
	}
	t.demuxed.Add(1)
	t.rejected.Add(1)
}

// NoteAckSent records one acknowledgement of n wire bytes sent by the
// receiver.
func (t *Transfer) NoteAckSent(n int) {
	if t == nil {
		return
	}
	t.acksSent.Add(1)
}

// NoteIO stores the endpoint's socket-level counters; drivers call it once
// when their IO loop ends.
func (t *Transfer) NoteIO(c stats.IOCounters) {
	if t == nil {
		return
	}
	t.cold.Lock()
	t.io.Add(c)
	t.cold.Unlock()
}

// Snapshot freezes the transfer's current counters.
func (t *Transfer) Snapshot() TransferSnapshot {
	if t == nil {
		return TransferSnapshot{}
	}
	return t.snapshot()
}

func (t *Transfer) snapshot() TransferSnapshot {
	s := TransferSnapshot{
		Transfer:      t.id,
		Role:          t.role,
		PacketsNeeded: t.needed,
		ObjectBytes:   t.objectBytes,

		PacketsSent:     t.packetsSent.Load(),
		PacketsRestored: t.restored.Load(),
		BytesSent:       t.bytesSent.Load(),
		AcksReceived:    t.acksReceived.Load(),
		KnownReceived:   t.knownReceived.Load(),
		Rounds:          t.rounds.Load(),
		Stalls:          t.stalls.Load(),

		DataDemuxed:   t.demuxed.Load(),
		Fresh:         t.fresh.Load(),
		Duplicates:    t.duplicates.Load(),
		Rejected:      t.rejected.Load(),
		BytesReceived: t.bytesReceived.Load(),
		AcksSent:      t.acksSent.Load(),
		IdleTimeouts:  t.idles.Load(),

		StartedAt:   time.Duration(t.startedNs.Load()),
		HandshakeAt: time.Duration(t.handshakeNs.Load()),
		FirstDataAt: time.Duration(t.firstDataNs.Load()),
		DoneAt:      time.Duration(t.doneNs.Load()),

		Outcome:     Outcome(t.outcome.Load()),
		AbortReason: t.abortReason.Load(),
	}
	s.Retransmits = s.PacketsSent - t.firstSends.Load()
	if h := t.ackDelay.Snapshot(); h.Count > 0 {
		s.AckDelay = &h
	}
	if h := t.rtt.Snapshot(); h.Count > 0 {
		s.RTT = &h
	}
	t.cold.Lock()
	s.IO = t.io
	t.cold.Unlock()
	return s
}
