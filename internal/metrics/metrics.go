// Package metrics is the live observability layer of the real-network FOBS
// runtime: a registry of per-transfer counts and lifecycle events that
// the sender, receiver, session and multi-transfer server drivers show
// while a transfer is in flight.
//
// The paper's evaluation is entirely about measured behaviour — goodput,
// retransmission cost, duplicate rate as a function of batch size and ack
// frequency — and the simulated runtime already exposes those quantities
// through internal/stats and internal/trace. This package gives the socket
// runtime the same visibility, live: every quantity the paper reports is a
// count here, sampled into trace series so a running transfer can emit
// the same CSV/ASCII charts the simulator produces.
//
// Design constraints, in order:
//
//  1. Nothing here counts a packet. The protocol's state machines
//     (internal/core) keep the one tally of every quantity, and a Transfer
//     is a view over them: a sending engine publishes its sender's counts
//     at batch boundaries (Publish), and a receiving transfer's counts are
//     read from its receiver under that transfer's lock whenever a
//     snapshot is taken (Follow). The per-packet instrument is the flight
//     recorder (internal/flight), not this package.
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
	for c := OutcomeRunning; c <= OutcomeAborted; c++ {
		if string(b) == `"`+c.String()+`"` {
			*o = c
			return nil
		}
	}
	return fmt.Errorf("metrics: unknown outcome %s", b)
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
	if role == obs.RoleSender {
		t.rtt = new(Histogram)
	}
	t.startedNs.Store(int64(r.now()))
	key := transferKey{id: id, role: role}
	r.mu.Lock()
	if old := r.active[key]; old != nil {
		r.archiveLocked(old.snapshot(false))
	}
	r.active[key] = t
	r.mu.Unlock()
	return t
}

// archiveLocked appends a finished transfer's snapshot to the history.
// Caller holds r.mu.
func (r *Registry) archiveLocked(s TransferSnapshot) {
	r.finished = append(r.finished, s)
	if len(r.finished) > historyCap {
		r.finished = r.finished[len(r.finished)-historyCap:]
	}
}

// finish is called by a transfer's first outcome event exactly once: it
// removes the handle from the active set and archives its final snapshot,
// taken before the registry's lock so that no view is read under it.
func (r *Registry) finish(t *Transfer) {
	final := t.snapshot(true)
	r.mu.Lock()
	defer r.mu.Unlock()
	key := transferKey{id: t.id, role: t.role}
	if r.active[key] == t {
		delete(r.active, key)
	}
	r.archiveLocked(final)
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
	active := make([]*Transfer, 0, len(r.active))
	for _, t := range r.active {
		active = append(active, t)
	}
	r.mu.Unlock()
	for _, t := range active {
		transfers = append(transfers, t.snapshot(false))
	}

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

// Counts are the per-transfer tallies the protocol's state machines keep,
// as the registry last saw them. Sender fields are zero on receiver
// snapshots and vice versa.
type Counts struct {
	// Sender side. PacketsSent counts every data packet placed on the
	// wire; Retransmits counts the subset whose sequence number had been
	// sent before, so at completion PacketsSent == PacketsNeeded -
	// PacketsRestored + Retransmits (PacketsRestored is zero except on
	// resumed transfers, where the HAVE bitmap excused that many packets
	// from transmission). KnownReceived is how many packets the sender
	// knows arrived: its status map's count, restored packets included.
	// Rounds counts batch-send rounds that selected at least one packet.
	PacketsSent   int64 `json:"packets_sent"`
	Retransmits   int64 `json:"retransmits"`
	BytesSent     int64 `json:"bytes_sent"`
	AcksReceived  int64 `json:"acks_received"`
	KnownReceived int64 `json:"known_received"`
	Rounds        int64 `json:"rounds"`

	// Receiver side. DataDemuxed counts well-formed data packets routed
	// to this transfer; every one is classified as exactly one of Fresh,
	// Duplicates or Rejected, so Fresh + Duplicates + Rejected ==
	// DataDemuxed always. BytesReceived is the fresh packets' payload.
	DataDemuxed   int64 `json:"data_demuxed"`
	Fresh         int64 `json:"packets_fresh"`
	Duplicates    int64 `json:"duplicates"`
	Rejected      int64 `json:"rejected"`
	BytesReceived int64 `json:"bytes_received"`
	AcksSent      int64 `json:"acks_sent"`
}

// TransferSnapshot is the frozen state of one transfer endpoint. Durations
// are relative to the registry's start; zero means "has not happened yet"
// (StartedAt is always set, so the zero ambiguity only affects transfers
// registered in the registry's first nanosecond — tolerable).
type TransferSnapshot struct {
	Transfer uint32   `json:"transfer"`
	Role     obs.Role `json:"role"`
	// PacketsNeeded is the object's packet count; ObjectBytes its size.
	PacketsNeeded int64 `json:"packets_needed"`
	ObjectBytes   int64 `json:"object_bytes"`

	Counts
	// PacketsRestored counts packets a resume handshake or a dedup hit
	// marked already delivered before this run's first send (sender role)
	// or carried over from retained state or a whole held object (receiver
	// role).
	PacketsRestored int64 `json:"packets_restored,omitempty"`
	Stalls          int64 `json:"stalls"`
	IdleTimeouts    int64 `json:"idle_timeouts"`

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

	// RTT is the sender's round-trip histogram (nanoseconds): one sample
	// per round trip the sender's probe measured, from planning the round
	// that carried the probed packet to the acknowledgement that showed it
	// received. Nil on receiver snapshots and on senders that measured
	// none.
	RTT *HistogramSnapshot `json:"rtt,omitempty"`

	// IO is the transfer's socket-level syscall accounting, filled when
	// the driver's IO loop ends.
	IO stats.IOCounters `json:"io"`
}

// Transfer is the live handle of one endpoint. Its methods are safe for
// concurrent use and no-op on a nil receiver; Event neither allocates nor
// locks, but for the first outcome event, which archives the handle under
// the registry's lock.
type Transfer struct {
	reg         *Registry
	id          uint32
	role        obs.Role
	needed      int64
	objectBytes int64

	restored atomic.Int64
	stalls   atomic.Int64
	idles    atomic.Int64

	startedNs   atomic.Int64
	handshakeNs atomic.Int64
	firstDataNs atomic.Int64
	doneNs      atomic.Int64
	outcome     atomic.Uint32
	abortReason atomic.Uint32

	// rtt observes the sender's measured round trips (sender role only).
	rtt *Histogram

	// mu guards what the endpoint's driver hands over: the counts as last
	// published (or, once the outcome is in, as follow last read them), the
	// view that reads them (follow, until the outcome), the round trips
	// already observed, and the socket counters.
	mu     sync.Mutex
	counts Counts
	follow func(*Counts)
	trips  int
	io     stats.IOCounters
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

// Publish replaces a sending endpoint's counts with c, as its engine has
// them now. trips is how many round trips the sender has measured and rtt
// the latest of them: the RTT histogram observes it when trips grew since
// the last publication.
func (t *Transfer) Publish(c Counts, trips int, rtt time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts = c
	if trips > t.trips {
		t.trips = trips
		t.rtt.Observe(int64(rtt))
	}
}

// Follow makes every snapshot read the endpoint's counts through read, until
// its outcome: read must take whatever lock guards the state it reads. A
// receiving endpoint's counts are then exact at every snapshot, and cost its
// data path nothing.
func (t *Transfer) Follow(read func(*Counts)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.follow = read
	t.mu.Unlock()
}

// AddIO adds the endpoint's socket-level counters; drivers call it when
// their IO loop ends.
func (t *Transfer) AddIO(c stats.IOCounters) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.io.Add(c)
	t.mu.Unlock()
}

// Snapshot freezes the transfer's current counters.
func (t *Transfer) Snapshot() TransferSnapshot {
	if t == nil {
		return TransferSnapshot{}
	}
	return t.snapshot(false)
}

// snapshot freezes the transfer's current state. The outcome's snapshot is
// final: the view is read a last time and dropped, so no later snapshot
// reaches into the endpoint's state.
func (t *Transfer) snapshot(final bool) TransferSnapshot {
	s := TransferSnapshot{
		Transfer:      t.id,
		Role:          t.role,
		PacketsNeeded: t.needed,
		ObjectBytes:   t.objectBytes,

		PacketsRestored: t.restored.Load(),
		Stalls:          t.stalls.Load(),
		IdleTimeouts:    t.idles.Load(),

		StartedAt:   time.Duration(t.startedNs.Load()),
		HandshakeAt: time.Duration(t.handshakeNs.Load()),
		FirstDataAt: time.Duration(t.firstDataNs.Load()),
		DoneAt:      time.Duration(t.doneNs.Load()),

		Outcome:     Outcome(t.outcome.Load()),
		AbortReason: t.abortReason.Load(),
	}
	if h := t.rtt.Snapshot(); h.Count > 0 {
		s.RTT = &h
	}
	t.mu.Lock()
	read := t.follow
	s.Counts, s.IO = t.counts, t.io
	t.mu.Unlock()
	if read != nil {
		read(&s.Counts) // outside t.mu: read takes the endpoint's own lock
		if final {
			t.mu.Lock()
			t.counts, t.follow = s.Counts, nil
			t.mu.Unlock()
		}
	}
	return s
}
