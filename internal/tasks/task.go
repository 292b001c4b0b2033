// Package tasks is the transfer-orchestration layer above the udprt
// runtime: a queue of submitted transfer tasks, a dispatcher that runs
// them through a bounded pool of movers with per-tenant fairness and
// per-tenant rate caps, and a crash-safe store that persists every task
// state transition — so a daemon killed mid-flight resumes its queued and
// in-flight work after restart, continuing interrupted transfers from the
// receiver's retained state instead of resending whole objects.
//
// The paper evaluates single transfers; an operational deployment runs
// many, for many users, against a machine that can die. This package adds
// exactly that operational shell while reusing the runtime's own
// primitives: movers are supervised udprt Sends (Retry),
// per-tenant ceilings are shared udprt.RateCaps composed under whatever
// congestion policy each transfer runs, and the store is one CRC-framed
// journal that compacts through the checkpoint package's atomic replace.
//
// Semantics are at-least-once: a task is marked done only after the
// receiver's COMPLETE verdict, so a crash between the verdict and the
// mark reruns the task. Reruns are safe — the receiver finds what it
// retained of the task's bytes by their content identity, so the rerun
// resumes (or at worst repeats) delivery of the same bytes, and the
// identity check keeps a rerun from ever completing against different
// content.
package tasks

import (
	"fmt"
	"time"

	"github.com/hpcnet/fobs/internal/core"
)

// State is a task's position in its lifecycle. Transitions (see
// DESIGN.md §5h): queued → running → {done, failed}; queued or running →
// cancelled; a restart moves loaded running tasks back to queued.
type State string

const (
	// StateQueued means the task awaits a mover slot.
	StateQueued State = "queued"
	// StateRunning means a mover currently owns the task.
	StateRunning State = "running"
	// StateDone means the receiver acknowledged the whole object
	// (terminal).
	StateDone State = "done"
	// StateFailed means the mover exhausted its retries or hit a terminal
	// verdict (terminal).
	StateFailed State = "failed"
	// StateCancelled means the task was cancelled before completing
	// (terminal).
	StateCancelled State = "cancelled"
)

// Terminal reports whether a state is final — never dispatched again,
// even across a restart.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is a submitted transfer request, the body of the HTTP submit call.
type Spec struct {
	// Tenant scopes the task for fairness and rate capping; empty maps to
	// the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Addr is the receiving endpoint's control address (host:port).
	Addr string `json:"addr"`
	// Path is the local file whose bytes are the object to transfer.
	Path string `json:"path"`
	// PacketSize overrides the payload bytes per datagram (0: runtime
	// default).
	PacketSize int `json:"packet_size,omitempty"`
	// Streams stripes the transfer across this many UDP flows (0 or 1:
	// unstriped). Every receiving endpoint reassembles stripes.
	Streams int `json:"streams,omitempty"`
	// Congestion selects the congestion-control policy by name (empty:
	// the runtime default).
	Congestion string `json:"congestion,omitempty"`
	// NoDedup keeps the receiver from answering the task's CHECK from an
	// object it holds whole, so the bytes move even then; what it
	// retained of an earlier, failed attempt still excuses packets.
	NoDedup bool `json:"no_dedup,omitempty"`
}

func (s Spec) validate() error {
	if s.Addr == "" {
		return fmt.Errorf("tasks: spec missing addr")
	}
	if s.Path == "" {
		return fmt.Errorf("tasks: spec missing path")
	}
	if s.PacketSize < 0 {
		return fmt.Errorf("tasks: negative packet size %d", s.PacketSize)
	}
	if s.Streams < 0 {
		return fmt.Errorf("tasks: negative stream count %d", s.Streams)
	}
	return nil
}

// tenant returns the fairness/capping key, never empty.
func (s Spec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// Stats is the subset of the final attempt's sender statistics a task
// retains — enough for the API and tests to verify resume economy
// without holding the full core struct alive.
type Stats struct {
	PacketsNeeded int `json:"packets_needed"`
	PacketsSent   int `json:"packets_sent"`
	Retransmits   int `json:"retransmits"`
	Restored      int `json:"restored"`
	// Deduped means the receiver answered the CHECK with the
	// whole object already cached: the task completed without a data flow.
	Deduped bool `json:"deduped,omitempty"`
}

func statsOf(st core.SenderStats) *Stats {
	return &Stats{
		PacketsNeeded: st.PacketsNeeded,
		PacketsSent:   st.PacketsSent,
		Retransmits:   st.Retransmits,
		Restored:      st.Restored,
		Deduped:       st.Deduped,
	}
}

// TaskEvent is one entry in a task's durable timeline: a lifecycle
// transition with its wall-clock instant and enough context (attempt
// number, congestion policy, verdict detail) to reconstruct what the
// daemon did to the task and when — across restarts, since the history
// persists with the task.
type TaskEvent struct {
	// At is the wall-clock instant of the transition.
	At time.Time `json:"at"`
	// Event names the transition: "queued", "requeued", "dispatched",
	// "done", "failed", "cancelled".
	Event string `json:"event"`
	// Attempt is the mover execution the event belongs to (0 before the
	// first dispatch).
	Attempt int `json:"attempt,omitempty"`
	// CC is the congestion policy in effect, recorded on dispatch.
	CC string `json:"cc,omitempty"`
	// Detail carries the verdict (error text) on terminal events.
	Detail string `json:"detail,omitempty"`
}

// eventCap bounds a task's retained timeline; a task requeued in a crash
// loop keeps its most recent history rather than growing its record
// without bound. Oldest entries drop first.
const eventCap = 64

// Task is one unit of orchestrated work: a Spec plus the daemon's
// bookkeeping. The struct is what the store persists and the API serves.
type Task struct {
	// ID is the daemon-assigned identifier, unique within a state
	// directory's lifetime (monotonic, survives restarts).
	ID uint64 `json:"id"`
	// Spec is the submitted request, immutable after submit.
	Spec Spec `json:"spec"`
	// State is the lifecycle position; see State.
	State State `json:"state"`
	// Transfer is the stable FOBS transfer id the task's attempts all
	// use. A post-restart rerun finds the receiver's retained state by the
	// content's identity, not by this id; the stable id keeps the
	// receiver's records of one task under one name.
	Transfer uint32 `json:"transfer"`
	// Attempts counts mover executions, across restarts.
	Attempts int `json:"attempts"`
	// Error holds the final failure verdict for StateFailed.
	Error string `json:"error,omitempty"`
	// Stats is the final attempt's transfer accounting, set on done (and
	// on failed attempts that got far enough to count anything).
	Stats *Stats `json:"stats,omitempty"`
	// Created and Updated stamp submission and the latest transition.
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
	// Trace is the task's trace id in hex, minted at submission and pinned
	// on every mover attempt, so the daemon's logs, the task's timeline
	// and both endpoints' span logs all join on one key.
	Trace string `json:"trace,omitempty"`
	// Events is the task's durable timeline, oldest first (capped at
	// eventCap; oldest dropped). Persisted with every transition, so the
	// history a restarted daemon serves is exactly the transitions that
	// became durable before the crash.
	Events []TaskEvent `json:"events,omitempty"`
}

// note appends a timeline entry; the caller persists the task afterwards
// (an event becomes observable only with the transition it describes).
// cc is the effective congestion policy, recorded on dispatch events.
func (t *Task) note(event, cc, detail string) {
	t.Events = append(t.Events, TaskEvent{
		At:      time.Now(),
		Event:   event,
		Attempt: t.Attempts,
		CC:      cc,
		Detail:  detail,
	})
	if len(t.Events) > eventCap {
		t.Events = t.Events[len(t.Events)-eventCap:]
	}
}

// queuedAt returns the instant the task last entered the queue (its most
// recent queued/requeued event), falling back to Updated for histories
// that predate timelines.
func (t *Task) queuedAt() time.Time {
	for i := len(t.Events) - 1; i >= 0; i-- {
		if e := t.Events[i]; e.Event == "queued" || e.Event == "requeued" {
			return e.At
		}
	}
	return t.Updated
}

// clone returns a copy safe to hand outside the daemon's lock.
func (t *Task) clone() Task {
	c := *t
	if t.Stats != nil {
		s := *t.Stats
		c.Stats = &s
	}
	if t.Events != nil {
		c.Events = append([]TaskEvent(nil), t.Events...)
	}
	return c
}
