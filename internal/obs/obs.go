// Package obs is the lifecycle-tracing layer: a versioned JSONL event
// log of the rare, phase-level transitions a transfer moves through —
// dial, handshake, blast rounds, resume, drain, digest verify, watchdog
// firings, verdict — correlated across hosts by a 16-byte trace id that
// rides the control channel. Its Kind and Role are the runtime's one
// lifecycle vocabulary: internal/metrics' event ring and internal/flight's
// event records carry them too.
//
// The package deliberately records *phases*, not packets: the flight
// recorder (internal/flight) already captures per-packet decisions for
// offline replay, and internal/metrics already aggregates counters. What
// neither can answer is "where did this one transfer's time go, seen
// from both ends?" — the unit of analysis the paper's evaluation uses
// (connection setup vs. steady state) and the unit an operator debugging
// a slow grid transfer needs. Events are a handful per transfer, so the
// recording path can afford a wall timestamp next to the monotonic one
// and a self-describing JSON encoding, while still staying off the hot
// path: recorders push into a lock-free ring and a background drainer
// encodes and writes, allocation-free, so the udprt hot-path alloc gates
// hold with tracing enabled. The ring and the drained log are
// internal/spine's, shared with the other instruments; this package is the
// line encoding on top, the tolerant reader and the join.
//
// A sender and a receiver each append to their own log file; the two
// files join offline on the propagated trace id (see Join/Waterfall and
// fobs-analyze -events).
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
)

// TraceID correlates the two endpoints' views of one transfer. It is
// minted by the submitting side (the sender or the fobsd daemon) and
// propagated to the receiver in the announcement's CHECK. The zero value
// means "untraced".
type TraceID [16]byte

// NewTraceID returns a fresh random trace id.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err != nil {
		// crypto/rand never fails on supported platforms; a broken
		// entropy source degrades to an all-zero (untraced) id rather
		// than a panic in a tracing layer.
		return TraceID{}
	}
	return id
}

// IsZero reports whether the id is the untraced zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(id) {
		return TraceID{}, fmt.Errorf("obs: bad trace id %q", s)
	}
	copy(id[:], b)
	return id, nil
}
