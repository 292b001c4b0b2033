package obs

import (
	"fmt"
	"time"
)

// Version is the event-record revision this build writes; every JSONL
// line carries it as "v". Readers skip lines from future revisions (see
// ReadEvents) so an old analyzer degrades to a partial view, never a
// misparse.
const Version = 1

// Role identifies which endpoint of a transfer emitted an event. The zero
// value is invalid; unknown names decode to it.
type Role uint8

const (
	// RoleSender is the data-sending endpoint.
	RoleSender Role = 1 + iota
	// RoleReceiver is the data-receiving endpoint.
	RoleReceiver
)

func (r Role) String() string {
	switch r {
	case RoleSender:
		return "sender"
	case RoleReceiver:
		return "receiver"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// MarshalJSON renders the role as its name.
func (r Role) MarshalJSON() ([]byte, error) { return []byte(`"` + r.String() + `"`), nil }

// UnmarshalJSON accepts the name form; unknown names decode to the zero
// role rather than failing, so a future writer's log still reads.
func (r *Role) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"sender"`:
		*r = RoleSender
	case `"receiver"`:
		*r = RoleReceiver
	default:
		*r = 0
	}
	return nil
}

// Kind classifies a lifecycle event. It is the one lifecycle vocabulary of
// the runtime: the span log, the live metrics' event ring and the flight
// recorder's event records all carry it. Transfer phases are emitted in
// lifecycle order; an endpoint's waterfall is the gaps between them.
type Kind uint8

const (
	// KindUnknown is the decode result for names this build does not
	// know (a future writer's event). Never emitted.
	KindUnknown Kind = iota
	// KindDial marks the start of the sender's control-channel dial.
	KindDial
	// KindCheck marks an answered content-digest query (CHECK/HAVE); Arg
	// is 1 on a dedup hit (the peer already holds the object), 0 on a
	// miss.
	KindCheck
	// KindHandshake marks a completed announcement exchange: CHECK and
	// HELLO, answered with the HAVE that accepts the transfer.
	KindHandshake
	// KindResume marks a CHECK answered from retained state: Arg is the
	// number of packets the HAVE bitmap restored.
	KindResume
	// KindSkip marks a deduplicated data phase: the transfer completed
	// without a data flow because the receiver already held the object.
	// Arg is the number of packets that never moved.
	KindSkip
	// KindRounds marks entry into the blast-round phase: the first data
	// batch on the wire (sender) or the first data packet demuxed
	// (receiver).
	KindRounds
	// KindDrain marks the end of data flow: every packet acknowledged
	// (sender) or the object complete in memory (receiver). On the
	// receiver Arg is the number of content-identity leaves still unhashed
	// when the last packet was placed: 0 means verification was fully
	// hidden behind the data phase (or there was no CHECK to verify
	// against), a count near the object's leaf count means the hashing
	// worker was starved of CPU while data moved. The gap to KindVerify is
	// what hashing those leaves cost. Arg is 0 on the sender.
	KindDrain
	// KindVerify marks the digest verdict on the COMPLETE exchange; Arg
	// is 1 when the digests matched, 0 on mismatch.
	KindVerify
	// KindComplete marks a transfer that delivered its whole object
	// (terminal).
	KindComplete
	// KindAbort marks a transfer that ended on an error or ABORT frame
	// (terminal); Arg carries the wire abort-reason code.
	KindAbort
	// KindRetry marks one supervised re-attempt; Arg is the attempt
	// number (1 = first retry).
	KindRetry
	// KindStall marks a firing of the sender's stall watchdog.
	KindStall
	// KindIdle marks a firing of the receiver's idle watchdog.
	KindIdle
	// KindLost reports ring overrun at drain time: Arg events were
	// overwritten before the drainer reached them.
	KindLost

	kindCount // sentinel; keep last
)

var kindNames = [kindCount]string{
	KindUnknown:   "unknown",
	KindDial:      "dial",
	KindCheck:     "check",
	KindHandshake: "handshake",
	KindResume:    "resume",
	KindSkip:      "skip",
	KindRounds:    "rounds",
	KindDrain:     "drain",
	KindVerify:    "verify",
	KindComplete:  "complete",
	KindAbort:     "abort",
	KindRetry:     "retry",
	KindStall:     "stall",
	KindIdle:      "idle",
	KindLost:      "lost",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return []byte(`"` + k.String() + `"`), nil }

// UnmarshalJSON accepts the name form; unknown names decode to
// KindUnknown so future writers' logs still read.
func (k *Kind) UnmarshalJSON(b []byte) error {
	for i, name := range kindNames {
		if string(b) == `"`+name+`"` {
			*k = Kind(i)
			return nil
		}
	}
	*k = KindUnknown
	return nil
}

// Known reports whether k is a kind of this build's vocabulary.
func (k Kind) Known() bool { return k > KindUnknown && k < kindCount }

// Terminal reports whether the kind ends a transfer's lifecycle.
func (k Kind) Terminal() bool { return k == KindComplete || k == KindAbort }

// Event is one decoded line of a span log. At is monotonic relative to
// the emitting Log's start (gap arithmetic within one endpoint); Wall is
// the wall-clock instant in Unix nanoseconds (coarse cross-host
// alignment).
type Event struct {
	V        int    `json:"v"`
	Trace    string `json:"trace,omitempty"`
	Transfer uint32 `json:"transfer"`
	Role     Role   `json:"role"`
	Kind     Kind   `json:"kind"`
	At       int64  `json:"t_ns"`
	Wall     int64  `json:"wall_ns"`
	Arg      uint64 `json:"arg,omitempty"`
}

// Time returns the monotonic offset as a duration.
func (e Event) Time() time.Duration { return time.Duration(e.At) }
