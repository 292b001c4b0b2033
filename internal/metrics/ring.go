package metrics

import (
	"fmt"
	"time"
)

// EventKind classifies a lifecycle event.
type EventKind uint8

const (
	// EventHandshake marks a completed announcement/HAVE exchange.
	EventHandshake EventKind = iota + 1
	// EventFirstData marks the first data packet a receiver accepted.
	EventFirstData
	// EventStall marks a firing of the sender's stall watchdog.
	EventStall
	// EventIdle marks a firing of the receiver's idle watchdog.
	EventIdle
	// EventComplete marks a transfer that delivered its whole object.
	EventComplete
	// EventAbort marks a transfer that ended on an error or ABORT frame;
	// the event's Arg carries the wire abort-reason code.
	EventAbort
	// EventRetry marks one retry attempt by the sender-side supervisor;
	// the event's Arg carries the attempt number (1 = first retry).
	EventRetry
	// EventResume marks a handshake whose CHECK was answered from retained
	// state; the event's Arg carries the number of packets the HAVE bitmap
	// restored.
	EventResume
)

func (k EventKind) String() string {
	switch k {
	case EventHandshake:
		return "handshake"
	case EventFirstData:
		return "first-data"
	case EventStall:
		return "stall"
	case EventIdle:
		return "idle"
	case EventComplete:
		return "complete"
	case EventAbort:
		return "abort"
	case EventRetry:
		return "retry"
	case EventResume:
		return "resume"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// MarshalJSON renders the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) { return []byte(`"` + k.String() + `"`), nil }

// Event is one lifecycle occurrence pulled out of the ring.
type Event struct {
	// At is the event instant relative to the registry's start.
	At time.Duration `json:"at_ns"`
	// Transfer and Role identify the endpoint the event belongs to.
	Transfer uint32    `json:"transfer"`
	Role     Role      `json:"role"`
	Kind     EventKind `json:"kind"`
	// Arg carries kind-specific detail: the abort-reason code for
	// EventAbort, zero otherwise.
	Arg uint32 `json:"arg,omitempty"`
}
