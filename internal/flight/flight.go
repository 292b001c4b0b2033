// Package flight is the packet-level flight recorder of the real-network
// FOBS runtime: a per-transfer capture of every protocol decision — each
// data send with its sequence number, attempt count and batch position,
// each acknowledgement with the packets it newly acknowledged, batch-size
// changes from the B policy, and the transfer's lifecycle events (dial,
// handshake, rounds, watchdog firings, verdict — internal/obs's vocabulary)
// — in a compact binary file that cmd/fobs-analyze replays offline.
//
// The live metrics layer (internal/metrics) answers "how much"; this
// package answers "in what order, exactly". The paper's central claims are
// per-packet properties — the circular-buffer policy retransmits a packet
// for the (n+1)-st time only once every other unacknowledged packet has
// been sent n times, and the ack frequency F shapes the retransmission
// waves — and none of that is checkable from aggregate counters. A flight
// recording makes every run evidence: the analyzer mechanically verifies
// the fairness invariant, reconstructs time series, and cross-checks the
// record stream against the final metrics snapshot embedded in the file.
//
// Design constraints mirror internal/metrics: the hot path (one record per
// datagram and per acknowledgement) never allocates and never locks. Each
// recorder pushes its records, three words each, into a ring of its own, and
// the log's background drainer writes them out as frames; the ring and the
// drained log are internal/spine's, shared with the other instruments, and
// this package is the record and frame encoding on top, the reader and the
// analyzer. A producer that outruns the drainer overwrites old slots — the
// drain counts every lost record, and the count lands in the file trailer so
// the analyzer knows the recording is partial rather than silently wrong.
// Everything is nil-safe: a nil *Log hands out nil *Recorder handles whose
// methods no-op.
package flight

import "time"

// Kind classifies one flight record.
type Kind uint8

const (
	// KindDataSend is one data packet placed on the wire by the sender:
	// Seq is its sequence number, Aux the attempt count (1 = first send),
	// Aux2 its index within the current batch round, Size its payload
	// bytes.
	KindDataSend Kind = iota + 1
	// KindAckRecv is one acknowledgement consumed by the sender: Seq is
	// the ack serial, Aux the receiver's cumulative received count, Flag
	// 1 when the serial was stale (reordered). The packets the fragment
	// newly acknowledged follow as KindAcked records.
	KindAckRecv
	// KindAcked marks one packet newly acknowledged by a merged fragment:
	// Seq is the packet, Aux its transmit count at acknowledgement time.
	// These follow their KindAckRecv record, one per newly-set bit.
	KindAcked
	// KindBatch records a batch-size change from the B policy: Seq is the
	// new size. Only changes are recorded, not every round.
	KindBatch
	// KindDataRecv is one data packet routed to the receiver: Seq is its
	// sequence number, Size its payload bytes, Flag its classification
	// (ClassFresh, ClassDuplicate, ClassRejected).
	KindDataRecv
	// KindAckSend is one acknowledgement emitted by the receiver: Seq is
	// the ack serial, Aux the cumulative received count, Size the framed
	// wire bytes.
	KindAckSend
	// KindEvent is a lifecycle event: Seq is its obs.Kind, Aux its arg
	// (the wire abort-reason code for obs.KindAbort).
	KindEvent

	kindMax = KindEvent
)

func (k Kind) String() string {
	switch k {
	case KindDataSend:
		return "data-send"
	case KindAckRecv:
		return "ack-recv"
	case KindAcked:
		return "acked"
	case KindBatch:
		return "batch"
	case KindDataRecv:
		return "data-recv"
	case KindAckSend:
		return "ack-send"
	case KindEvent:
		return "event"
	default:
		return "kind(?)"
	}
}

// Data-packet classifications carried in KindDataRecv records' Flag.
const (
	// ClassFresh is a never-before-seen packet.
	ClassFresh uint8 = iota
	// ClassDuplicate is a retransmission of a packet already held.
	ClassDuplicate
	// ClassRejected is a well-formed packet the receiver state machine
	// refused.
	ClassRejected
)

// Record is one decoded flight-recorder entry. The field meanings depend
// on Kind; see the Kind constants. On the wire a record is a fixed 24
// bytes (three big-endian 64-bit words), so recorders can publish through
// fixed-size ring slots without serialization on the hot path.
type Record struct {
	// At is the record instant relative to the Log's start, shared by
	// every endpoint recorded in the same file so streams can be aligned.
	At   time.Duration
	Kind Kind
	// Flag is kind-specific: the data class for KindDataRecv, 1 for a
	// stale KindAckRecv.
	Flag uint8
	// Size is the payload (or framed ack) byte count for send/receive
	// records.
	Size uint16
	// Seq, Aux, Aux2 are kind-specific; see the Kind constants.
	Seq  uint32
	Aux  uint32
	Aux2 uint32
}

// recordBytes is the fixed encoded size of one record.
const recordBytes = 24

// words packs the record into its three wire words.
func (rec Record) words() (w0, w1, w2 uint64) {
	w0 = uint64(rec.At.Nanoseconds())
	w1 = uint64(rec.Seq)<<32 | uint64(rec.Aux)
	w2 = uint64(rec.Kind)<<56 | uint64(rec.Flag)<<48 | uint64(rec.Size)<<32 | uint64(rec.Aux2)
	return
}

// recordFromWords is the inverse of words.
func recordFromWords(w0, w1, w2 uint64) Record {
	return Record{
		At:   time.Duration(int64(w0)),
		Seq:  uint32(w1 >> 32),
		Aux:  uint32(w1),
		Kind: Kind(w2 >> 56),
		Flag: uint8(w2 >> 48),
		Size: uint16(w2 >> 32),
		Aux2: uint32(w2),
	}
}
