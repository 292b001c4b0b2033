package flight

import (
	"fmt"
	"time"

	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/trace"
)

// Analysis is the offline reconstruction of one endpoint's recorded
// stream: event totals, the mechanically verified protocol invariants,
// and derived histograms. Build one with Analyze.
type Analysis struct {
	Meta    Meta
	Dropped uint64
	Ended   bool

	// Sender totals.
	PacketsSent  int64
	Retransmits  int64
	BytesSent    int64
	AcksReceived int64
	StaleAcks    int64
	AckedPackets int64
	// KnownReceived is what the sender's status map held at the end: the
	// packets a resume or a dedup hit excused (Restored, from their events)
	// and those acknowledged since.
	KnownReceived int64
	Restored      int64
	Stalls        int64

	// Receiver totals.
	DataDemuxed   int64
	Fresh         int64
	Duplicates    int64
	Rejected      int64
	BytesReceived int64
	AcksSent      int64
	Idles         int64

	// Lifecycle, from event records.
	Handshakes  int64
	Outcome     metrics.Outcome
	AbortReason uint32

	// FairnessChecked reports whether the circular-buffer fairness
	// invariant was verified: it requires a sender stream recorded under
	// the circular schedule with no dropped records. Violations lists
	// each breach (capped at maxViolations); an empty list with
	// FairnessChecked true is the paper's property, mechanically checked.
	FairnessChecked bool
	Violations      []string
	ViolationCount  int64

	// RetransmitCounts[k] is how many acknowledged packets had been
	// transmitted exactly k times when their acknowledgement arrived (no
	// key 0 in well-formed streams).
	RetransmitCounts map[uint32]int64

	// AckDelay and RTT are computed offline from the record timestamps:
	// first-send → acked and last-send → acked per packet, in
	// nanoseconds, bucketed like the live registry's round-trip histogram
	// (which holds one sample per measured round trip, not per packet).
	AckDelay metrics.HistogramSnapshot
	RTT      metrics.HistogramSnapshot

	// Span is the time range covered by the records.
	Span time.Duration
}

// maxViolations bounds the retained violation detail; the count keeps
// growing past it.
const maxViolations = 20

// fairState tracks the transmit-count spread among unacknowledged packets
// with O(1) amortized work per event: cnt[c] is how many unacked packets
// have transmit count c, and the min/max over the non-empty cells is the
// invariant's spread.
type fairState struct {
	cnt     []int64
	unacked int64
}

func (f *fairState) bump(c int) {
	for len(f.cnt) <= c {
		f.cnt = append(f.cnt, 0)
	}
	f.cnt[c]++
}

// spread returns the min and max transmit counts over unacked packets.
func (f *fairState) spread() (lo, hi int, ok bool) {
	lo, hi = -1, -1
	for c, n := range f.cnt {
		if n > 0 {
			if lo < 0 {
				lo = c
			}
			hi = c
		}
	}
	return lo, hi, lo >= 0
}

// packet is what the analyzer knows of one sequence number the stream names.
type packet struct {
	tx          uint32 // transmissions so far
	acked       bool
	first, last time.Duration // first and latest send
}

// Analyze replays one endpoint's records, rebuilding totals and verifying
// stream consistency. Its state is per packet the records name, not per
// packet the start frame claims, so what it holds tracks the recording's
// size. A stream that contradicts itself — attempt numbers that do not
// follow the per-packet transmit count, acknowledgements of
// unsent or already-acknowledged packets, sequence numbers outside the
// object — is rejected with an error wrapping ErrCorrupt (such streams
// indicate a damaged or reordered file, and every downstream number would
// be fiction). Protocol-level breaches of the fairness invariant are not
// corruption: they are reported in Violations. Streams with dropped
// records skip the strict consistency and fairness checks (the gaps make
// them unverifiable) but still accumulate totals.
func Analyze(ep *EndpointLog) (*Analysis, error) {
	a := &Analysis{Meta: ep.Meta, Dropped: ep.Dropped, Ended: ep.Ended}
	n := ep.Meta.PacketsNeeded
	strict := ep.Dropped == 0
	checkFair := strict && ep.Meta.Role == obs.RoleSender && ep.Meta.Schedule == 0 && n > 0

	var (
		pkts      = make(map[uint32]*packet)
		fair      = fairState{unacked: int64(n)}
		ackDelay  = new(metrics.Histogram)
		rtt       = new(metrics.Histogram)
		firstPass = false // every packet sent at least once
		lastAt    time.Duration
	)
	if checkFair {
		fair.cnt = make([]int64, 2)
		fair.cnt[0] = int64(n)
	}
	violate := func(format string, args ...any) {
		a.ViolationCount++
		if len(a.Violations) < maxViolations {
			a.Violations = append(a.Violations, fmt.Sprintf(format, args...))
		}
	}
	corrupt := func(i int, format string, args ...any) error {
		return fmt.Errorf("%w: record %d: %s", ErrCorrupt, i, fmt.Sprintf(format, args...))
	}
	pkt := func(seq uint32) *packet {
		p := pkts[seq]
		if p == nil {
			p = new(packet)
			pkts[seq] = p
		}
		return p
	}

	for i, rec := range ep.Records {
		if rec.At < lastAt && strict {
			return nil, corrupt(i, "timestamp %v before previous %v", rec.At, lastAt)
		}
		lastAt = rec.At
		switch rec.Kind {
		case KindDataSend:
			a.PacketsSent++
			a.BytesSent += int64(rec.Size)
			if int64(rec.Seq) >= int64(n) {
				return nil, corrupt(i, "data send of seq %d beyond object of %d packets", rec.Seq, n)
			}
			p := pkt(rec.Seq)
			if strict {
				if rec.Aux != p.tx+1 {
					return nil, corrupt(i, "seq %d sent with attempt %d after %d prior sends", rec.Seq, rec.Aux, p.tx)
				}
			}
			prev := p.tx
			p.tx = rec.Aux
			if rec.Aux >= 2 {
				a.Retransmits++
			}
			p.last = rec.At
			if p.first == 0 {
				p.first = rec.At
			}
			if checkFair {
				if p.acked {
					violate("seq %d sent after it was acknowledged", rec.Seq)
				} else {
					fair.cnt[prev]--
					fair.bump(int(rec.Aux))
					if lo, hi, ok := fair.spread(); ok && hi-lo > 1 {
						if !firstPass && rec.Aux >= 2 {
							violate("seq %d retransmitted (attempt %d) before every packet was sent once", rec.Seq, rec.Aux)
						} else {
							violate("transmit-count spread %d (min %d, max %d) after sending seq %d", hi-lo, lo, hi, rec.Seq)
						}
					}
					if !firstPass {
						if lo, _, ok := fair.spread(); !ok || lo >= 1 {
							firstPass = true
						}
					}
				}
			}
		case KindAckRecv:
			a.AcksReceived++
			if rec.Flag != 0 {
				a.StaleAcks++
			}
		case KindAcked:
			if int64(rec.Seq) >= int64(n) {
				return nil, corrupt(i, "ack of seq %d beyond object of %d packets", rec.Seq, n)
			}
			p := pkt(rec.Seq)
			if strict {
				if p.acked {
					return nil, corrupt(i, "seq %d acknowledged twice", rec.Seq)
				}
				if p.tx == 0 {
					return nil, corrupt(i, "seq %d acknowledged before ever being sent", rec.Seq)
				}
				if rec.Aux != p.tx {
					return nil, corrupt(i, "seq %d acked at transmit count %d, stream shows %d", rec.Seq, rec.Aux, p.tx)
				}
			}
			a.AckedPackets++
			if a.RetransmitCounts == nil {
				a.RetransmitCounts = make(map[uint32]int64)
			}
			a.RetransmitCounts[rec.Aux]++
			if !p.acked {
				if checkFair {
					fair.cnt[p.tx]--
					fair.unacked--
				}
				p.acked = true
			}
			if p.first != 0 {
				ackDelay.Observe(int64(rec.At - p.first))
				rtt.Observe(int64(rec.At - p.last))
			}
		case KindBatch:
			// Batch-size changes carry no totals; they feed the series.
		case KindDataRecv:
			a.DataDemuxed++
			switch rec.Flag {
			case ClassFresh:
				a.Fresh++
				a.BytesReceived += int64(rec.Size)
			case ClassDuplicate:
				a.Duplicates++
			case ClassRejected:
				a.Rejected++
			default:
				return nil, corrupt(i, "unknown data class %d", rec.Flag)
			}
		case KindAckSend:
			a.AcksSent++
		case KindEvent:
			switch kind := obs.Kind(rec.Seq); kind {
			case obs.KindHandshake:
				a.Handshakes++
			case obs.KindComplete:
				a.Outcome = metrics.OutcomeCompleted
			case obs.KindAbort:
				a.Outcome = metrics.OutcomeAborted
				a.AbortReason = rec.Aux
			case obs.KindStall:
				a.Stalls++
			case obs.KindIdle:
				a.Idles++
			case obs.KindResume, obs.KindSkip:
				a.Restored += int64(rec.Aux)
			default:
				if uint32(kind) != rec.Seq || !kind.Known() {
					return nil, corrupt(i, "unknown event kind %d", rec.Seq)
				}
			}
		default:
			return nil, corrupt(i, "unknown record kind %d", rec.Kind)
		}
	}
	a.FairnessChecked = checkFair
	a.KnownReceived = a.Restored + a.AckedPackets
	a.AckDelay = ackDelay.Snapshot()
	a.RTT = rtt.Snapshot()
	a.Span = lastAt
	return a, nil
}

// CrossCheck compares the analysis totals against the final metrics
// snapshot embedded in the trailer, returning one line per mismatch
// (empty means exact agreement). It returns nil, false when the recording
// carries no snapshot (the run had metrics disabled) or when records were
// dropped (exactness is then unknowable by construction).
func (a *Analysis) CrossCheck(snap *metrics.TransferSnapshot) (mismatches []string, checked bool) {
	if snap == nil || a.Dropped > 0 {
		return nil, false
	}
	cmp := func(name string, rec, live int64) {
		if rec != live {
			mismatches = append(mismatches, fmt.Sprintf("%s: records say %d, metrics say %d", name, rec, live))
		}
	}
	cmp("packets_needed", int64(a.Meta.PacketsNeeded), snap.PacketsNeeded)
	cmp("object_bytes", a.Meta.ObjectBytes, snap.ObjectBytes)
	if a.Meta.Role == obs.RoleSender {
		cmp("packets_sent", a.PacketsSent, snap.PacketsSent)
		cmp("retransmits", a.Retransmits, snap.Retransmits)
		cmp("bytes_sent", a.BytesSent, snap.BytesSent)
		cmp("acks_received", a.AcksReceived, snap.AcksReceived)
		cmp("known_received", a.KnownReceived, snap.KnownReceived)
		cmp("stalls", a.Stalls, snap.Stalls)
		cmp("acked_packets", a.AckedPackets, snap.KnownReceived-snap.PacketsRestored)
	} else {
		cmp("data_demuxed", a.DataDemuxed, snap.DataDemuxed)
		cmp("packets_fresh", a.Fresh, snap.Fresh)
		cmp("duplicates", a.Duplicates, snap.Duplicates)
		cmp("rejected", a.Rejected, snap.Rejected)
		cmp("bytes_received", a.BytesReceived, snap.BytesReceived)
		cmp("acks_sent", a.AcksSent, snap.AcksSent)
		cmp("idle_timeouts", a.Idles, snap.IdleTimeouts)
	}
	if a.Ended && a.Outcome != snap.Outcome {
		mismatches = append(mismatches, fmt.Sprintf("outcome: records say %v, metrics say %v", a.Outcome, snap.Outcome))
	}
	return mismatches, true
}

// Series reconstructs the endpoint's behaviour over time as rate series
// (per-second, sampled over ~buckets uniform bins): packets sent,
// retransmissions and newly acknowledged packets plus acked goodput for a
// sender; fresh and duplicate packets plus delivered goodput for a
// receiver. The series names are stable — fobs-analyze's CSV consumers
// key on them.
func SeriesFor(ep *EndpointLog, buckets int) []*trace.Series {
	if buckets < 1 {
		buckets = 1
	}
	var span time.Duration
	for _, rec := range ep.Records {
		if rec.At > span {
			span = rec.At
		}
	}
	if span <= 0 {
		span = time.Nanosecond
	}
	width := span / time.Duration(buckets)
	if width <= 0 {
		width = time.Nanosecond
	}

	type binSet struct {
		name string
		unit string
		bins []float64
	}
	mk := func(name, unit string) *binSet {
		return &binSet{name: name, unit: unit, bins: make([]float64, buckets)}
	}
	binOf := func(at time.Duration) int {
		switch b := at / width; {
		case b < 0:
			return 0
		case b >= time.Duration(buckets):
			return buckets - 1
		default:
			return int(b)
		}
	}

	var sets []*binSet
	perSec := 1.0 / width.Seconds()
	if ep.Meta.Role == obs.RoleSender {
		sent := mk("sent_pps", "pkt/s")
		retx := mk("retx_pps", "pkt/s")
		ackd := mk("acked_pps", "pkt/s")
		goodput := mk("goodput_mbps", "Mb/s")
		for _, rec := range ep.Records {
			switch rec.Kind {
			case KindDataSend:
				sent.bins[binOf(rec.At)] += perSec
				if rec.Aux >= 2 {
					retx.bins[binOf(rec.At)] += perSec
				}
			case KindAcked:
				ackd.bins[binOf(rec.At)] += perSec
				goodput.bins[binOf(rec.At)] += float64(ep.Meta.PacketSize) * 8 * perSec / 1e6
			}
		}
		sets = []*binSet{sent, retx, ackd, goodput}
	} else {
		fresh := mk("fresh_pps", "pkt/s")
		dup := mk("dup_pps", "pkt/s")
		acks := mk("acks_pps", "ack/s")
		goodput := mk("goodput_mbps", "Mb/s")
		for _, rec := range ep.Records {
			switch rec.Kind {
			case KindDataRecv:
				switch rec.Flag {
				case ClassFresh:
					fresh.bins[binOf(rec.At)] += perSec
					goodput.bins[binOf(rec.At)] += float64(rec.Size) * 8 * perSec / 1e6
				case ClassDuplicate:
					dup.bins[binOf(rec.At)] += perSec
				}
			case KindAckSend:
				acks.bins[binOf(rec.At)] += perSec
			}
		}
		sets = []*binSet{fresh, dup, acks, goodput}
	}

	out := make([]*trace.Series, 0, len(sets))
	for _, set := range sets {
		s := trace.NewSeries(set.name, set.unit)
		for b, v := range set.bins {
			s.Sample(width*time.Duration(b)+width/2, v)
		}
		out = append(out, s)
	}
	return out
}
