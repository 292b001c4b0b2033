package udprt

import (
	"errors"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
)

// probe is the one handle the engines and the transfer lifecycles report
// through; what Options.Metrics, Options.Record and Options.Trace each make
// of a report is decided in this file and nowhere else. A stripe has its own
// live counters and packet recorder; the span recorder is the transfer's, and
// the probes of its stripes share it. A handle is nil when its instrument is
// off and no-ops then, so the zero probe is inert and no call site asks what
// is on. No method allocates, a failed finish aside.
type probe struct {
	tm *metrics.Transfer
	fr *flight.Recorder
	or *obs.Recorder
}

// startSpan opens an endpoint's span recorder for one transfer and returns
// the probe holding only that. An untraced peer (a zero trace id in its
// CHECK) still gets a local timeline, under a locally minted id.
func (o Options) startSpan(tid obs.TraceID, transfer uint32, role obs.Role) probe {
	if o.Trace == nil {
		return probe{}
	}
	if tid.IsZero() {
		tid = obs.NewTraceID()
	}
	return probe{or: o.Trace.Start(tid, transfer, role)}
}

// sender returns p with the counters and packet recorder of one sending
// stripe started in reg and rec (either may be nil), and makes it the
// observer of the stripe's acknowledgement processing.
func (p probe) sender(reg *metrics.Registry, rec *flight.Log, snd *core.Sender, objBytes int64) probe {
	cfg := snd.Config()
	p.tm = reg.StartSender(cfg.Transfer, snd.NumPackets(), objBytes)
	p.fr = rec.StartSender(cfg.Transfer, snd.NumPackets(), objBytes, cfg.PacketSize, int(cfg.Schedule))
	if p.tm != nil || p.fr != nil {
		snd.SetObserver(p)
	}
	return p
}

// receiver is sender's counterpart for one receiving stripe.
func (p probe) receiver(reg *metrics.Registry, rec *flight.Log, transfer uint32, packets int, objBytes int64, packetSize int) probe {
	p.tm = reg.StartReceiver(transfer, packets, objBytes)
	p.fr = rec.StartReceiver(transfer, packets, objBytes, packetSize)
	return p
}

// span is p without its stripe: a lifecycle stamps the transfer's outcome
// through it ahead of the stripes' own where the two can differ.
func (p probe) span() probe { return probe{or: p.or} }

// event records one phase boundary of the transfer in the span log; the first
// dataArrived opens its rounds phase, and seal closes it with no outcome (the
// retry supervisor's span: each attempt stamps its own).
func (p probe) event(kind obs.Kind, arg uint64) { p.or.Event(kind, arg) }
func (p probe) dataArrived()                    { p.or.Once(obs.KindRounds, 0) }
func (p probe) seal()                           { p.or.Finish() }

// Reports with one instrument behind them: packets a HAVE bitmap excused the
// stripe, a batch-size decision, a batch round sent, the socket counters.
func (p probe) restored(n int)        { p.tm.NoteRestored(n) }
func (p probe) batchSize(b int)       { p.fr.BatchSize(b) }
func (p probe) round()                { p.tm.NoteRound() }
func (p probe) io(c stats.IOCounters) { p.tm.NoteIO(c) }

// handshake records the stripe's completed announcement exchange; stalled
// and idled a firing of the sender's and of the receiver's watchdog.
func (p probe) handshake() {
	p.tm.NoteHandshake()
	p.fr.Phase(flight.PhaseHandshake, 0)
}

func (p probe) stalled() {
	p.tm.NoteStall()
	p.fr.Phase(flight.PhaseStall, 0)
}

func (p probe) idled() {
	p.tm.NoteIdle()
	p.fr.Phase(flight.PhaseIdle, 0)
}

// dataSent records one data packet encoded for the wire, the idx-th of its
// batch round.
func (p probe) dataSent(seq uint32, size, idx int) {
	p.tm.NoteDataSent(seq, size)
	p.fr.DataSent(seq, size, idx)
}

// OnAck and OnPacketAcked make a probe a core.AckObserver.
func (p probe) OnAck(serial uint32, received int, stale bool) {
	p.tm.NoteAckReceived(int64(received))
	p.fr.AckReceived(serial, received, stale)
}

func (p probe) OnPacketAcked(seq uint32) {
	p.tm.NoteSeqAcked(seq)
	p.fr.AckedSeq(seq)
}

// dataReceived translates one HandleData call's effect on the receiver's
// counters into the instruments' classification. A packet that moved no
// counter belonged to another transfer and is not this stripe's traffic.
func (p probe) dataReceived(seq uint32, payload int, before, after core.ReceiverStats) {
	switch {
	case after.Received > before.Received:
		p.tm.NoteDataFresh(payload)
		p.fr.DataReceived(seq, payload, flight.ClassFresh)
	case after.Duplicates > before.Duplicates:
		p.tm.NoteDataDuplicate()
		p.fr.DataReceived(seq, payload, flight.ClassDuplicate)
	case after.Rejected > before.Rejected:
		p.tm.NoteDataRejected()
		p.fr.DataReceived(seq, payload, flight.ClassRejected)
	}
}

// ackSent records one acknowledgement the receiver put on the wire.
func (p probe) ackSent(serial uint32, received, size int) {
	p.tm.NoteAckSent(size)
	p.fr.AckSent(serial, received, size)
}

// finish stamps the outcome err (nil: delivered whole) into every instrument
// and seals the recorders: completed, or aborted with the wire reason err
// maps to. The flight trailer takes the final metrics snapshot (zero with
// metrics off: the analyzer skips its cross-check); the span log says
// verify+complete or a reasoned abort, spelling out the failed verify when
// the digest sank the transfer. Every instrument keeps its first outcome, so
// on the span recorder stripes share, the first finish decides.
func (p probe) finish(err error) {
	if err == nil {
		p.tm.Complete()
		p.fr.Phase(flight.PhaseComplete, 0)
		p.or.Event(obs.KindVerify, 1)
		p.or.Event(obs.KindComplete, 0)
	} else {
		reason := uint32(abortReasonFor(err))
		p.tm.Abort(reason)
		p.fr.Phase(flight.PhaseAbort, reason)
		if errors.Is(err, ErrDigestMismatch) {
			p.or.Event(obs.KindVerify, 0)
		}
		p.or.Event(obs.KindAbort, uint64(reason))
	}
	if p.fr != nil {
		p.fr.Finish(p.tm.Snapshot())
	}
	p.or.Finish()
}
