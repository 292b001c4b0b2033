package udprt

import (
	"errors"
	"sync"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
)

// probe is the one handle the engines and the transfer lifecycles report
// through; what Options.Metrics, Options.Record and Options.Trace each make
// of a report is decided in this file and nowhere else. A lifecycle moment is
// reported once, as an obs.Kind, through event, and every instrument that is
// on gets it. A stripe has its own live counters and packet recorder; the
// span recorder is the transfer's, and the probes of its stripes share it
// (see stripes). A handle is nil when its instrument is off and no-ops then,
// so the zero probe is inert and no call site asks what is on. No method
// allocates, a failed finish aside. Per packet, only the recorder hears of
// anything: the live counts are core's, which the registry is shown (publish,
// follow), never told packet by packet.
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
// stripe started in reg and rec (either may be nil), and makes a recording
// probe the observer of the stripe's acknowledgement processing.
func (p probe) sender(reg *metrics.Registry, rec *flight.Log, snd *core.Sender, objBytes int64) probe {
	cfg := snd.Config()
	p.tm = reg.StartSender(cfg.Transfer, snd.NumPackets(), objBytes)
	p.fr = rec.StartSender(cfg.Transfer, snd.NumPackets(), objBytes, cfg.PacketSize, int(cfg.Schedule))
	if p.fr != nil {
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

// supervisor opens the retry supervisor's probe: the span that pins one
// trace across the attempts, and the registry's retry count.
func (o Options) supervisor(tid obs.TraceID, transfer uint32) probe {
	p := o.startSpan(tid, transfer, obs.RoleSender)
	p.tm = o.Metrics.Supervisor(transfer)
	return p
}

// span is p without its stripe: a lifecycle stamps the transfer's outcome
// through it ahead of the stripes' own where the two can differ.
func (p probe) span() probe { return probe{or: p.or} }

// event reports one lifecycle moment to every instrument that is on; seal
// closes the span with no outcome (the retry supervisor's: each attempt
// stamps its own).
func (p probe) event(kind obs.Kind, arg uint64) {
	p.tm.Event(kind, arg)
	p.fr.Event(kind, arg)
	p.or.Event(kind, arg)
}

func (p probe) seal() { p.or.Finish() }

// stripe is p without the span it shares with its sibling stripes.
func (p probe) stripe() probe { return probe{tm: p.tm, fr: p.fr} }

// stripes is the probes of one transfer's stripes, which share its span.
type stripes []probe

// event reports one moment of the whole transfer: every stripe's counters
// and recording get it, and the span the stripes share gets it once.
func (s stripes) event(kind obs.Kind, arg uint64) {
	for i, p := range s {
		if i > 0 {
			p = p.stripe()
		}
		p.event(kind, arg)
	}
}

// publish shows the registry a sending stripe's counts as snd has them, and
// the latest round trip it measured. The engine calls it after each flush
// and each ack drain, and the plan once more at the outcome, so a running
// transfer's counts lag by at most one of those and a finished one's are
// exact.
func (p probe) publish(snd *core.Sender) {
	if p.tm == nil {
		return
	}
	st := snd.Stats()
	p.tm.Publish(metrics.Counts{
		PacketsSent:   int64(st.PacketsSent),
		Retransmits:   int64(st.Retransmits),
		BytesSent:     int64(st.BytesSent),
		AcksReceived:  int64(st.AcksProcessed),
		KnownReceived: int64(st.KnownReceived),
		Rounds:        int64(st.Rounds),
	}, st.RoundTrips, st.RTT)
}

// follow makes the registry read a receiving stripe's counts from its engine,
// under mu, the lock of the transfer the engine serves, at every snapshot.
func (p probe) follow(mu *sync.Mutex, e *receiverEngine) {
	if p.tm == nil {
		return
	}
	p.tm.Follow(func(c *metrics.Counts) {
		mu.Lock()
		defer mu.Unlock()
		st := e.rcv.Stats()
		fresh := st.Received - st.Restored
		*c = metrics.Counts{
			DataDemuxed:   int64(fresh + st.Duplicates + st.Rejected),
			Fresh:         int64(fresh),
			Duplicates:    int64(st.Duplicates),
			Rejected:      int64(st.Rejected),
			BytesReceived: int64(st.BytesReceived),
			AcksSent:      int64(e.ackCalls),
		}
	})
}

// Reports with one instrument behind them: a batch-size decision, the socket
// counters.
func (p probe) batchSize(b int)       { p.fr.BatchSize(b) }
func (p probe) io(c stats.IOCounters) { p.tm.AddIO(c) }

// dataSent records one data packet encoded for the wire, the idx-th of its
// batch round.
func (p probe) dataSent(seq uint32, size, idx int) { p.fr.DataSent(seq, size, idx) }

// OnAck and OnPacketAcked make a probe a core.AckObserver.
func (p probe) OnAck(serial uint32, received int, stale bool) {
	p.fr.AckReceived(serial, received, stale)
}

func (p probe) OnPacketAcked(seq uint32) { p.fr.AckedSeq(seq) }

// dataReceived translates one HandleData call's effect on the receiver's
// counters into the recorder's classification. A packet that moved no
// counter belonged to another transfer and is not this stripe's traffic.
func (p probe) dataReceived(seq uint32, payload int, before, after core.ReceiverStats) {
	switch {
	case after.Received > before.Received:
		p.fr.DataReceived(seq, payload, flight.ClassFresh)
	case after.Duplicates > before.Duplicates:
		p.fr.DataReceived(seq, payload, flight.ClassDuplicate)
	case after.Rejected > before.Rejected:
		p.fr.DataReceived(seq, payload, flight.ClassRejected)
	}
}

// ackSent records one acknowledgement the receiver put on the wire.
func (p probe) ackSent(serial uint32, received, size int) { p.fr.AckSent(serial, received, size) }

// finish stamps the outcome err (nil: delivered whole) into every instrument
// and seals the recorders: verify+complete, or a reasoned abort with the wire
// reason err maps to, spelling out the failed verify when the digest sank the
// transfer. The flight trailer takes the final metrics snapshot (zero with
// metrics off: the analyzer skips its cross-check). Every instrument keeps
// its first outcome, so on the span recorder stripes share, the first finish
// decides.
func (p probe) finish(err error) {
	if err == nil {
		p.event(obs.KindVerify, 1)
		p.event(obs.KindComplete, 0)
	} else {
		if errors.Is(err, ErrDigestMismatch) {
			p.event(obs.KindVerify, 0)
		}
		p.event(obs.KindAbort, uint64(abortReasonFor(err)))
	}
	if p.fr != nil {
		p.fr.Finish(p.tm.Snapshot())
	}
	p.or.Finish()
}
