// The transfer engine: the one sender loop and the one receiver pipeline
// behind every datapath in this package. Send, Session.Send and each stripe
// of a striped transfer are thin adapters over the sender engine — they
// differ only in how sockets are obtained, how the completion verdict is
// delivered, and who writes the control-channel ABORT, which is exactly
// what the endpoint parameters capture. On the receive side there is nothing
// to adapt: every endpoint's one loop (receive.go) routes each datagram to
// the receiver engine of the stripe it belongs to.
package udprt

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/hpcnet/fobs/internal/batchio"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// ackPollSlots bounds the sender's acknowledgement-drain vector: acks are
// outnumbered ~AckFrequency:1 by data packets, so a short vector already
// catches every queued ack per poll.
const ackPollSlots = 8

// ackDatagramLen is the longest acknowledgement a transfer's receiver can
// frame, which is what each slot of the sender's ack ring must hold. The
// receiver sizes its acks from the announced packet size (the HELLO carries
// no ack size), so a sender-side AckPacketSize below PacketSize must not
// shrink the slot. A longer datagram arrives truncated and fails to decode.
func ackDatagramLen(cfg core.Config) int {
	return wire.AckHeaderLen + 8*wire.MaxFragWords(max(cfg.AckPacketSize, cfg.PacketSize))
}

// senderEndpoint is a sender engine's view of the network: the UDP data
// flow it batches onto (acknowledgements return on the same socket), the
// channel its completion verdict arrives on, and the control-channel abort
// path. Send, Session.Send and each stripe of a striped transfer supply
// one; the engine itself never touches a control connection directly, so
// stripes can share one behind a fan-out.
type senderEndpoint struct {
	// conn is the engine's own UDP data socket; its source port is what
	// the receiver acks back to, so every engine must have its own.
	conn *net.UDPConn
	// done delivers the transfer's terminal control verdict exactly once:
	// nil for a verified COMPLETE, an error (e.g. *AbortError) otherwise.
	// Whoever sends it (and whoever cancels the run context) must then set
	// conn's read deadline to the past, which is what wakes an engine
	// blocked on its ack socket (runSenderPlan's waker does both).
	done <-chan error
	// abort announces local failure on the control channel. Striped
	// endpoints serialize it so the shared connection carries one ABORT.
	abort func(wire.AbortReason)
	// progress, when non-nil, observes acknowledgement progress. Striped
	// transfers pass an aggregating closure here so Options.Progress sees
	// object-wide counts.
	progress func(knownReceived, total int)
}

// senderEngine owns the poll-ack / batch-send / select loop of the paper's
// sender for one data flow. It is deliberately single-threaded like the
// paper's sender: each iteration performs one non-blocking poll of the
// acknowledgement socket (the paper's select()-guarded "look for, but do
// not block for, an acknowledgement packet") followed by one send
// operation — which carries a ring of batch rounds where the paper's
// carried one. The one departure: when the sender says a look may send
// nothing, the poll becomes a wait on the same socket (see run). Only the TCP
// completion signal has its own goroutine — a hot sender loop must never be
// able to starve the poll that feeds it.
type senderEngine struct {
	senderEndpoint
	snd  *core.Sender
	cfg  core.Config
	opts Options
	// probe is the stripe's instrumentation (inert when none is on).
	probe probe
	// io receives the engine's socket-level counters when run returns;
	// adapters aggregate it into Options.IOCounters.
	io stats.IOCounters
}

// newSenderEngine binds one prepared core.Sender — its controller, which
// plans the engine's rounds, and its flow control, which says whether a look
// sends at all, already installed (newSenderPlan and runSenderPlan do) — to
// its endpoint.
func newSenderEngine(snd *core.Sender, ep senderEndpoint, opts Options, p probe) *senderEngine {
	return &senderEngine{senderEndpoint: ep, snd: snd, cfg: snd.Config(), opts: opts, probe: p}
}

// sendRing is the engine's reusable flush: per slot, the DATA header framed
// in place (all of them in one DataHeaderLen-stride array) and the payload,
// a slice of the object. Each datagram is gathered from the two by the
// kernel (batchio.Sender.SendGather), so no payload byte is copied on its way
// to the socket, and the ring's size does not scale with the packet size.
type sendRing struct {
	heads  [][]byte
	bodies [][]byte
}

// newSendRing builds the ring of slots headers.
func newSendRing(slots int) sendRing {
	frames := make([]byte, slots*wire.DataHeaderLen)
	r := sendRing{heads: make([][]byte, slots), bodies: make([][]byte, slots)}
	for i := range r.heads {
		r.heads[i] = frames[i*wire.DataHeaderLen : i*wire.DataHeaderLen : (i+1)*wire.DataHeaderLen]
	}
	return r
}

// len is the ring's slot count.
func (r sendRing) len() int { return len(r.heads) }

// from is the ring from slot i on.
func (r sendRing) from(i int) sendRing { return sendRing{r.heads[i:], r.bodies[i:]} }

// send puts the first k slots on the wire.
func (r sendRing) send(tx *batchio.Sender, k int) (int, error) {
	return tx.SendGather(r.heads[:k], r.bodies[:k])
}

// encodeBatch pulls up to max packets from the sender's schedule and frames
// each into its slot of the reusable ring, returning how many slots were
// filled. The headers are framed in place and the payloads stay in the
// object, so steady-state encoding allocates nothing — including the probe's
// report, which with metrics on is a handful of atomic adds plus a bitmap
// test-and-set to classify retransmissions.
func encodeBatch(snd *core.Sender, ring sendRing, max int, p probe, base int) (k int) {
	for k < ring.len() && k < max {
		pkt, ok := snd.NextPacket()
		if !ok {
			break
		}
		ring.heads[k] = wire.AppendDataHeader(ring.heads[k][:0], &pkt)
		ring.bodies[k] = pkt.Payload
		p.dataSent(pkt.Seq, len(pkt.Payload), base+k)
		k++
	}
	return k
}

// run drives the engine until the completion verdict arrives on the
// endpoint's done channel or the transfer fails.
//
// The batch-send phase is where the fast path earns its keep. Rounds are
// planned one at a time by the sender (core.Sender.PlanRound: the batch
// policy asks for B packets, the congestion controller may cap the ask and
// names the round's pacing gap) and framed one behind another into a
// reusable ring of Options.IOBatch slots (sendRing: a header each, the
// payload left in the object). The ring leaves as one flush (one sendmmsg whose
// equal-length datagrams travel as UDP_SEGMENT trains; one write per packet
// on the scalar path), and the ack socket is looked at once per flush, not
// once per round: the unit between two looks stays one send operation, it
// just carries a ring of packets in the time two used to take. The ring is
// flushed when it is full, when the look's room is used up, and after a
// round that carries a gap, which therefore goes out on its own, whole
// (chunked at the ring length when B is larger), as it always did: a paced
// policy's spacing on the wire is round by round. The ack poll likewise
// drains every queued acknowledgement in one recvmmsg. Steady state
// allocates nothing per packet.
//
// Whether a look sends at all is the sender's decision too (core.Sender.Look:
// the turn-over rule and the receive window, core's flow.go). A look with room
// for nothing blocks on the ack socket until news or Options.IdlePoll, and a
// wait that runs out is reported (core.Sender.Quiet). An acknowledgement ends
// the wait by arriving; the verdict and ctx end it because whoever delivers
// them then sets the socket's read deadline to the past (runSenderPlan's
// waker).
//
// Pacing is the same wait with another deadline: the instant of the pacing
// clock (pacer, pace.go), which each paced round moves on by its gap for every
// packet the kernel took. Acknowledgements landing in the gap are processed as
// they land; an instant that passes is not silence (nothing is reported to
// the sender); whatever ends the wait, nothing leaves before the instant.
// The engine blocks nowhere else.
//
// Arming the deadline before looking at done and ctx, and reading only
// after, is what keeps a verdict that lands between two waits from costing
// more than one IdlePoll: a kick that came before the arming is followed by
// a look that sees the verdict, and one that comes after it cuts the read
// short.
//
// Liveness: if the transfer is incomplete and no acknowledgement arrives
// for Options.StallTimeout, the loop aborts (ABORT stalled on the control
// channel) and returns an error wrapping ErrStalled. Persistent UDP write
// errors (e.g. ECONNREFUSED once the peer's socket is gone) surface after
// writeErrLimit failing batch rounds with no intervening acknowledgement;
// transient buffer pressure (ENOBUFS et al.) is absorbed by the pacing
// loop.
func (e *senderEngine) run(ctx context.Context) error {
	snd, cfg, opts := e.snd, e.cfg, e.opts
	tx, err := batchio.NewSender(e.conn, opts.IOBatch, !opts.NoFastPath)
	if err != nil {
		return fmt.Errorf("udprt: batched sender: %w", err)
	}
	tx.FlushHook = opts.testFlushHook
	rx, err := batchio.NewReceiver(e.conn, ackPollSlots, ackDatagramLen(cfg), !opts.NoFastPath)
	if err != nil {
		return fmt.Errorf("udprt: ack receiver: %w", err)
	}
	// The pacing clock, the instant it set (zero: none), and the time waited.
	var pace pacer
	var paceAt time.Time
	var paceWait time.Duration
	defer func() {
		c := tx.Counters()
		c.Add(rx.Counters())
		c.PaceWait = paceWait
		e.io = c
		e.probe.io(c)
	}()
	ring := newSendRing(opts.IOBatch)
	ackWords := make([]uint64, 0, wire.MaxFragWords(cfg.AckPacketSize))
	// started is the epoch of the sender's clock (core.Sender.Look).
	started := time.Now()
	// handleAcks feeds the first n datagrams of the ack ring to the sender.
	handleAcks := func(n int) {
		for i := 0; i < n; i++ {
			a, err := wire.DecodeAckInto(rx.Datagram(i), ackWords)
			if err != nil {
				continue
			}
			ackWords = a.Frag.Words[:0] // HandleAck consumed the fragment
			// Per-ack instrumentation (metrics counter, flight record,
			// latency histograms) fires inside HandleAck via the sender's
			// ack observer (the probe), which also sees exactly which
			// packets the fragment newly acknowledged; a fresh
			// acknowledgement is the controller's rate signal there too.
			if snd.HandleAck(a) == nil && e.progress != nil {
				e.progress(snd.Stats().KnownReceived, snd.NumPackets())
			}
		}
	}
	writeErrs := 0
	var lastWriteErr error
	// noteWriteErr folds one persistent socket failure into the abort
	// accounting, reporting whether the limit is reached. Transient
	// buffer pressure does not count.
	noteWriteErr := func(err error) bool {
		if isTransientWriteErr(err) || isTimeout(err) {
			return false
		}
		writeErrs++
		lastWriteErr = err
		return writeErrs >= writeErrLimit
	}
	// wait makes the next look block on the ack socket instead of polling it.
	wait := false
	// flush puts the first k ring slots on the wire, adds what the kernel took
	// to sent, and reports whether this look may send more: not after a short
	// or failed write (kernel backpressure: pace, poll, come back). fatal is
	// set once persistent failures reach the limit.
	var sent int
	var fatal bool
	flush := func(k int) bool {
		m, err := ring.send(tx, k)
		sent += m
		if err != nil {
			fatal = noteWriteErr(err)
		}
		return err == nil && m == k
	}
	for {
		until := paceAt // a look with no deadline is a poll
		if wait {
			until = time.Now().Add(opts.IdlePoll)
		}
		if !until.IsZero() {
			e.conn.SetReadDeadline(until)
		}
		select {
		case err := <-e.done:
			snd.SetComplete()
			return err
		case <-ctx.Done():
			e.abort(wire.AbortCancelled)
			return ctx.Err()
		default:
		}
		// Phase 2: look for acknowledgements — blocking only when the sender
		// said wait or a pacing instant pends. A latched socket error consumed
		// by the read (the asynchronous ECONNREFUSED of an earlier batch — which
		// a partial sendmmsg reports as a short count, not an errno) counts
		// toward the write-error limit, or the fast path could spin forever
		// on a dead peer that scalar writes would have exposed.
		var n int
		var rerr error
		if !until.IsZero() {
			waitFrom := time.Now()
			n, rerr = rx.Recv()
			// A lingering deadline, once past, would fail every later poll
			// without reading the socket.
			e.conn.SetReadDeadline(time.Time{})
			if !wait {
				paceWait += time.Since(waitFrom) // a passing instant is not silence
			} else if isTimeout(rerr) {
				snd.Quiet(time.Since(started)) // no news for IdlePoll
			}
		} else {
			n, rerr = rx.TryRecv()
		}
		handleAcks(n)
		if rerr != nil && noteWriteErr(rerr) {
			e.abort(wire.AbortUnspecified)
			return fmt.Errorf("udprt: data socket: %w", lastWriteErr)
		}
		if wait {
			// Whatever ended the wait may have been the verdict: look
			// before putting anything more on the wire.
			wait = false
			continue
		}
		now := time.Since(started)
		room, silence := snd.Look(now, ring.len())
		// Liveness: any processed ack — fresh or stale — proves the
		// receiver is alive and resets both watchdog counters.
		if silence == 0 {
			writeErrs = 0
		} else if opts.StallTimeout > 0 && silence > opts.StallTimeout {
			snd.NoteStall()
			e.probe.stalled()
			e.abort(wire.AbortStalled)
			return fmt.Errorf("udprt: no acknowledgement for %v: %w",
				opts.StallTimeout, ErrStalled)
		}
		if !paceAt.IsZero() && time.Now().Before(paceAt) {
			continue // nothing goes out before the pacing instant
		}
		paceAt = time.Time{}
		if room <= 0 {
			wait = true // logically blocked on an ack or the completion signal
			continue
		}
		// Phases 1+3: batch-send with the schedule choosing each packet. The
		// batch policy asks, the congestion controller may cap the ask and
		// dictates the round's per-packet pacing gap; rounds without a gap
		// queue up in the ring until it is full or the room used up, a round
		// with one goes out alone — what is queued leaves first — and ends
		// the look.
		fill := 0   // ring slots awaiting the flush
		rounds := 0 // rounds that put packets in the ring
		sent = 0
		var gapPer time.Duration // of the last round planned
		gapFrom := 0             // packets sent before that round was encoded
		ok := true
		for ok && fill < room {
			var batch int
			batch, gapPer = snd.PlanRound(now)
			e.probe.batchSize(batch)
			if gapPer == 0 {
				batch = min(batch, room-fill)
			} else if fill > 0 {
				ok, fill = flush(fill), 0
			}
			gapFrom = sent
			n := 0
			for ok && n < batch {
				if fill == ring.len() {
					// A round longer than the ring goes out in ring-sized chunks.
					ok, fill = flush(fill), 0
					continue
				}
				k := encodeBatch(snd, ring.from(fill), batch-n, e.probe, n)
				if k == 0 {
					break
				}
				fill, n = fill+k, n+k
			}
			if n == 0 {
				break // the schedule has nothing to send, or the kernel no room
			}
			rounds++
			if gapPer > 0 {
				break
			}
		}
		if ok && fill > 0 {
			flush(fill)
		}
		if fatal {
			e.abort(wire.AbortUnspecified)
			return fmt.Errorf("udprt: data write: %w", lastWriteErr)
		}
		if sent == 0 {
			// This look's write failed: logically blocked on the kernel
			// buffer draining, an ack or the completion signal.
			wait = true
			continue
		}
		for ; rounds > 0; rounds-- {
			e.probe.round()
		}
		// Pacing: the round's gap, per packet the kernel took, moves the clock
		// on (under the fixed policy gapPer is exactly Options.Pace).
		if gapPer > 0 {
			paceAt = pace.charge(time.Now(), gapPer, sent-gapFrom)
		}
	}
}

// receiverEngine owns the receive-side per-datagram pipeline for one
// transfer (or one stripe): classify via the state machine, place the
// payload, report the verdict to the probe, and frame the acknowledgement when one is due. The endpoint's routing
// function (Listener.route) is its one caller. An engine is not safe for
// concurrent use: its transfer's lock (inbound.mu) serializes the loop that
// feeds it with the lifecycle goroutine that reads it.
type receiverEngine struct {
	rcv    *core.Receiver
	probe  probe // the stripe's instrumentation, attached by the lifecycle
	ackBuf []byte
	// ackCalls counts acknowledgement datagrams emitted for this engine;
	// detach folds it into the transfer's socket counters (acks go out one
	// WriteToUDPAddrPort each).
	ackCalls int
	// finished latches the engine's first observation of completion so a
	// straggler duplicate cannot re-trigger completion actions.
	finished bool
	// seal, when non-nil, is told of every fresh packet's place in the
	// object (off is this engine's stripe offset) so leaves are hashed as
	// they complete.
	seal       *sealer
	off        int
	packetSize int
}

// newReceiverEngine wraps one prepared core.Receiver.
func newReceiverEngine(rcv *core.Receiver) *receiverEngine {
	cfg := rcv.Config()
	return &receiverEngine{
		rcv:        rcv,
		ackBuf:     make([]byte, 0, cfg.AckPacketSize+wire.AckHeaderLen),
		packetSize: cfg.PacketSize,
	}
}

// ingest runs one decoded datagram (already demuxed to this engine's
// transfer tag) through the classify → place → ack pipeline. The returned
// ack frame aliases the engine's reusable buffer — put it on the wire (and
// report it) before the next ingest — and is nil when no acknowledgement is
// due. finishedNow reports the engine's first transition to complete. The
// hot path allocates nothing.
func (e *receiverEngine) ingest(d wire.Data) (ack []byte, ackSeq uint32, ackRecv int, finishedNow bool) {
	// The state machine classifies the packet (fresh, duplicate,
	// rejected, other-transfer straggler); diffing its value-typed
	// stats before and after mirrors that verdict into the instruments
	// without a second classification — and without allocating.
	before := e.rcv.Stats()
	ackDue, err := e.rcv.HandleData(d)
	after := e.rcv.Stats()
	e.probe.dataReceived(d.Seq, len(d.Payload), before, after)
	if err != nil {
		return nil, 0, 0, false
	}
	if after.Received > before.Received {
		e.seal.placed(e.off+int(d.Seq)*e.packetSize, len(d.Payload))
	}
	if ackDue {
		a := e.rcv.BuildAck()
		e.ackBuf = wire.AppendAck(e.ackBuf[:0], &a)
		ack, ackSeq, ackRecv = e.ackBuf, a.AckSeq, int(a.Received)
	}
	if !e.finished && e.rcv.Complete() {
		e.finished = true
		finishedNow = true
	}
	return ack, ackSeq, ackRecv, finishedNow
}
