// The transfer engine: the sockets under core's one sender loop, and the one
// receiver pipeline, behind every datapath in this package. Send,
// Session.Send and each stripe of a striped transfer are thin adapters over
// the sender engine — they differ only in how sockets are obtained, how the
// completion verdict is delivered, and who writes the control-channel ABORT,
// which is exactly what the endpoint parameters capture. On the receive side
// every endpoint's one loop (receive.go) routes each datagram to the receiver
// engine of the stripe it belongs to.
package udprt

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/batchio"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// ackPollSlots bounds the sender's acknowledgement-drain vector: acks are
// outnumbered ~AckFrequency:1 by data packets, so a short vector already
// catches every queued ack per poll.
const ackPollSlots = 8

// ackLen is the longest acknowledgement a transfer of n packets can frame
// when its acks are bounded to ackPacketSize bytes. An ack carries a window
// of the receiver's status map, and core.Receiver.BuildAck extracts at most
// the map's own words: a 64-packet object's longest ack holds one word,
// whatever the packet size. Both ends size their ack buffers by it — the
// receiver engine the frames it writes, the sender engine the slots it reads
// them into.
func ackLen(ackPacketSize, n int) int {
	return wire.AckHeaderLen + 8*min(wire.MaxFragWords(ackPacketSize), (n+63)/64)
}

// ackSlotLen is what each slot of a sender's ack ring must hold for a transfer
// of that many packets under cfg. The receiver bounds its acks by the
// announced packet size (the HELLO carries no ack size), so a sender-side
// AckPacketSize below PacketSize must not shrink the slot. A longer datagram
// arrives truncated and fails to decode.
func ackSlotLen(cfg core.Config, packets int) int {
	return ackLen(max(cfg.AckPacketSize, cfg.PacketSize), packets)
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

// senderEngine runs the paper's sender loop (core.Sender.Step) over one data
// flow, single-threaded like the paper's sender: each look reads the
// acknowledgement socket — a poll, or a wait when the step said so — and
// then steps. Only the TCP completion signal has its own goroutine.
type senderEngine struct {
	senderEndpoint
	snd  *core.Sender
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
	return &senderEngine{senderEndpoint: ep, snd: snd, opts: opts, probe: p}
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

// send puts the first k slots on the wire.
func (r sendRing) send(tx *batchio.Sender, k int) (int, error) {
	return tx.SendGather(r.heads[:k], r.bodies[:k])
}

// senderKit is a sender engine's I/O state: the batched sender and the ring it
// flushes, the ack receiver and the buffer acks decode into. None of it grows
// with the object, so it outlives the engine that used it: a kit waits in
// kitPool, bound to no socket and naming no byte of any object, for the next
// engine, of this Send or a later one.
type senderKit struct {
	tx       *batchio.Sender
	ring     sendRing
	rx       *batchio.Receiver
	ackWords []uint64
}

// kitPool keeps the kits of engines that have returned, the latest last, up
// to maxPooledKits of them. It is a list under a lock, not a sync.Pool: a
// sync.Pool keeps a returned kit in the slot of the processor that returned
// it, where an engine started on another processor does not look, and empties
// at every collection, so that six in a thousand small Sends built their kit
// anew where the list builds one, and whether a kit is pooled could not be
// tested.
var kitPool struct {
	sync.Mutex
	kits []*senderKit
}

// maxPooledKits bounds the pool: enough for a few concurrent striped Sends.
const maxPooledKits = 16

// getKit returns a kit bound to conn with a ring of batch slots and ack slots
// of ackSlot bytes, on the fast path when fast asks for it: the latest pooled
// kit when it fits — a ring exactly that long, since its length is a look's
// room; ack slots at least that long, cut to ackSlot; the same socket path —
// and a new one otherwise, the pooled one dropped.
func getKit(conn *net.UDPConn, batch, ackSlot int, fast bool) (*senderKit, error) {
	fast = fast && batchio.FastPathAvailable()
	var k *senderKit
	kitPool.Lock()
	if n := len(kitPool.kits); n > 0 {
		k, kitPool.kits[n-1] = kitPool.kits[n-1], nil
		kitPool.kits = kitPool.kits[:n-1]
	}
	kitPool.Unlock()
	if k != nil && k.ring.len() == batch && k.tx.Vectored() == fast && k.rx.Vectored() == fast &&
		k.rx.Rebind(conn, ackSlot) {
		k.tx.Rebind(conn)
		return k, nil
	}
	tx, err := batchio.NewSender(conn, batch, fast)
	if err != nil {
		return nil, fmt.Errorf("udprt: batched sender: %w", err)
	}
	rx, err := batchio.NewReceiver(conn, ackPollSlots, ackSlot, fast)
	if err != nil {
		return nil, fmt.Errorf("udprt: ack receiver: %w", err)
	}
	return &senderKit{tx: tx, ring: newSendRing(batch), rx: rx,
		ackWords: make([]uint64, 0, (ackSlot-wire.AckHeaderLen)/8)}, nil
}

// put unbinds k from its socket, forgets every payload its ring and iovecs
// named — Send keeps nothing of obj — and pools it.
func (k *senderKit) put() {
	k.tx.Rebind(nil)
	k.rx.Rebind(nil, 0)
	clear(k.ring.bodies)
	kitPool.Lock()
	defer kitPool.Unlock()
	if len(kitPool.kits) < maxPooledKits {
		kitPool.kits = append(kitPool.kits, k)
	}
}

// ringVector is the engine's core.Vector: each packet's DATA header framed in
// its ring slot, the payload left in the object, the ring flushed as one
// SendGather; steady state allocates nothing. fatal is set once persistent
// write failures reach writeErrLimit with no acknowledgement between.
type ringVector struct {
	ring      sendRing
	tx        *batchio.Sender
	snd       *core.Sender
	probe     probe
	writeErrs int
	lastErr   error
	fatal     bool
}

func (v *ringVector) Len() int                         { return v.ring.len() }
func (v *ringVector) Round(batch int, _ time.Duration) { v.probe.batchSize(batch) }

func (v *ringVector) Put(i int, pkt wire.Data, idx int) {
	v.ring.heads[i] = wire.AppendDataHeader(v.ring.heads[i][:0], &pkt)
	v.ring.bodies[i] = pkt.Payload
	v.probe.dataSent(pkt.Seq, len(pkt.Payload), idx)
}

func (v *ringVector) Flush(k int) (int, bool) {
	m, err := v.ring.send(v.tx, k)
	v.probe.publish(v.snd)
	if err != nil {
		v.fatal = v.noteWriteErr(err)
	}
	return m, err == nil && m == k
}

// noteWriteErr folds one persistent socket failure into the abort accounting,
// reporting whether the limit is reached. Transient buffer pressure does not
// count.
func (v *ringVector) noteWriteErr(err error) bool {
	if isTransientWriteErr(err) || isTimeout(err) {
		return false
	}
	v.writeErrs++
	v.lastErr = err
	return v.writeErrs >= writeErrLimit
}

// run drives the engine until the completion verdict arrives on the
// endpoint's done channel or the transfer fails. What each look sends and
// then waits for is the step's decision; a wait is a read of the ack socket
// (one recvmmsg drains every queued acknowledgement) under a deadline, the
// idle poll's end or the pacing instant, and the engine blocks nowhere else.
// An acknowledgement ends a wait by arriving; the verdict and ctx end it
// because whoever delivers them then sets the read deadline to the past
// (runSenderPlan's waker). Arming the deadline before looking at done and
// ctx, and reading only after, keeps a verdict that lands between two waits
// from costing more than one idle poll.
//
// Liveness: an incomplete transfer with no acknowledgement for
// Options.StallTimeout aborts (ABORT stalled) with an error wrapping
// ErrStalled. Persistent UDP write errors (e.g. ECONNREFUSED once the peer's
// socket is gone) surface after writeErrLimit failing flushes with no
// acknowledgement between; transient buffer pressure (ENOBUFS et al.) is
// absorbed by the waits.
func (e *senderEngine) run(ctx context.Context) error {
	snd, opts := e.snd, e.opts
	kit, err := getKit(e.conn, opts.ioBatch, ackSlotLen(snd.Config(), snd.NumPackets()), !opts.NoFastPath)
	if err != nil {
		return err
	}
	defer kit.put() // after the counters are read: the next engine resets them
	rx := kit.rx
	kit.tx.FlushHook = opts.testFlushHook
	v := &ringVector{ring: kit.ring, tx: kit.tx, snd: snd, probe: e.probe}
	var paceWait time.Duration
	defer func() {
		c := kit.tx.Counters()
		c.Add(rx.Counters())
		c.PaceWait = paceWait
		e.io = c
		e.probe.io(c)
	}()
	started := time.Now() // the step's clock counts from here
	opts.slow(snd, started)
	// handleAcks feeds the first n datagrams of the ack ring to the sender,
	// and shows the registry what they changed.
	handleAcks := func(n int) {
		for i := 0; i < n; i++ {
			a, err := wire.DecodeAckInto(rx.Datagram(i), kit.ackWords)
			if err != nil {
				continue
			}
			kit.ackWords = a.Frag.Words[:0] // HandleAck consumed the fragment
			// A recording probe hears of the ack inside HandleAck, as the
			// sender's ack observer, and of exactly which packets the
			// fragment newly acknowledged; a fresh acknowledgement is the
			// controller's rate signal there too.
			if snd.HandleAck(a) == nil && e.progress != nil {
				e.progress(snd.Stats().KnownReceived, snd.NumPackets())
			}
		}
		if n > 0 {
			e.probe.publish(snd)
		}
	}
	// over reports the verdict or ctx's end, when either is in. The receiver
	// writes its last acknowledgement before its verdict, so on a success
	// that acknowledgement may still sit in the socket: it is read first, or
	// the sender's count of what arrived would stop one ack short. (Should
	// the waker's kick land between clearing the deadline and the read,
	// nothing is read.)
	over := func() (bool, error) {
		select {
		case err := <-e.done:
			if err == nil {
				e.conn.SetReadDeadline(time.Time{})
				if n, _ := rx.TryRecv(); n > 0 {
					handleAcks(n)
				}
			}
			snd.SetComplete()
			return true, err
		case <-ctx.Done():
			e.abort(wire.AbortCancelled)
			return true, ctx.Err()
		default:
			return false, nil
		}
	}
	wait, at := core.Poll, time.Duration(0)
	for {
		waiting := wait != core.Poll
		if waiting {
			e.conn.SetReadDeadline(started.Add(at))
		}
		if done, err := over(); done {
			return err
		}
		// A latched socket error consumed by the read (the asynchronous
		// ECONNREFUSED of an earlier batch — which a partial sendmmsg reports
		// as a short count, not an errno) counts toward the write-error limit,
		// or the fast path could spin forever on a dead peer that scalar
		// writes would have exposed.
		n, rerr := 0, error(nil)
		if waiting {
			waitFrom := time.Now()
			n, rerr = rx.Recv()
			// A lingering deadline, once past, would fail every later poll
			// without reading the socket.
			e.conn.SetReadDeadline(time.Time{})
			if wait == core.Pace {
				paceWait += time.Since(waitFrom)
			}
		} else {
			n, rerr = rx.TryRecv()
		}
		handleAcks(n)
		if rerr != nil && v.noteWriteErr(rerr) {
			e.abort(wire.AbortUnspecified)
			return fmt.Errorf("udprt: data socket: %w", v.lastErr)
		}
		if wait == core.News {
			// Whatever ended the wait may have been the verdict: look
			// before putting anything more on the wire.
			if done, err := over(); done {
				return err
			}
		}
		now := time.Since(started)
		// Liveness: any processed ack — fresh or stale — proves the
		// receiver is alive and resets both watchdog counters.
		if silence := snd.Silence(now); silence == 0 {
			v.writeErrs = 0
		} else if opts.StallTimeout > 0 && silence > opts.StallTimeout {
			snd.NoteStall()
			e.probe.event(obs.KindStall, 0)
			e.abort(wire.AbortStalled)
			return fmt.Errorf("udprt: no acknowledgement for %v: %w",
				opts.StallTimeout, ErrStalled)
		}
		wait, at = snd.Step(now, v)
		if v.fatal {
			e.abort(wire.AbortUnspecified)
			return fmt.Errorf("udprt: data write: %w", v.lastErr)
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
		ackBuf:     make([]byte, 0, ackLen(cfg.AckPacketSize, rcv.NumPackets())),
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
