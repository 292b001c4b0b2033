// The receive side: one demux loop per endpoint and one transfer lifecycle.
// The paper's receiver is a single algorithm on a single channel layout (§3:
// TCP control connection, UDP data flow, acks back to the data's source
// address), and so is this one. A Listener owns the data socket's loop, which
// routes every datagram by transfer tag to the transfer in flight that
// registered it; receive runs one announced transfer from its announcement to
// COMPLETE, ABORT or retention. Listener.Accept, IncomingSession.Next and
// Server.Serve differ only in where the control connection comes from,
// whether it may be watched, and how many transfers run at once.
package udprt

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// inbound is the receive state of one transfer in flight. Its tags are
// registered with the endpoint from register to detach; between arm and
// detach it is live and the endpoint's loop drives its engines.
type inbound struct {
	plan recvPlan
	io0  stats.IOCounters // the ring's published tallies at registration
	// complete is closed by the loop when the last stripe's last packet is
	// placed (by arm, when a restored transfer had nothing missing).
	complete chan struct{}

	// mu serializes the engines: the loop ingests under it, the lifecycle
	// goroutine takes it to go live, to run the idle watchdog and to detach —
	// after which the engines are the lifecycle's alone.
	mu       sync.Mutex
	live     bool              // the loop drops datagrams for a transfer that is not
	engines  []*receiverEngine // one per stripe, in layout order
	pending  int               // stripes not yet complete
	lastData time.Time         // when the last drain holding a datagram of this transfer began
}

// tagRoute is a registered transfer tag's destination: a stripe of an inbound.
type tagRoute struct {
	in     *inbound
	stripe int
}

// loop is the endpoint's one reader of rx, from Listen until Close closes
// the socket under it. It blocks with no read deadline: nothing but the
// socket's closing ends it.
func (l *Listener) loop() {
	defer close(l.stopped)
	for l.drain() == nil {
	}
}

// drain is one wakeup of the loop: up to Options.IOBatch messages — each a
// datagram or, from a sender that groups them, a train of up to 64 — leave
// the socket in one recvmmsg (one datagram per read on the scalar path) and
// every datagram is routed before the socket is touched again, so concurrent
// senders and stripes cost one syscall per queueful, not one read each. The
// clock is read, and the ring's counters published, once per drain.
func (l *Listener) drain() error {
	n, err := l.rx.Recv()
	if err != nil {
		return err
	}
	now := time.Now()
	l.mu.Lock()
	l.io = l.rx.Counters()
	l.mu.Unlock()
	for i := 0; i < n; i++ {
		l.route(l.rx.Datagram(i), l.rx.Addr(i), now)
	}
	return nil
}

// route hands one datagram of the drain that began at now to the stripe that
// registered its tag, and writes the acknowledgement when one is due. A tag
// nobody registered — a straggler of a finished transfer, most often — is
// dropped, exactly as the state machine's own tag check would. The path
// allocates nothing: the datagram lives in the socket's ring, the ack is
// serialized into the engine's reusable buffer, and the reply goes out
// through the net package's value-typed address API. A datagram longer than
// the transfer's packets is not cut short by its slot; core's length check
// refuses it.
func (l *Listener) route(buf []byte, from netip.AddrPort, now time.Time) {
	d, err := wire.DecodeData(buf)
	if err != nil {
		return
	}
	l.mu.Lock()
	rt, ok := l.inbound[d.Transfer]
	l.mu.Unlock()
	if !ok {
		return
	}
	in := rt.in
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.live {
		return
	}
	// Any datagram for the transfer — even a duplicate — proves the sender
	// lives; the first opens the rounds span.
	in.lastData = now
	e := in.engines[rt.stripe]
	e.probe.dataArrived()
	ack, ackSeq, ackRecv, finishedNow := e.ingest(d)
	if ack != nil {
		// A lost ack is the protocol's everyday case; a failed write is one.
		if _, err := l.udp.WriteToUDPAddrPort(ack, from); err == nil {
			e.ackCalls++
			e.probe.ackSent(ackSeq, ackRecv, len(ack))
		}
	}
	if finishedNow {
		if in.pending--; in.pending == 0 {
			close(in.complete)
		}
	}
}

// register reserves the plan's transfer tags, one per stripe, or returns nil
// when any of them belongs to a transfer in flight: colliding data would
// corrupt that transfer's accounting. Datagrams for a reserved tag are
// dropped until arm.
func (l *Listener) register(plan recvPlan) *inbound {
	in := &inbound{plan: plan, complete: make(chan struct{})}
	layout := plan.layout()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sd := range layout {
		if _, dup := l.inbound[sd.Transfer]; dup {
			return nil
		}
	}
	for i, sd := range layout {
		l.inbound[sd.Transfer] = tagRoute{in, i}
	}
	in.io0 = l.io
	return in
}

// arm attaches the engines and lets the loop drive them.
func (in *inbound) arm(engines []*receiverEngine) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.engines = engines
	for _, e := range engines {
		if !e.finished {
			in.pending++
		}
	}
	if in.pending == 0 {
		close(in.complete) // fully restored: nothing left on the wire
	}
	in.lastData = time.Now()
	in.live = true
}

// detach ends the loop's hold on the transfer — whatever arrives for its tags
// from here on is a straggler — and credits it with the socket work of its
// span; the lifecycle calls it exactly once per registration. The ring is
// shared and outlives the transfer, so the receive counts are the difference
// between the tallies published now and at registration (resetting the ring
// per transfer would be wrong under concurrency), and the sends are the
// acknowledgements its engines wrote. The socket is shared by every stripe,
// so the counters go to the base transfer's record rather than being split
// by a guess.
func (l *Listener) detach(in *inbound) {
	in.mu.Lock()
	in.live = false
	in.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sd := range in.plan.layout() {
		delete(l.inbound, sd.Transfer)
	}
	if in.engines == nil {
		return // refused before it went live
	}
	c := l.io
	c.RecvCalls -= in.io0.RecvCalls
	c.RecvDatagrams -= in.io0.RecvDatagrams
	c.RecvTrains -= in.io0.RecvTrains
	c.RecvOverflow -= in.io0.RecvOverflow
	for _, e := range in.engines {
		c.SendCalls += e.ackCalls
	}
	c.SentDatagrams = c.SendCalls
	if c.SendCalls > 0 {
		c.MaxSendBatch = 1 // acks go out one WriteToUDPAddrPort each
	}
	if l.opts.IOCounters != nil {
		*l.opts.IOCounters = c
	}
	in.engines[0].probe.io(c)
}

// receive runs one inbound transfer on an established control connection,
// from its announcement to its verdict:
//
//	plan → cache hit? → register → reserve a cache slot → claim, recycle
//	or create → start sealer → go live → CHECK answer (HAVE [+ HELLO-ACK])
//	→ wait → detach → verify → keep → COMPLETE → caller's copy
//
// The CHECK every announcement carries is answered from one lookup. A
// content-cache hit ends the transfer at its second step (completeDeduped).
// Otherwise the resume store is consulted for the announced content: a hit
// restores its bitmap, and the HAVE that answers the CHECK carries it — or
// carries nothing on a miss — with the HELLO-ACK behind it, unless the
// retained state was already the whole object, which then completes at once.
// A transfer the cache will keep reserves its slot on admission and, on a
// miss, lands in the buffer the reservation's eviction freed when one fits;
// once verified, its landing buffer becomes the cache entry before COMPLETE
// goes out, and the caller is handed a copy of it made after (cacheSlot). A
// transfer with no slot is handed its landing buffer itself.
// A refusal — an unusable announcement, a tag in flight — answers a reasoned
// ABORT and leaves nothing behind. The wait ends on completion, ctx, the idle
// watchdog or, when watchCtl says the connection is dedicated to this
// transfer, the sender's ABORT or death (on a session connection the watcher
// would steal the next announcement; the idle watchdog covers a vanished
// sender there). A single-flow transfer that fails after it was admitted
// leaves its partial state in the resume store under its content identity;
// one whose bytes failed verification is neither delivered, cached nor
// retained. Every exit stamps the instruments with its error value.
func (l *Listener) receive(ctx context.Context, ctl net.Conn, watchCtl bool) (recvPlan, []byte, core.ReceiverStats, error) {
	plan, err := readTransferPlan(ctx, ctl)
	if err != nil {
		refuseAnnouncement(ctl, err)
		return plan, nil, core.ReceiverStats{}, err
	}
	if obj, ok := plan.dedupHit(l.cache); ok {
		obj, st, err := completeDeduped(plan, ctl, l.opts, obj)
		return plan, obj, st, err
	}
	// Register first, claim second: an announcement that collides with a
	// transfer in flight must not take the retained state down with it.
	in := l.register(plan)
	if in == nil {
		writeAbort(ctl, plan.base, wire.AbortDuplicateTransfer)
		return plan, nil, core.ReceiverStats{}, fmt.Errorf("udprt: transfer %d refused: %s", plan.base, wire.AbortDuplicateTransfer)
	}
	slot := plan.admit(l.cache)
	defer slot.release()
	obj, engines := l.landing(plan, slot)
	restored := engines[0].rcv.Stats().Restored
	span := l.opts.startSpan(plan.trace, plan.base, obs.RoleReceiver)
	for _, e := range engines {
		cfg := e.rcv.Config()
		e.probe = span.receiver(l.opts.Metrics, l.opts.Record, cfg.Transfer, e.rcv.NumPackets(), int64(len(e.rcv.Object())), cfg.PacketSize)
	}
	seal := plan.startSealer(obj, engines...)
	defer seal.abandon()
	// fail is every exit of a detached transfer but success: the engines are
	// this goroutine's alone by then, so what they hold can be retained and
	// summed.
	fail := func(err error, retain bool) (recvPlan, []byte, core.ReceiverStats, error) {
		if retain {
			l.store.retain(plan, engines[0].rcv)
		}
		for _, e := range engines {
			e.probe.finish(err)
		}
		return plan, nil, sumRecvStats(engines), err
	}

	// The handshake is noted before the transfer goes live, so that no record
	// shows data ahead of it; and the answer is built before then too:
	// stragglers of the interrupted run may mutate the bitmap the moment the
	// loop can reach it.
	span.event(obs.KindCheck, 0)
	for _, e := range engines {
		e.probe.handshake()
	}
	span.event(obs.KindHandshake, 0)
	have := wire.Have{Transfer: plan.base, Words: []uint64{0}}
	if restored > 0 {
		engines[0].probe.restored(restored)
		span.event(obs.KindResume, uint64(restored))
		have.Received, have.Words = uint32(restored), engines[0].rcv.HaveWords(nil)
	}
	msg := wire.AppendHave(nil, &have)
	if !engines[0].finished {
		// A HAVE of every packet is followed by COMPLETE alone, as a cache
		// hit's is: the sender has nothing to hand-shake for.
		msg = wire.AppendHelloAck(msg, &wire.HelloAck{Transfer: plan.base, Window: l.window(len(engines))})
	}
	in.arm(engines)
	if err := writeControl(ctl, msg); err != nil {
		l.detach(in)
		return fail(fmt.Errorf("udprt: check answer write: %w", err), true) // the sender never saw our acceptance; stay claimable
	}
	err = l.await(ctx, in, ctl, watchCtl)
	l.detach(in)
	if err != nil {
		return fail(err, true)
	}
	// Every packet is placed; what remains is the content verdict over the
	// leaves not hashed yet and the COMPLETE write.
	span.event(obs.KindDrain, uint64(seal.pending()))
	if err := plan.verifyContent(obj, seal); err != nil {
		writeAbort(ctl, plan.base, wire.AbortDigestMismatch)
		return fail(err, false)
	}
	// Kept before COMPLETE: the sender may re-push the same content the
	// moment its Send returns, and that CHECK must already hit.
	slot.keep(obj)
	if err := writeControl(ctl, completeFrame(plan)); err != nil {
		return fail(fmt.Errorf("udprt: completion write: %w", err), false)
	}
	obj = slot.deliver(obj, plan.packetSize)
	for _, e := range engines {
		e.probe.finish(nil)
	}
	return plan, obj, sumRecvStats(engines), nil
}

// landing builds the plan's engines over the buffer they assemble into: the
// state the resume store retained for the announced content, restored, when
// there is some (single-flow plans only), or else the buffer the slot's
// admission recycled, or else a new one. A recycled buffer is not cleared:
// nothing reads a byte of it before a packet is placed there (the sealer
// hashes whole leaves only), and a failed transfer's unplaced bytes are
// zeroed before the resume store keeps it. Retained state that does not
// restore is dropped, and the plan lands as on a miss.
func (l *Listener) landing(plan recvPlan, slot *cacheSlot) ([]byte, []*receiverEngine) {
	if ret := l.store.claim(plan); ret != nil {
		engines := newRecvEngines(plan, ret.obj)
		if _, err := engines[0].rcv.Restore(ret.words); err == nil {
			engines[0].finished = engines[0].rcv.Complete()
			return ret.obj, engines
		}
	}
	obj := slot.recycled()
	if obj == nil {
		obj = make([]byte, plan.objectSize)
	}
	return obj, newRecvEngines(plan, obj)
}

// await blocks until the live transfer completes (nil) or fails: ctx ends,
// the sender aborts or vanishes (only when watchCtl allows watching the
// connection), or no datagram for any stripe arrives for Options.IdleTimeout.
// The two failures the sender cannot know of are announced to it with an
// ABORT tagged with the transfer's base id.
func (l *Listener) await(ctx context.Context, in *inbound, ctl net.Conn, watchCtl bool) error {
	base, idle := in.plan.base, l.opts.IdleTimeout
	var abortCh <-chan error
	if watchCtl {
		abortCh = watchControl(ctl, base)
	}
	var idleC <-chan time.Time
	if idle > 0 {
		tick := time.NewTicker(max(idle/4, 50*time.Millisecond))
		defer tick.Stop()
		idleC = tick.C
	}
	for {
		select {
		case <-in.complete:
			return nil
		case <-ctx.Done():
			writeAbort(ctl, base, wire.AbortCancelled)
			return ctx.Err()
		case err := <-abortCh:
			return err
		case <-idleC:
			in.mu.Lock()
			starved := in.pending > 0 && time.Since(in.lastData) > idle
			if starved {
				for _, e := range in.engines {
					e.rcv.NoteIdle()
					e.probe.idled()
				}
			}
			in.mu.Unlock()
			if starved {
				writeAbort(ctl, base, wire.AbortIdleTimeout)
				return fmt.Errorf("udprt: no data for %v: %w", idle, ErrIdle)
			}
		}
	}
}
