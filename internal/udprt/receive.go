// The receive side: one demux loop per endpoint and one transfer lifecycle.
// The paper's receiver is a single algorithm on a single channel layout (§3:
// TCP control connection, UDP data flow, acks back to the data's source
// address), and so is this one. A Listener owns the data socket's loop, which
// routes every datagram by transfer tag to the transfer in flight that
// registered it; receive runs one announced transfer from its announcement to
// COMPLETE, ABORT or retention. Listener.Accept, IncomingSession.Next and
// Server.Serve differ only in how long they hold the control connection the
// endpoint lends them (conns.go: one accept loop, one reader and one server
// per connection, which serves announcements until its sender closes it) and
// how many transfers run at once.
package udprt

import (
	"context"
	"encoding/binary"
	"fmt"
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
	probes   stripes           // the engines' probes, in the same order
	arrived  bool              // a data datagram has been routed to the transfer
	pending  int               // stripes not yet complete
	lastData time.Time         // when the last drain holding a datagram of this transfer began
	mark     uint64            // the marker settle waits for (zero: none)
	settled  chan struct{}     // closed when the loop routes that marker
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

// drain is one wakeup of the loop: up to DefaultIOBatch messages — each a
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
// refuses it. A datagram that is not DATA is dropped, unless the socket wrote
// it to itself: that is a settling transfer's marker (settle).
func (l *Listener) route(buf []byte, from netip.AddrPort, now time.Time) {
	d, err := wire.DecodeData(buf)
	if err != nil {
		if netip.AddrPortFrom(from.Addr().Unmap(), from.Port()) == l.self {
			l.marked(buf)
		}
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
	// lives; the first opens the rounds phase.
	in.lastData = now
	if !in.arrived {
		in.arrived = true
		in.probes.event(obs.KindRounds, 0)
	}
	e := in.engines[rt.stripe]
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

// settleWait bounds settle's wait for the loop.
const settleWait = 250 * time.Millisecond

// markerLen is the length of settle's marker: the transfer tag it names, then
// the mark. No DATA frame is that short.
const markerLen = 4 + 8

// settle lets the loop route every datagram the data socket took before now,
// so that a failed transfer retains what reached its endpoint, not only what
// the loop had read by the time the failure was seen. It writes a marker
// datagram to the socket itself — queued behind everything the socket holds —
// and returns once the loop has routed it, after settleWait, or when the loop
// stops, whichever is first; a marker that cannot be written is not waited for.
func (l *Listener) settle(in *inbound) {
	mark := l.marks.Add(1)
	settled := make(chan struct{})
	in.mu.Lock()
	in.mark, in.settled = mark, settled
	in.mu.Unlock()
	var m [markerLen]byte
	binary.BigEndian.PutUint32(m[:], in.plan.layout()[0].Transfer)
	binary.BigEndian.PutUint64(m[4:], mark)
	if _, err := l.udp.WriteToUDPAddrPort(m[:], l.self); err != nil {
		return
	}
	wait := time.NewTimer(settleWait)
	defer wait.Stop()
	select {
	case <-settled:
	case <-wait.C:
	case <-l.stopped:
	}
}

// marked is route for a datagram the endpoint wrote to itself: the marker of
// a transfer that settles.
func (l *Listener) marked(buf []byte) {
	if len(buf) != markerLen {
		return
	}
	l.mu.Lock()
	rt, ok := l.inbound[binary.BigEndian.Uint32(buf)]
	l.mu.Unlock()
	if !ok {
		return
	}
	in := rt.in
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.mark != 0 && in.mark == binary.BigEndian.Uint64(buf[4:]) {
		in.mark = 0
		close(in.settled)
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

// arm attaches the engines, lets the loop drive them and the registry read
// them.
func (in *inbound) arm(engines []*receiverEngine) {
	for _, e := range engines {
		e.probe.follow(&in.mu, e)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.engines = engines
	for _, e := range engines {
		in.probes = append(in.probes, e.probe)
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
//	plan → open the store → dedup hit? → register → land → start sealer →
//	go live → answer (HAVE) → wait → detach → verify → keep → COMPLETE →
//	deliver the caller's copy
//
// The announcement is answered from one call on the store (open), with one
// HAVE. A dedup hit ends the transfer at its second step (completeDeduped).
// Otherwise the landing the store lent is where the transfer assembles: a
// claimed partial entry restores its bitmap, and the HAVE carries it — or
// carries nothing — with the receive window that accepts the transfer;
// retained state that was already the whole object completes at once. A
// transfer the store reserved room for becomes a whole entry once verified,
// before COMPLETE goes out, and the caller is handed a copy of it made
// after; a transfer with no reservation is handed its landing buffer
// itself. A refusal — an unusable announcement, a tag in flight — answers a
// reasoned ABORT and gives back what the store lent. The announcement comes
// from the connection's reader, rd, and so does whatever the sender writes
// during the wait: the wait ends on completion, ctx, the idle watchdog, or
// the sender's ABORT or death, on every endpoint — a session's included,
// whose next announcement the sender writes only after this transfer's
// COMPLETE. A single-flow transfer that fails after it was admitted leaves
// its partial state in the store under its content identity; one whose
// bytes failed verification is neither delivered, kept nor retained. Every
// exit stamps the instruments with its error value, and every exit after
// the announcement was read the stats with the time since.
func (l *Listener) receive(ctx context.Context, rd *ctlReader) (plan recvPlan, _ []byte, st core.ReceiverStats, err error) {
	ctl := rd.ctl
	plan, err = readTransferPlan(ctx, rd)
	if err != nil {
		refuseAnnouncement(ctl, err)
		return plan, nil, core.ReceiverStats{}, err
	}
	defer func(read time.Time) { st.Elapsed = time.Since(read) }(time.Now())
	h := l.store.open(plan)
	defer h.release()
	if h.hit {
		obj, st, err := l.completeDeduped(plan, ctl, h.obj)
		return plan, obj, st, err
	}
	in := l.register(plan)
	if in == nil {
		// A tag in flight: what the landing claimed goes back untouched.
		h.retain(nil)
		writeAbort(ctl, plan.base, wire.AbortDuplicateTransfer)
		return plan, nil, core.ReceiverStats{}, fmt.Errorf("udprt: transfer %d refused: %s", plan.base, wire.AbortDuplicateTransfer)
	}
	obj, engines := land(plan, &h)
	restored := engines[0].rcv.Stats().Restored
	span := l.opts.startSpan(plan.trace, plan.base, obs.RoleReceiver)
	probes := make(stripes, len(engines))
	for i, e := range engines {
		cfg := e.rcv.Config()
		probes[i] = span.receiver(l.opts.Metrics, l.opts.Record, cfg.Transfer, e.rcv.NumPackets(), int64(len(e.rcv.Object())), cfg.PacketSize)
		e.probe = probes[i]
	}
	seal := plan.startSealer(obj, engines...)
	defer seal.abandon()
	// fail is every exit of a detached transfer but success: the engines are
	// this goroutine's alone by then, so what they hold can be retained and
	// summed.
	fail := func(err error, retain bool) (recvPlan, []byte, core.ReceiverStats, error) {
		if retain {
			h.retain(engines[0].rcv)
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
	probes.event(obs.KindCheck, 0)
	probes.event(obs.KindHandshake, 0)
	have := wire.Have{Transfer: plan.base, Words: []uint64{0}, Window: l.window(len(engines))}
	if restored > 0 {
		probes[0].event(obs.KindResume, uint64(restored))
		have.Received, have.Words = uint32(restored), engines[0].rcv.HaveWords(nil)
	}
	in.arm(engines)
	if err := writeControl(ctl, wire.AppendHave(nil, &have)); err != nil {
		l.detach(in)
		return fail(fmt.Errorf("udprt: check answer write: %w", err), true) // the sender never saw our acceptance; stay claimable
	}
	err = l.await(ctx, in, rd)
	if err != nil {
		l.settle(in)
		l.detach(in)
		return fail(err, true)
	}
	l.detach(in)
	// Every packet is placed; what remains is the content verdict over the
	// leaves not hashed yet and the COMPLETE write.
	probes.event(obs.KindDrain, uint64(seal.pending()))
	if err := plan.verifyContent(seal); err != nil {
		writeAbort(ctl, plan.base, wire.AbortDigestMismatch)
		return fail(err, false)
	}
	// Kept before COMPLETE: the sender may re-push the same content the
	// moment its Send returns, and that CHECK must already hit.
	h.keep(obj)
	if err := writeControl(ctl, completeFrame(plan)); err != nil {
		return fail(fmt.Errorf("udprt: completion write: %w", err), false)
	}
	obj = h.deliver(obj)
	for _, e := range engines {
		e.probe.finish(nil)
	}
	return plan, obj, sumRecvStats(engines), nil
}

// land builds the plan's engines over the buffer the landing lent: a claimed
// partial entry's, restored, or one a reservation recycled, or else a new
// one. A recycled buffer is not cleared: nothing reads a byte of it before a
// packet is placed there (the sealer hashes whole leaves only), and a failed
// transfer's unplaced bytes are zeroed before the store retains it. A
// claimed entry that does not restore is dropped when the landing ends, and
// the plan lands in a new buffer as on a miss.
func land(plan recvPlan, h *landing) ([]byte, []*receiverEngine) {
	if c := h.claimed; c != nil {
		engines := newRecvEngines(plan, c.obj)
		if _, err := engines[0].rcv.Restore(c.words); err == nil {
			engines[0].finished = engines[0].rcv.Complete()
			return c.obj, engines
		}
	}
	obj := h.obj
	if obj == nil {
		obj = make([]byte, plan.objectSize)
	}
	return obj, newRecvEngines(plan, obj)
}

// await blocks until the live transfer completes (nil) or fails: ctx ends,
// the sender aborts or its control connection is lost (the reader hands over
// a frame or closes), or no datagram for any stripe arrives for
// Options.IdleTimeout. The two failures the sender cannot know of are
// announced to it with an ABORT tagged with the transfer's base id.
func (l *Listener) await(ctx context.Context, in *inbound, rd *ctlReader) error {
	base, idle := in.plan.base, l.opts.IdleTimeout
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
			writeAbort(rd.ctl, base, wire.AbortCancelled)
			return ctx.Err()
		case f, ok := <-rd.frames:
			switch {
			case !ok:
				return fmt.Errorf("udprt: control connection lost: %w", rd.err)
			case f.typ == wire.TypeAbort:
				return &AbortError{Transfer: f.abort.Transfer, Reason: f.abort.Reason}
			default:
				return fmt.Errorf("udprt: unexpected control frame type %d mid-transfer", f.typ)
			}
		case <-idleC:
			in.mu.Lock()
			starved := in.pending > 0 && time.Since(in.lastData) > idle
			if starved {
				for _, e := range in.engines {
					e.rcv.NoteIdle()
				}
				in.probes.event(obs.KindIdle, 0)
			}
			in.mu.Unlock()
			if starved {
				writeAbort(rd.ctl, base, wire.AbortIdleTimeout)
				return fmt.Errorf("udprt: no data for %v: %w", idle, ErrIdle)
			}
		}
	}
}
