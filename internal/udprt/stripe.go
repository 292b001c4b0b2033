// Striped parallel transfers: Options.Streams splits one object into N
// contiguous stripes, each an independent FOBS transfer (its own transfer
// tag, sequence space and UDP data flow) driven by its own sender engine,
// all sharing a single control connection. One announcement — the HELLO
// carrying the stripe table — describes the whole plan, one HAVE accepts
// it, and one COMPLETE — carrying the whole-object digest — finishes it,
// honouring the paper's object-based premise: the receive window spans the
// entire buffer, so stripes reassemble by placement into one pre-allocated
// object, never by copy.
// This is the real-network counterpart of the parallel-sockets baseline
// that internal/psockets reproduces in simulation.
package udprt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// splitStripes divides a size-byte object into at most n contiguous
// stripes at packet boundaries, tagging stripe i with transfer id base+i.
// Packets are dealt as evenly as possible (the first size%n stripes get
// one extra), and n is clamped to the packet count so no stripe is empty.
// Stripe boundaries fall on packet boundaries purely for efficiency —
// each stripe is its own sequence space, so the receiver accepts any
// exact tiling.
func splitStripes(size int64, packetSize, n int, base uint32) []wire.StripeDesc {
	packets := core.NumPackets(size, packetSize)
	if n > packets {
		n = packets
	}
	if n < 1 {
		n = 1
	}
	q, r := packets/n, packets%n
	out := make([]wire.StripeDesc, n)
	var off uint64
	for i := range out {
		count := q
		if i < r {
			count++
		}
		length := uint64(count) * uint64(packetSize)
		if off+length > uint64(size) {
			length = uint64(size) - off
		}
		out[i] = wire.StripeDesc{Transfer: base + uint32(i), Offset: off, Length: length}
		off += length
	}
	return out
}

// senderPlan is one outbound transfer, prepared but not yet on the wire:
// per-stripe state machines and instrumentation plus the control-channel
// announcement that describes them. A one-stripe plan is exactly the
// classic single-flow transfer, its HELLO the short form without a table.
type senderPlan struct {
	base    uint32
	obj     []byte
	cfg     core.Config // stripe 0's effective (defaulted) config
	stripes []wire.StripeDesc
	snds    []*core.Sender
	// probes are the stripes' instrumentation, sharing the transfer's span
	// recorder; inert until instrument.
	probes stripes
	// trace is the id the announcement's CHECK carries; zero: untraced.
	trace obs.TraceID

	// content memoizes the whole object's content identity for the CHECK
	// (for a single stripe the stripe sender's own memo is reused,
	// so the object is hashed exactly once per plan either way).
	content    [32]byte
	hasContent bool
	// window is what the receiver's acceptance said each of the plan's flows
	// may have unread in its socket buffer, in bytes; zero when it said
	// nothing (core.Sender.SetFlow).
	window int
}

// newSenderPlan splits obj per opts.Streams and builds one core.Sender per
// stripe. cfg.Transfer is the base tag; stripe i uses base+i. The plan's
// instruments start with instrument, once the caller means to run it.
func newSenderPlan(obj []byte, cfg core.Config, opts Options) (*senderPlan, error) {
	if len(obj) == 0 {
		return nil, errEmptyObject
	}
	if opts.Streams > wire.MaxStreams {
		return nil, fmt.Errorf("udprt: %d streams exceeds the wire limit of %d", opts.Streams, wire.MaxStreams)
	}
	ps := cfg.PacketSize
	if ps <= 0 {
		ps = core.DefaultPacketSize
	}
	p := &senderPlan{
		base:    cfg.Transfer,
		obj:     obj,
		stripes: splitStripes(int64(len(obj)), ps, opts.Streams, cfg.Transfer),
	}
	for i, sd := range p.stripes {
		scfg := cfg
		scfg.Transfer = sd.Transfer
		// The flow account models the receiver's ack cadence (SetFlow), and
		// every socket receiver acks at DefaultAckFrequency (newRecvEngines),
		// whatever the sender was configured with.
		scfg.AckFrequency = core.DefaultAckFrequency
		snd := core.NewSender(obj[sd.Offset:sd.Offset+sd.Length], scfg)
		// A fresh controller per stripe, and — plans being per attempt —
		// per attempt, so no two senders share a policy's state: an unknown
		// Options.Congestion fails here, before any socket work.
		cc, err := core.NewController(opts.Congestion, ps)
		if err != nil {
			return nil, err
		}
		snd.SetController(cc)
		if opts.testController != nil {
			opts.testController(cc)
		}
		if i == 0 {
			p.cfg = snd.Config()
		}
		p.snds = append(p.snds, snd)
	}
	p.probes = make(stripes, len(p.snds))
	return p, nil
}

// instrument opens the transfer's span recorder under tid, which the
// announcement then carries, and registers every stripe with the metrics
// registry and the flight log (any of the three may be off).
func (p *senderPlan) instrument(opts Options, tid obs.TraceID) {
	p.trace = tid
	span := opts.startSpan(tid, p.base, obs.RoleSender)
	for i, snd := range p.snds {
		p.probes[i] = span.sender(opts.Metrics, opts.Record, snd, int64(p.stripes[i].Length))
	}
}

// contentID returns the whole object's content identity, memoized.
func (p *senderPlan) contentID() [32]byte {
	if len(p.snds) == 1 {
		return p.snds[0].ContentID()
	}
	if !p.hasContent {
		p.content = core.ContentID(p.obj)
		p.hasContent = true
	}
	return p.content
}

// totalPackets sums the stripes' packet counts.
func (p *senderPlan) totalPackets() int {
	total := 0
	for _, snd := range p.snds {
		total += snd.NumPackets()
	}
	return total
}

// announcement serializes the plan's announcement: the CHECK — the
// whole-object content identity, the trace id — then the HELLO, carrying
// the stripe table when there is more than one stripe.
func (p *senderPlan) announcement(opts Options) []byte {
	var flags uint8
	if !opts.NoDedup {
		flags |= wire.CheckFlagDedup
	}
	frame := wire.AppendCheck(nil, &wire.Check{
		Flags:      flags,
		Transfer:   p.base,
		ObjectSize: uint64(len(p.obj)),
		PacketSize: uint32(p.cfg.PacketSize),
		Digest:     p.contentID(),
		Trace:      p.trace,
	})
	h := wire.Hello{Transfer: p.base, ObjectSize: uint64(len(p.obj)), PacketSize: uint32(p.cfg.PacketSize)}
	if len(p.stripes) > 1 {
		h.Stripes = p.stripes
	}
	return wire.AppendHello(frame, &h)
}

// accepted records a completed exchange and reports whether the receiver
// holds the whole object: COMPLETE follows then, and no data phase happens.
// Otherwise the HAVE accepts the transfer with its receive window, and a HAVE
// of part of the object — the state the receiver retained of an earlier,
// failed transfer of this content — excuses those packets; one that does
// not fit the plan is a broken peer.
func (p *senderPlan) accepted(have wire.Have) (hit bool, err error) {
	if int(have.Received) >= p.totalPackets() {
		return true, nil
	}
	p.window = have.Window.Bytes()
	restored := 0
	if have.Received > 0 {
		if len(p.snds) > 1 {
			return false, fmt.Errorf("udprt: receiver answered a striped transfer with %d of its packets", have.Received)
		}
		if restored, err = p.snds[0].Restore(have.Words); err != nil {
			return false, fmt.Errorf("udprt: receiver's HAVE: %w", err)
		}
	}
	p.probes.event(obs.KindCheck, 0)
	p.probes.event(obs.KindHandshake, 0)
	if restored > 0 {
		p.probes[0].event(obs.KindResume, uint64(restored))
	}
	return false, nil
}

// finish stamps one outcome into every stripe's instruments and the span.
func (p *senderPlan) finish(err error) {
	for i := range p.probes {
		p.finishStripe(i, err)
	}
}

// finishStripe shows the registry stripe i's final counts, then stamps its
// outcome err into the stripe's instruments.
func (p *senderPlan) finishStripe(i int, err error) {
	p.probes[i].publish(p.snds[i])
	p.probes[i].finish(err)
}

// fail is finish for an exit that never reached the data phase: the
// instruments stamped with err, and the statistics handed back with it.
func (p *senderPlan) fail(err error) (core.SenderStats, error) {
	p.finish(err)
	return p.stats(), err
}

// stats sums the per-stripe sender statistics into the object-wide view
// the caller sees: counts add, so conservation laws (sent = needed +
// retransmitted, etc.) hold across stripes exactly as within one.
func (p *senderPlan) stats() core.SenderStats {
	var t core.SenderStats
	for _, snd := range p.snds {
		s := snd.Stats()
		t.PacketsSent += s.PacketsSent
		t.BytesSent += s.BytesSent
		t.Rounds += s.Rounds
		t.PacketsNeeded += s.PacketsNeeded
		t.AcksProcessed += s.AcksProcessed
		t.StaleAcks += s.StaleAcks
		t.KnownReceived += s.KnownReceived
		t.Stalls += s.Stalls
		t.Restored += s.Restored
		t.Retransmits += s.Retransmits
		t.RoundTrips += s.RoundTrips
		t.RTT = max(t.RTT, s.RTT) // the slowest stripe's latest
	}
	return t
}

// progressAgg folds per-stripe acknowledgement progress into one
// object-wide Options.Progress stream. The callback runs under the
// aggregate lock so reported counts are monotone.
type progressAgg struct {
	mu       sync.Mutex
	perKnown []int
	total    int
	fn       func(knownReceived, total int)
}

func (p *progressAgg) stripe(i int) func(known, total int) {
	return func(known, _ int) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.perKnown[i] = known
		sum := 0
		for _, v := range p.perKnown {
			sum += v
		}
		p.fn(sum, p.total)
	}
}

// runSenderPlan drives every stripe of the plan concurrently over its own
// data flow until the shared control connection delivers the object-wide
// verdict. One goroutine reads the single terminal frame (COMPLETE with
// the whole-object integrity echo, or ABORT) and a second fans it out to every
// engine and wakes the ones blocked on their ack sockets; the first ABORT
// any engine needs to announce wins the shared control channel; the first
// engine to fail cancels its siblings. Per-stripe instruments record each
// stripe's own outcome, while the summed stats and socket counters form
// the caller's object-wide view. The data sockets come back with no read
// deadline set, so a Session can reuse them.
func runSenderPlan(ctx context.Context, p *senderPlan, conns []*net.UDPConn, ctl net.Conn, opts Options) (core.SenderStats, error) {
	n := len(p.snds)
	completion := make(chan error, 1)
	go func() { completion <- readCompletion(ctl, p) }()
	stripeDone := make([]chan error, n)
	for i := range stripeDone {
		stripeDone[i] = make(chan error, 1)
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The waker kicks the engines out of their waits: once the verdict is
	// in every done channel, or the run context is over, an immediate read
	// deadline kicks each engine out of its ack socket. Publishing before kicking is what the engines' arm / look /
	// read order relies on.
	woken := make(chan struct{})
	go func() {
		defer close(woken)
		select {
		case err := <-completion:
			for _, ch := range stripeDone {
				ch <- err
			}
		case <-gctx.Done():
		}
		for _, c := range conns {
			c.SetReadDeadline(time.Now())
		}
	}()

	var abortOnce sync.Once
	abort := func(r wire.AbortReason) {
		abortOnce.Do(func() { writeAbort(ctl, p.base, r) })
	}
	progressFor := func(i int) func(int, int) { return nil }
	if opts.Progress != nil {
		if n == 1 {
			progressFor = func(int) func(int, int) { return opts.Progress }
		} else {
			agg := &progressAgg{perKnown: make([]int, n), fn: opts.Progress}
			for _, snd := range p.snds {
				agg.total += snd.NumPackets()
			}
			progressFor = agg.stripe
		}
	}

	p.probes.event(obs.KindRounds, 0)
	engines := make([]*senderEngine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range engines {
		p.snds[i].SetFlow(p.window, opts.idlePoll)
		engines[i] = newSenderEngine(p.snds[i], senderEndpoint{
			conn:     conns[i],
			done:     stripeDone[i],
			abort:    abort,
			progress: progressFor(i),
		}, opts, p.probes[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = engines[i].run(gctx)
			if errs[i] != nil {
				cancel() // one stripe down takes the object down
			}
		}(i)
	}
	wg.Wait()
	// No kick may land after the deadlines are cleared.
	cancel()
	<-woken
	for _, c := range conns {
		c.SetReadDeadline(time.Time{})
	}

	// Every engine has returned: the schedule is drained (or the transfer
	// is dead) and the verdict is in hand.
	p.probes.event(obs.KindDrain, 0)

	// The span's outcome is the transfer's, so it goes in ahead of the
	// stripes' own: a stripe reaped for a sibling's failure says cancelled.
	err := pickStripeErr(errs)
	p.probes[0].span().finish(err)
	var io stats.IOCounters
	for i := range engines {
		io.Add(engines[i].io)
		p.finishStripe(i, errs[i])
	}
	if opts.IOCounters != nil {
		*opts.IOCounters = io
	}
	return p.stats(), err
}

// pickStripeErr chooses the error the caller sees: the first root cause,
// not the context cancellation the orchestrator used to reap sibling
// stripes after one failed.
func pickStripeErr(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// dialDataFlows opens one UDP data socket per stripe toward addr. Each
// stripe must own its socket: the receiver routes acknowledgements to the
// source address of the stripe's data flow.
func dialDataFlows(addr string, n int, opts Options) ([]*net.UDPConn, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udprt: resolve data addr: %w", err)
	}
	conns := make([]*net.UDPConn, 0, n)
	for i := 0; i < n; i++ {
		conn, err := net.DialUDP("udp", nil, udpAddr)
		if err != nil {
			closeAll(conns)
			return nil, fmt.Errorf("udprt: dial data: %w", err)
		}
		// As large as the kernel will grant, which may be less than asked
		// for: a short send buffer only parks the flush on the netpoller,
		// and what comes back on this socket is acknowledgements.
		_ = conn.SetReadBuffer(opts.readBuffer)
		_ = conn.SetWriteBuffer(socketBuffer)
		conns = append(conns, conn)
	}
	return conns, nil
}

func closeAll(conns []*net.UDPConn) {
	for _, c := range conns {
		c.Close()
	}
}

// recvPlan is one inbound transfer as announced on the control channel: a
// single flow (the HELLO's short form, stripes nil) or the HELLO's stripe
// table.
type recvPlan struct {
	base       uint32
	objectSize uint64
	packetSize int
	stripes    []wire.StripeDesc // nil for a single flow
	// trace is the sender's trace id, from its CHECK; zero when the
	// announcement was untraced.
	trace obs.TraceID
	// The CHECK every announcement opens with: checkDigest is the object's
	// content identity, which the object is verified against and held
	// under. checkDedup permits answering from a whole entry.
	checkDigest [32]byte
	checkDedup  bool
}

func (p recvPlan) striped() bool { return p.stripes != nil }

// layout is the plan as stripes: the announced ones, or the whole object as
// the single stripe a short-form HELLO describes. The endpoint
// registers one transfer tag per entry.
func (p recvPlan) layout() []wire.StripeDesc {
	if p.striped() {
		return p.stripes
	}
	return []wire.StripeDesc{{Transfer: p.base, Length: p.objectSize}}
}

// startSealer begins leaf-by-leaf verification of an inbound transfer: one
// sealer over the whole object, fed by every engine (given in stripe order)
// and seeded with what a restored engine already holds — re-hashed, so
// retained bytes that rotted fail verification. The receive lifecycle
// starts its sealer here, defers abandon so that no exit leaves the worker
// behind, and sums it in verifyContent.
func (p recvPlan) startSealer(obj []byte, engines ...*receiverEngine) *sealer {
	stripes := p.layout()
	s := newSealer(obj, p.packetSize, stripes)
	for i, e := range engines {
		e.seal, e.off = s, int(stripes[i].Offset)
		if e.rcv.Stats().Restored > 0 {
			s.restore(e.off, int(stripes[i].Length), p.packetSize, e.rcv.HaveWords(nil))
		}
	}
	return s
}

// verifyContent checks the assembled object against the content identity
// its CHECK announced, summed from the leaves the sealer hashed as they
// completed — so a retained buffer that rotted across a restart fails here,
// not at the application, and one flipped byte in any stripe fails the
// whole object. A mismatch is corruption (or a sender announcing one object
// and blasting another); either way the bytes must not be delivered, cached
// or retained.
func (p recvPlan) verifyContent(seal *sealer) error {
	if seal.sum() != p.checkDigest {
		return fmt.Errorf("udprt: assembled object does not match announced content digest: %w", ErrDigestMismatch)
	}
	return nil
}

// newRecvEngines builds one receiver engine per stripe of the plan, each
// assembling in place into its own slice of obj — the one pre-allocated
// object, or the retained buffer of a restored transfer — so completion needs
// no reassembly copy. The lifecycle attaches their probes once the transfer
// is certain to start.
func newRecvEngines(plan recvPlan, obj []byte) []*receiverEngine {
	layout := plan.layout()
	engines := make([]*receiverEngine, len(layout))
	for i, sd := range layout {
		engines[i] = newReceiverEngine(core.NewReceiverInto(obj[sd.Offset:sd.Offset+sd.Length], core.Config{
			PacketSize: plan.packetSize,
			Transfer:   sd.Transfer,
			// The receiver's ack frequency is its own policy; the sender
			// adapts to whatever cadence arrives.
			AckFrequency: core.DefaultAckFrequency,
		}))
	}
	return engines
}

// sumRecvStats is the receive-side counterpart of senderPlan.stats.
func sumRecvStats(engines []*receiverEngine) core.ReceiverStats {
	var t core.ReceiverStats
	for _, e := range engines {
		s := e.rcv.Stats()
		t.Received += s.Received
		t.BytesReceived += s.BytesReceived
		t.Restored += s.Restored
		t.PacketsNeeded += s.PacketsNeeded
		t.Duplicates += s.Duplicates
		t.AcksBuilt += s.AcksBuilt
		t.Rejected += s.Rejected
		t.IdleTimeouts += s.IdleTimeouts
	}
	return t
}

// completeDeduped answers a dedup-hitting CHECK: the full HAVE bitmap (the
// verdict) followed immediately by the COMPLETE carrying the tag of the
// identity the bytes are held under — no data flow, no registration, no
// pass over the object — so N senders pushing the same hot object fan out of
// the store concurrently, never competing for the transfer-id space. The
// returned object is the whole entry's copy, so Serve's completion
// handler sees the same bytes a real transfer would have assembled.
func (l *Listener) completeDeduped(plan recvPlan, ctl net.Conn, obj []byte) ([]byte, core.ReceiverStats, error) {
	opts := l.opts
	total := core.NumPackets(int64(plan.objectSize), plan.packetSize)
	// A hit moves no packet, so it has no flight recording.
	pr := opts.startSpan(plan.trace, plan.base, obs.RoleReceiver).
		receiver(opts.Metrics, nil, plan.base, total, int64(plan.objectSize), plan.packetSize)
	pr.event(obs.KindCheck, 1)
	st := core.ReceiverStats{
		Received:      total,
		Restored:      total,
		PacketsNeeded: total,
	}
	msg := wire.AppendHave(nil, &wire.Have{Transfer: plan.base, Received: uint32(total), Words: fullWords(total),
		Window: l.window(len(plan.layout()))})
	err := writeControl(ctl, append(msg, completeFrame(plan)...))
	if err == nil {
		pr.event(obs.KindSkip, uint64(total))
	} else {
		err = fmt.Errorf("udprt: completion write: %w", err)
	}
	pr.finish(err)
	if err != nil {
		return nil, st, err
	}
	st.Deduped = true
	return obj, st, nil
}
