// Package simrun binds the IO-free FOBS state machines of internal/core to
// the netsim substrate: one FOBS transfer becomes one deterministic
// discrete-event simulation.
//
// The driver reproduces the paper's process structure faithfully:
//
//   - the sender runs core's one sender loop (core.Sender.Step), as the
//     sockets do: each look takes at most one acknowledgement (the paper's
//     non-blocking poll) and sends one round (the step's vector is one ask
//     long). The driver models a blocking send by the NIC- and CPU-free
//     instant the next look waits for; the pacing gap is core's clock, whose
//     instant the driver only waits for, as it waits for news (an
//     acknowledgement or IdlePoll) when the step says so;
//   - the receiver handles data packets as the host CPU serves them,
//     occupies the CPU while building each acknowledgement (the stall the
//     paper identifies as the loss mechanism at high ack rates), and
//     signals completion over a reliable control channel standing in for
//     the paper's TCP connection.
package simrun

import (
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/event"
	"github.com/hpcnet/fobs/internal/netsim"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/trace"
	"github.com/hpcnet/fobs/internal/wire"
)

// Default ports used by a FOBS transfer on both hosts; concurrent
// transfers on one path offset them via Options.PortBase.
const (
	PortData = 7001 // receiver listens: data packets
	PortAck  = 7002 // sender listens: acknowledgement packets
	PortCtl  = 7003 // both: reliable control channel (hello/complete)
)

// Options tune the driver (not the protocol).
type Options struct {
	// AckBuildTime occupies the receiver's CPU for each acknowledgement
	// built, modelling the cost the paper blames for stall losses
	// (default 150 µs — constructing and pushing a 1 KB datagram through
	// a 2002 kernel).
	AckBuildTime time.Duration
	// IdlePoll is how long the sender waits for news when the step says so,
	// unless an acknowledgement arrives first (default 500 µs); a scenario
	// that installs a flow passes SetFlow the same figure.
	IdlePoll time.Duration
	// CtlRTO is the control channel's retransmission timeout
	// (default 250 ms).
	CtlRTO time.Duration
	// Limit aborts the run at this virtual time (default 10 min).
	Limit time.Duration
	// SampleEvery enables tracing: the delivery and send rates are
	// sampled at this period (zero disables tracing).
	SampleEvery time.Duration
	// PortBase offsets the three well-known ports so several FOBS
	// transfers can share one path (zero uses the defaults).
	PortBase int
	// SchedNoise adds a uniformly distributed [0, SchedNoise) delay to
	// each sender-loop iteration, modelling operating-system scheduling
	// jitter on a user-level protocol. Zero keeps the loop perfectly
	// periodic — fine against stochastic networks, but a deterministic
	// rate limiter (a QoS policer) can phase-lock with a perfectly
	// periodic sender and starve the same packet slots forever.
	SchedNoise time.Duration
}

func (o Options) withDefaults() Options {
	if o.AckBuildTime == 0 {
		o.AckBuildTime = 150 * time.Microsecond
	}
	if o.IdlePoll == 0 {
		o.IdlePoll = 500 * time.Microsecond
	}
	if o.CtlRTO == 0 {
		o.CtlRTO = 250 * time.Millisecond
	}
	if o.Limit == 0 {
		o.Limit = 10 * time.Minute
	}
	return o
}

// FOBSRun holds one in-flight or finished simulated FOBS transfer.
type FOBSRun struct {
	path *netsim.Path
	opts Options
	snd  *core.Sender
	rcv  *core.Receiver

	sndSock *netsim.UDPSocket
	rcvSock *netsim.UDPSocket
	ctlSnd  *netsim.PipeEnd
	ctlRcv  *netsim.PipeEnd

	dataAddr, ackAddr netsim.Addr

	ackQ     []wire.Ack
	started  event.Time
	finished event.Time
	done     bool

	// nic is the sender's core.Vector, look the timer of its next look, and
	// newsWait says the look waits for news: an arriving ack brings it on.
	nic      nic
	look     *event.Timer
	newsWait bool

	goodput  *trace.Rate
	sendRate *trace.Rate
}

// NewFOBS wires a FOBS transfer of objSize bytes from path.A to path.B.
// Call Start (or just Run) to execute it.
func NewFOBS(p *netsim.Path, obj []byte, cfg core.Config, opts Options) *FOBSRun {
	opts = opts.withDefaults()
	r := &FOBSRun{
		path: p,
		opts: opts,
		snd:  core.NewSender(obj, cfg),
		rcv:  core.NewReceiver(int64(len(obj)), cfg),
	}
	base := opts.PortBase
	if base == 0 {
		base = PortData
	}
	r.dataAddr = p.B.Addr(base)
	r.ackAddr = p.A.Addr(base + 1)
	r.rcvSock = p.B.OpenUDP(base, r.onData)
	r.sndSock = p.A.OpenUDP(base+1, r.onAck)
	r.ctlSnd, r.ctlRcv = netsim.NewPipe(p.A, base+2, p.B, base+2, opts.CtlRTO)
	r.nic.r = r
	r.look = event.NewTimer(p.Net.Sim, r.senderLoop)
	r.ctlSnd.OnMessage = func(m any) {
		if _, ok := m.(wire.Complete); ok {
			r.complete()
		}
	}
	if opts.SampleEvery > 0 {
		r.goodput = trace.NewRate("goodput", "Mb/s", 8e-6)
		r.sendRate = trace.NewRate("send_rate", "Mb/s", 8e-6)
	}
	return r
}

// Trace returns the delivery- and send-rate series collected when
// Options.SampleEvery was set, or nils otherwise.
func (r *FOBSRun) Trace() (goodput, sendRate *trace.Series) {
	if r.goodput == nil {
		return nil, nil
	}
	return r.goodput.Series(), r.sendRate.Series()
}

// sampleLoop records one trace observation and re-arms itself.
func (r *FOBSRun) sampleLoop() {
	if r.done {
		return
	}
	at := time.Duration(r.path.Net.Now() - r.started)
	ps := float64(r.rcv.Config().PacketSize)
	r.goodput.Observe(at, float64(r.rcv.Stats().Received)*ps)
	r.sendRate.Observe(at, float64(r.snd.Stats().PacketsSent)*ps)
	r.path.Net.Sim.After(r.opts.SampleEvery, r.sampleLoop)
}

// Start schedules the transfer to begin now.
func (r *FOBSRun) Start() {
	r.started = r.path.Net.Now()
	if r.goodput != nil {
		r.sampleLoop()
	}
	r.look.Reset(0)
}

// Run starts the transfer and drives the simulation until it completes or
// the option limit expires, returning the result.
func (r *FOBSRun) Run() stats.TransferResult {
	r.Start()
	deadline := r.started.Add(r.opts.Limit)
	sim := r.path.Net.Sim
	for !r.done && sim.Now() < deadline && sim.Pending() > 0 {
		sim.RunUntil(deadline)
	}
	return r.Result()
}

// Done reports whether the transfer has completed.
func (r *FOBSRun) Done() bool { return r.done }

// Receiver exposes the receive-side state machine (e.g. for object
// retrieval).
func (r *FOBSRun) Receiver() *core.Receiver { return r.rcv }

// Sender exposes the send-side state machine.
func (r *FOBSRun) Sender() *core.Sender { return r.snd }

// Result summarizes the run.
func (r *FOBSRun) Result() stats.TransferResult {
	end := r.finished
	if !r.done {
		end = r.path.Net.Now()
	}
	sst := r.snd.Stats()
	rst := r.rcv.Stats()
	res := stats.TransferResult{
		Protocol:      "fobs",
		Bytes:         r.snd.ObjectSize(),
		Elapsed:       end.Sub(r.started),
		Completed:     r.done,
		PacketsSent:   sst.PacketsSent,
		PacketsNeeded: sst.PacketsNeeded,
		Duplicates:    rst.Duplicates,
	}
	res = res.WithExtra("acks", float64(rst.AcksBuilt))
	res.Extra["stale_acks"] = float64(sst.StaleAcks)
	// Loss-cause attribution (the diagnostics the authors pursued in
	// follow-up work): where along the path did packets die?
	var queue, random, outage uint64
	for _, l := range r.path.Forward {
		st := l.Stats()
		queue += st.QueueDrops
		random += st.RandomDrops
		outage += st.OutageDrops
	}
	res.Extra["drops_queue"] = float64(queue)
	res.Extra["drops_random"] = float64(random)
	res.Extra["drops_outage"] = float64(outage)
	res.Extra["drops_rxbuf"] = float64(r.path.B.Stats().RXDropsFull)
	res.Extra["waits_out"] = float64(sst.WaitsOut)
	res.Extra["written_off"] = float64(sst.WrittenOff)
	return res
}

func (r *FOBSRun) complete() {
	if r.done {
		return
	}
	r.done = true
	r.finished = r.path.Net.Now()
	r.snd.SetComplete()
}

// nic is the simulated sender's core.Vector: each packet goes to the NIC as
// it is put, and a look is as long as the batch policy's ask, so that it
// sends one round.
type nic struct {
	r    *FOBSRun
	free event.Time // when the NIC has drained the last packet put
}

func (v *nic) Len() int                 { return v.r.snd.BatchSize() }
func (v *nic) Round(int, time.Duration) {}
func (v *nic) Flush(k int) (int, bool)  { return k, true }

func (v *nic) Put(_ int, pkt wire.Data, _ int) {
	size := wire.DataHeaderLen + len(pkt.Payload) + wire.UDPIPOverhead
	v.free = v.r.sndSock.SendTo(v.r.dataAddr, size, pkt).NICFreeAt
}

// senderLoop is one look of the paper's three-phase sender algorithm.
func (r *FOBSRun) senderLoop() {
	r.newsWait = false
	if r.done || r.snd.Done() {
		return
	}
	// Phase 2 first on re-entry: process at most one pending ack, exactly
	// like the paper's look-but-don't-block poll.
	if len(r.ackQ) > 0 {
		a := r.ackQ[0]
		r.ackQ = r.ackQ[1:]
		// A corrupted fragment cannot occur in the simulator; errors
		// here would indicate a driver bug, so surface them loudly.
		if err := r.snd.HandleAck(a); err != nil {
			panic("simrun: " + err.Error())
		}
	}
	// Phases 1 and 3: the step plans the round and sends it to the NIC.
	now := r.path.Net.Now()
	wait, at := r.snd.Step(now.Sub(r.started), &r.nic)
	if wait == core.News {
		// The next queued ack, or the one that stops the timer by
		// arriving, or IdlePoll of silence.
		if len(r.ackQ) > 0 {
			r.look.Reset(0)
		} else {
			r.newsWait = true
			r.look.Reset(r.opts.IdlePoll)
		}
		return
	}
	// Like a blocking send: resume when the NIC has drained AND the host CPU
	// has finished the send-side work (a send system call blocks the
	// process), and not before the pacing instant.
	next := max(r.nic.free, r.path.A.CPUFreeAt(), now)
	if wait == core.Pace {
		next = max(next, r.started.Add(at))
	}
	delay := next.Sub(now)
	if r.opts.SchedNoise > 0 {
		delay += time.Duration(r.path.Net.Rand().Int63n(int64(r.opts.SchedNoise)))
	}
	if delay <= 0 {
		// A drop at the NIC itself (policer, full queue) leaves the link
		// idle; without a floor the loop would re-fire at this same
		// virtual instant forever.
		delay = time.Microsecond
	}
	r.look.Reset(delay)
}

// onAck queues an acknowledgement for the sender's next poll and wakes an
// idle or waiting sender.
func (r *FOBSRun) onAck(p *netsim.Packet) {
	a, ok := p.Payload.(wire.Ack)
	if !ok {
		return
	}
	r.ackQ = append(r.ackQ, a)
	if r.newsWait {
		r.newsWait = false
		r.look.Reset(0)
	}
}

// onData handles one data packet at the receiver and emits acknowledgements
// at the configured frequency.
func (r *FOBSRun) onData(p *netsim.Packet) {
	d, ok := p.Payload.(wire.Data)
	if !ok {
		return
	}
	ackDue, err := r.rcv.HandleData(d)
	if err != nil {
		return // malformed packet: drop, exactly as the real receiver would
	}
	if !ackDue {
		return
	}
	// Building and sending the ack occupies the receiver CPU; packets
	// arriving meanwhile queue in the finite RX buffer (or are lost).
	r.path.B.Occupy(r.opts.AckBuildTime)
	a := r.rcv.BuildAck()
	// The simulated network holds the ack in flight while the receiver
	// keeps building acks, so the fragment must not alias BuildAck's
	// reusable buffer (a real driver serializes it to the wire instead).
	a.Frag.Words = append([]uint64(nil), a.Frag.Words...)
	size := wire.AckHeaderLen + 8*len(a.Frag.Words) + wire.UDPIPOverhead
	r.rcvSock.SendTo(r.ackAddr, size, a)
	if r.rcv.Complete() {
		r.ctlRcv.Send(wire.Complete{Transfer: r.rcv.Config().Transfer,
			Received: uint64(r.rcv.NumPackets())}, wire.CompleteLen)
	}
}
