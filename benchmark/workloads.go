package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/hpcnet/fobs/benchmark/linkemu"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/tasks"
	"github.com/hpcnet/fobs/internal/udprt"
)

// opTimeout bounds one operation; an operation that exceeds it has failed.
const opTimeout = 30 * time.Second

// receiverKind names which of the runtime's receive lifecycles a workload
// drives.
type receiverKind int

const (
	viaListener receiverKind = iota // udprt.Listener, one Accept per object
	viaServer                       // udprt.Server, Serve handler
	viaDaemon                       // tasks.Daemon pushing into a udprt.Server
)

// workload is one set of inputs the benchmark runs. Everything not named
// here is the program's zero-value default, so the default
// CHECK/dedup/SHA-256 path is what gets measured.
type workload struct {
	name, why string
	objSize   int
	packet    int
	send      udprt.Options // sender-side options the workload departs from zero in
	listen    udprt.Options // receiver-side options; zero in all six workloads
	recv      receiverKind
	emu       *linkemu.Config // non-nil: the receiver sits behind this path
	// warmOps is how many discarded operations end set-up: a fixed count,
	// not a fixed time, so that set-up time measures work.
	warmOps int
}

// The ANL↔LCSE path of the paper: 100 Mb/s, 26 ms round trip.
var wanPath = linkemu.Config{
	Delay:   13 * time.Millisecond,
	RateBps: 100e6,
	Queue:   20 * time.Millisecond,
	Loss:    0.005,
}

var workloads = []workload{
	{
		name: "bulk_1k", objSize: 16 << 20, packet: 1024, recv: viaListener, warmOps: 3,
		why: "16 MiB at 1 KiB packets: ~16k packets per object, so wire/bitmap/core/batchio and the engine loops are the cost",
	},
	{
		name: "bulk_32k", objSize: 32 << 20, packet: 32768, recv: viaListener, warmOps: 3,
		why: "32 MiB at 32 KiB packets: 32x fewer packets per byte, so copies and SHA-256 dominate and per-packet work must not show",
	},
	{
		name: "striped_8k", objSize: 32 << 20, packet: 8192, recv: viaListener, warmOps: 3,
		send: udprt.Options{Streams: 4},
		why:  "32 MiB over 4 stripes: HELLOX, per-stripe sockets/engines and reassembly, four greedy flows contending on two cores",
	},
	{
		name: "small_objects", objSize: 64 << 10, packet: 1024, recv: viaServer, warmOps: 100,
		why: "64 KiB per fresh Send into a Server: dial, handshake, socket set-up/teardown and cache churn are nearly all the time",
	},
	{
		name: "wan_lossy", objSize: 2 << 20, packet: 1024, recv: viaListener, warmOps: 2,
		send: udprt.Options{Congestion: udprt.CCSABUL}, emu: &wanPath,
		why: "2 MiB over an emulated 100 Mb/s, 26 ms RTT, 0.5% loss path: time is serialisation, RTTs and loss recovery, not CPU",
	},
	{
		name: "fobsd_tasks", objSize: 1 << 20, packet: 1024, recv: viaDaemon, warmOps: 16,
		why: "fobsd daemon, 2 workers, 4 tasks outstanding, every 4th a repeat: the tasks layer plus dedup hits that read the content cache",
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// opResult is what one operation reports to the measurement loop.
type opResult struct {
	dur    time.Duration
	err    error // nil: delivered, verified byte-for-byte
	bytes  int64 // verified object bytes
	repeat bool  // a dedup repeat: must move no DATA packet
	// Counts from the program's public SenderStats/ReceiverStats.
	sent, needed, retransmits, stalls int
	arrived, duplicates, idle         int // datagrams the receiver engine saw
	submit                            time.Duration
	task                              *tasks.Task
}

// instance is one set-up workload: receiver, optional emulator or daemon,
// and the object pool.
type instance interface {
	// run drives the workload's closed loop, emitting each finished
	// operation, until stop reports true; operations in flight are
	// finished first. tr is nil outside the traced pass.
	run(stop func() bool, tr *tracer, emit func(opResult))
	// counters returns the socket counters accumulated since set-up
	// (traced instances only; zero otherwise).
	counters() (snd, rcv stats.IOCounters)
	listenTime() time.Duration
	close()
}

// newObject returns the workload's base object: seeded random bytes whose
// first eight bytes are overwritten per operation.
func newObject(seed int64, size int) []byte {
	obj := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(obj)
	return obj
}

// stamp makes the object's content unique to operation n without touching
// the rest of the buffer: a distinct content id at no generation cost.
func stamp(obj []byte, n uint64) { binary.BigEndian.PutUint64(obj, n+1) }

// matches reports whether got is base carrying stamp n.
func matches(got, base []byte, n uint64) bool {
	return len(got) == len(base) && binary.BigEndian.Uint64(got) == n+1 &&
		bytes.Equal(got[8:], base[8:])
}

// delivery is one object handed to a Server's handler.
type delivery struct {
	obj []byte
	st  core.ReceiverStats
}

// receiver owns the receive side shared by every workload: a Listener, or
// a Server with its Serve loop, optionally fronted by the emulator.
type receiver struct {
	lis    *udprt.Listener
	srv    *udprt.Server
	emu    *linkemu.Link
	addr   string // what senders dial
	listen time.Duration
	rio    *stats.IOCounters // Listener socket counters, traced only

	stopServe context.CancelFunc
	served    chan struct{}
	mu        sync.Mutex
	delivered map[uint32]delivery
	arrival   chan struct{} // one token per burst of deliveries, for take
}

func newReceiver(w *workload, seed int64, traced bool) (*receiver, error) {
	r := &receiver{}
	opts := w.listen
	if traced {
		r.rio = new(stats.IOCounters)
		opts.IOCounters = r.rio
	}
	t0 := time.Now()
	var err error
	if w.recv == viaListener {
		r.lis, err = udprt.Listen("127.0.0.1:0", opts)
		if err == nil {
			r.addr = r.lis.Addr()
		}
	} else {
		r.srv, err = udprt.NewServer("127.0.0.1:0", opts)
		if err == nil {
			r.addr = r.srv.Addr()
		}
	}
	r.listen = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if r.srv != nil {
		r.delivered = make(map[uint32]delivery)
		r.arrival = make(chan struct{}, 1)
		r.served = make(chan struct{})
		var ctx context.Context
		ctx, r.stopServe = context.WithCancel(context.Background())
		go func() {
			defer close(r.served)
			r.srv.Serve(ctx, func(transfer uint32, obj []byte, st core.ReceiverStats) {
				r.mu.Lock()
				r.delivered[transfer] = delivery{obj, st}
				r.mu.Unlock()
				select {
				case r.arrival <- struct{}{}:
				default:
				}
			})
		}()
	}
	if w.emu != nil {
		cfg := *w.emu
		cfg.Seed = seed
		if r.emu, err = linkemu.New(r.addr, cfg); err != nil {
			r.close()
			return nil, err
		}
		r.addr = r.emu.Addr()
	}
	return r, nil
}

// poll removes and returns the Server's delivery for a transfer id, if the
// handler has run. It runs just after COMPLETE is written, so a sender can
// see success first.
func (r *receiver) poll(transfer uint32) (delivery, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.delivered[transfer]
	delete(r.delivered, transfer)
	return d, ok
}

// take waits up to ctx for the delivery for a transfer id.
func (r *receiver) take(ctx context.Context, transfer uint32) (delivery, bool) {
	for {
		if d, ok := r.poll(transfer); ok {
			return d, true
		}
		select {
		case <-ctx.Done():
			return delivery{}, false
		case <-r.arrival:
		}
	}
}

func (r *receiver) close() {
	if r.emu != nil {
		r.emu.Close()
	}
	if r.lis != nil {
		r.lis.Close()
	}
	if r.srv != nil {
		r.stopServe()
		r.srv.Close()
		<-r.served
	}
}

// pusher is the instance behind every workload whose client calls
// udprt.Send itself: one client goroutine, one object at a time.
type pusher struct {
	w    *workload
	r    *receiver
	base []byte
	next uint64
	sio  stats.IOCounters // summed sender counters, traced only
	rio  stats.IOCounters
}

func (p *pusher) listenTime() time.Duration { return p.r.listen }
func (p *pusher) close()                    { p.r.close() }
func (p *pusher) counters() (stats.IOCounters, stats.IOCounters) {
	return p.sio, p.rio
}

func (p *pusher) run(stop func() bool, tr *tracer, emit func(opResult)) {
	for !stop() {
		emit(p.op(tr))
	}
}

// op pushes one freshly stamped object and checks what the receive side
// delivered, byte for byte.
func (p *pusher) op(tr *tracer) opResult {
	n := p.next
	p.next++
	root := tr.start(n, -1, "op")
	defer tr.end(root)
	s := tr.start(n, root, "stamp")
	stamp(p.base, n)
	tr.end(s)

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	// Striped transfers consume one tag per stripe, so ids step by the
	// wire's stripe limit; every operation gets tags no earlier one used.
	cfg := core.Config{PacketSize: p.w.packet, Transfer: uint32(n)*16 + 1}
	opts := p.w.send
	var sio stats.IOCounters
	if p.r.rio != nil {
		opts.IOCounters = &sio
	}

	type accepted struct {
		d   delivery
		err error
	}
	got := make(chan accepted, 1)
	t0 := time.Now()
	go func() {
		a := tr.start(n, root, "accept")
		var acc accepted
		if p.r.lis != nil {
			acc.d.obj, acc.d.st, acc.err = p.r.lis.Accept(ctx)
		} else if d, ok := p.r.take(ctx, cfg.Transfer); ok {
			acc.d = d
		} else {
			acc.err = errors.New("server never delivered the object")
		}
		tr.end(a) // before the hand-off: the span must be closed when op returns
		got <- acc
	}()
	sp := tr.start(n, root, "send")
	sst, err := udprt.Send(ctx, p.r.addr, p.base, cfg, opts)
	tr.end(sp)
	if err != nil {
		cancel() // release the accept side
	}
	a := <-got
	v := tr.start(n, root, "verify")
	equal := a.err == nil && matches(a.d.obj, p.base, n)
	tr.end(v)
	res := opResult{
		dur:  time.Since(t0),
		sent: sst.PacketsSent, needed: sst.PacketsNeeded,
		retransmits: sst.Retransmits, stalls: sst.Stalls,
		arrived:    a.d.st.Received - a.d.st.Restored + a.d.st.Duplicates + a.d.st.Rejected,
		duplicates: a.d.st.Duplicates, idle: a.d.st.IdleTimeouts,
	}
	switch {
	case err != nil:
		res.err = fmt.Errorf("send: %w", err)
	case a.err != nil:
		res.err = fmt.Errorf("receive: %w", a.err)
	case !equal:
		res.err = errors.New("delivered bytes differ from the object sent")
	case sst.Deduped || a.d.st.Deduped:
		res.err = errors.New("a never-before-sent object was answered from the content cache")
	default:
		res.bytes = int64(len(p.base))
	}
	if p.r.rio != nil {
		p.sio.Add(sio)
		p.rio.Add(*p.r.rio)
		*p.r.rio = stats.IOCounters{}
	}
	return res
}

// Shape of the fobsd_tasks closed loop.
const (
	tasksOutstanding = 4
	tasksWorkers     = 2
	repeatEvery      = 4 // every 4th task re-submits...
	repeatBack       = 2 // ...the path submitted two tasks earlier
	fileSlots        = 8 // paths rewritten round-robin, never while a task may still read one
	getPoll          = 200 * time.Microsecond
)

// tasker is the fobsd_tasks instance: a tasks.Daemon pushing files to a
// Server, driven by one client goroutine that keeps four tasks outstanding
// and polls Get for their verdicts.
type tasker struct {
	r        *receiver
	base     []byte
	dir      string
	d        *tasks.Daemon
	stopRun  context.CancelFunc
	ran      chan struct{}
	next     uint64 // tasks submitted so far
	fresh    uint64 // distinct objects written so far
	history  [repeatBack + 1]submitted
	inFlight map[uint64]bool // task index → still outstanding
}

// submitted remembers what a task carried, for the repeat that follows it.
type submitted struct {
	path  string
	stamp uint64
}

func (t *tasker) listenTime() time.Duration { return t.r.listen }
func (t *tasker) counters() (stats.IOCounters, stats.IOCounters) {
	return stats.IOCounters{}, stats.IOCounters{}
}

func (t *tasker) close() {
	t.stopRun()
	<-t.ran
	t.r.close()
	os.RemoveAll(t.dir)
}

// pending is one submitted task awaiting its verdict.
type pending struct {
	index    uint64
	what     submitted
	repeat   bool
	start    time.Time
	submit   time.Duration
	observed time.Time
	task     tasks.Task
	root     int
}

func (t *tasker) run(stop func() bool, tr *tracer, emit func(opResult)) {
	var out []*pending
	for {
		for len(out) < tasksOutstanding && !stop() {
			p, err := t.submit(tr)
			if err == errHeld {
				break
			}
			if err != nil {
				emit(opResult{err: err})
				continue
			}
			out = append(out, p)
		}
		if len(out) == 0 {
			return
		}
		time.Sleep(getPoll)
		kept := out[:0]
		for _, p := range out {
			if res, done := t.observe(p, tr); done {
				delete(t.inFlight, p.index)
				emit(res)
			} else {
				kept = append(kept, p)
			}
		}
		out = kept
	}
}

var errHeld = errors.New("repeat held until its original finishes")

// submit files the next task. A repeat is held back (errHeld) while the
// task it repeats is still outstanding: only a finished transfer is in the
// receiver's content cache, and the workload is defined on repeats that
// hit.
func (t *tasker) submit(tr *tracer) (*pending, error) {
	k := t.next
	repeat := k%repeatEvery == repeatEvery-1
	var what submitted
	if repeat {
		if t.inFlight[k-repeatBack] {
			return nil, errHeld
		}
		what = t.history[(k-repeatBack)%uint64(len(t.history))]
	}
	t.next++
	root := tr.start(k, -1, "op")
	if !repeat {
		s := tr.start(k, root, "stamp")
		what = submitted{
			path:  filepath.Join(t.dir, fmt.Sprintf("obj-%d", t.fresh%fileSlots)),
			stamp: t.fresh,
		}
		t.fresh++
		stamp(t.base, what.stamp)
		err := os.WriteFile(what.path, t.base, 0o644)
		tr.end(s)
		if err != nil {
			tr.end(root)
			return nil, fmt.Errorf("write object file: %w", err)
		}
	}
	t.history[k%uint64(len(t.history))] = what
	tenant := "even"
	if k%2 == 1 {
		tenant = "odd"
	}
	p := &pending{index: k, what: what, repeat: repeat, root: root, start: time.Now()}
	sp := tr.start(k, root, "submit")
	task, err := t.d.Submit(tasks.Spec{Tenant: tenant, Addr: t.r.addr, Path: what.path})
	tr.end(sp)
	p.submit = time.Since(p.start)
	if err != nil {
		tr.end(root)
		return nil, fmt.Errorf("submit: %w", err)
	}
	p.task = task
	t.inFlight[k] = true
	return p, nil
}

// observe polls one task; once it is terminal (and, when done, the Server's
// handler has run) it verifies the delivery and builds the result.
func (t *tasker) observe(p *pending, tr *tracer) (opResult, bool) {
	if p.observed.IsZero() {
		task, _ := t.d.Get(p.task.ID)
		if !task.State.Terminal() {
			if time.Since(p.start) < opTimeout {
				return opResult{}, false
			}
			t.d.Cancel(p.task.ID)
			tr.end(p.root)
			return opResult{dur: opTimeout, repeat: p.repeat, err: errors.New("task timed out")}, true
		}
		p.task, p.observed = task, time.Now()
	}
	res := opResult{dur: p.observed.Sub(p.start), repeat: p.repeat, submit: p.submit, task: &p.task}
	if st := p.task.Stats; st != nil {
		res.sent, res.needed, res.retransmits = st.PacketsSent, st.PacketsNeeded, st.Retransmits
	}
	if p.task.State != tasks.StateDone {
		tr.end(p.root)
		res.err = fmt.Errorf("task ended %s: %s", p.task.State, p.task.Error)
		return res, true
	}
	d, ok := t.r.poll(p.task.Transfer)
	if !ok {
		if time.Since(p.start) < opTimeout {
			return opResult{}, false // the handler runs just after COMPLETE
		}
		tr.end(p.root)
		res.err = errors.New("server never delivered the object")
		return res, true
	}
	t.taskSpans(p, tr)
	res.arrived = d.st.Received - d.st.Restored + d.st.Duplicates + d.st.Rejected
	res.duplicates, res.idle = d.st.Duplicates, d.st.IdleTimeouts
	deduped := p.task.Stats != nil && p.task.Stats.Deduped
	switch {
	case !matches(d.obj, t.base, p.what.stamp):
		res.err = errors.New("delivered bytes differ from the file submitted")
	case p.repeat && (!deduped || res.sent != 0):
		res.err = fmt.Errorf("repeat was not a dedup hit (deduped=%v, %d DATA packets sent)", deduped, res.sent)
	case !p.repeat && deduped:
		res.err = errors.New("a never-before-sent object was answered from the content cache")
	default:
		res.bytes = int64(len(t.base))
	}
	return res, true
}

// taskSpans rebuilds the daemon-side spans of one finished task from its
// durable event timeline and closes the operation's root span.
func (t *tasker) taskSpans(p *pending, tr *tracer) {
	if tr == nil {
		return
	}
	var queued, dispatched, done time.Time
	for _, e := range p.task.Events {
		switch e.Event {
		case "queued":
			queued = e.At
		case "dispatched":
			dispatched = e.At
		case "done":
			done = e.At
		}
	}
	tr.add(p.index, p.root, "queued", queued, dispatched)
	tr.add(p.index, p.root, "running", dispatched, done)
	tr.add(p.index, p.root, "observe", done, p.observed)
	tr.mu.Lock()
	tr.spans[p.root].End = p.observed.Sub(tr.epoch).Nanoseconds()
	tr.mu.Unlock()
}

// setUp builds one instance of a workload: object pool, receiver, emulator
// or daemon. traced turns on the program's public socket counters.
func (w *workload) setUp(seed int64, traced bool) (instance, error) {
	r, err := newReceiver(w, seed, traced)
	if err != nil {
		return nil, err
	}
	base := newObject(seed, w.objSize)
	if w.recv != viaDaemon {
		return &pusher{w: w, r: r, base: base}, nil
	}
	dir, err := os.MkdirTemp("", "fobs-bench-tasks-")
	if err != nil {
		r.close()
		return nil, err
	}
	d, err := tasks.New(tasks.Config{Dir: filepath.Join(dir, "state"), Workers: tasksWorkers})
	if err != nil {
		r.close()
		os.RemoveAll(dir)
		return nil, err
	}
	t := &tasker{r: r, base: base, dir: dir, d: d, ran: make(chan struct{}), inFlight: make(map[uint64]bool)}
	var ctx context.Context
	ctx, t.stopRun = context.WithCancel(context.Background())
	go func() {
		defer close(t.ran)
		d.Run(ctx)
	}()
	return t, nil
}
