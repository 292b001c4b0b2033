// Package udprt is the real-network FOBS runtime: the same IO-free state
// machines of internal/core driven over genuine UDP sockets, with the
// completion signal on a TCP control connection — the paper's deployment
// shape, runnable on loopback, LAN or WAN.
//
// Channel layout (paper §3): the sender pushes DATA datagrams to the
// receiver's UDP port; the receiver pushes ACK datagrams back to the source
// address of the data flow; one TCP connection carries the control
// handshake (the announcement, CHECK then HELLO, sender→receiver in one
// write, and the receiver's one answer, HAVE, back) and the terminal signal
// (COMPLETE receiver→sender, or ABORT from either side).
//
// Failure model (beyond the paper, which assumes both endpoints stay alive
// for the whole transfer): the sender transmits no data until the receiver
// accepts the announcement; a stall watchdog aborts the sender when no
// acknowledgement arrives for Options.StallTimeout; an idle watchdog
// aborts the receiver when no data arrives for Options.IdleTimeout; and
// either side announces termination with an ABORT control frame carrying a
// reason code instead of silently dropping the connection.
package udprt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcnet/fobs/internal/batchio"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// Options tune the real-network drivers.
type Options struct {
	// Pace inserts a fixed per-packet delay on top of whatever gap the
	// Congestion policy dictates, useful to keep loopback transfers from
	// overrunning the receiving process (default 0): each stripe's sender adds
	// it to every round's gap (core.Sender.SetPace). Gaps are charged to the
	// sender's pacing clock, which waits only once it is a millisecond ahead
	// and repays what a wait oversleeps: the wire carries one packet per gap.
	Pace time.Duration
	// Congestion selects the sender's congestion-control policy by its name
	// in core's table (CongestionPolicies): CCFixed (the paper's greedy
	// sender; the default, also selected by "" and "greedy"), CCAIMD
	// (TCP-friendly additive-increase/multiplicative-decrease), CCSABUL
	// (SABUL-style rate probing), "backoff" and "hybrid" (the paper's two
	// §7 responses). It is the one selector a sender has. The controller
	// observes acknowledgement, retransmit-classified-loss and round-trip
	// signals and dictates the batch cap and per-packet pacing gap per
	// round; a striped transfer runs one independent controller per stripe,
	// every attempt of a retried one a fresh set. Unknown
	// names fail Send before any network activity. Options.Pace stacks on
	// top of whatever gap the policy dictates.
	Congestion string
	// Streams splits each outbound object into this many contiguous
	// stripes, each an independent FOBS flow (own transfer tag, sequence
	// space and UDP socket) sharing one control connection — the
	// real-network counterpart of the parallel-sockets baseline (default
	// 1; wire limit wire.MaxStreams). The stripe count is clamped to the
	// object's packet count, and a transfer with one stripe is
	// bit-compatible with earlier receivers. Receive sides reassemble
	// any announced striping regardless of this setting.
	Streams int
	// Progress, when non-nil, is called from the sender loop as
	// acknowledgements arrive, with the count of packets known received
	// and the total. Calls are made at most once per processed ack.
	Progress func(knownReceived, total int)
	// StallTimeout is the sender's liveness watchdog: if the transfer is
	// incomplete and no acknowledgement arrives for this long, the
	// sender emits ABORT on the control channel and returns an error
	// wrapping ErrStalled. The paper's greedy sender would blast UDP
	// forever at a dead receiver. Default 15s; negative disables.
	StallTimeout time.Duration
	// IdleTimeout is the receiver's liveness watchdog: if the object is
	// incomplete and no data arrives for this long, the receiver emits
	// ABORT and returns an error wrapping ErrIdle. Default 30s; negative
	// disables.
	IdleTimeout time.Duration
	// HandshakeTimeout bounds each announcement → HAVE exchange (default
	// 10s).
	HandshakeTimeout time.Duration
	// NoFastPath forces the portable scalar socket path (one syscall per
	// datagram) even on builds where the vectored fast path is available.
	// The equivalence suite runs every scenario both ways.
	NoFastPath bool
	// IOCounters, when non-nil, is filled with a transfer's socket-level
	// counters (syscalls, datagrams, batch fill) when the transfer ends. A
	// sender reports its own sockets. A receiving endpoint — through
	// Accept, Serve or a session alike — credits the transfer with what its
	// shared receive ring counted between the transfer's registration and
	// its completion (concurrent served transfers each see the ring's whole
	// traffic over their own span; MaxRecvBatch is the ring's largest drain
	// since Listen) plus the acknowledgements it wrote, and writes the field
	// under the endpoint's lock before Accept or Next returns or Serve's
	// handler runs.
	IOCounters *stats.IOCounters
	// Metrics, when non-nil, keeps a live per-transfer record of every run:
	// packets sent/retransmitted/duplicate, acks both ways, bytes, round
	// trips, watchdog firings and phase timestamps, queryable via
	// Registry.Snapshot and the metrics debug HTTP endpoint. The counts are
	// core's own, never counted again per packet: a sending engine publishes
	// them after each flush and ack drain and at the outcome, and a
	// receiving transfer's are read under its lock at each snapshot. Leaving
	// the field nil costs one predictable nil check per publication.
	Metrics *metrics.Registry
	// Retry, when non-nil, wraps Send in a retry supervisor: failed
	// attempts — a refused or lost control connection and a handshake that
	// timed out included — are classified (see IsRetryable) and re-dialed
	// with jittered exponential backoff under the policy's budget. It is
	// Send's only retry: without it Send makes exactly one attempt. Every
	// attempt is the same announcement, so a single-stream retry is answered
	// with whatever the receiver retained of the failed one, and sends only
	// the rest.
	Retry *RetryPolicy
	// ResumeWindow is how long a listener or server keeps the partial
	// state (buffer + got-bitmap) of a failed single-stream inbound transfer
	// in its store, keyed by the content identity its CHECK announced, so
	// that the next announcement of the same content — under any transfer
	// id — sends only what is missing (default 60s; negative keeps no
	// partial state). The store holds one entry per content: content it
	// holds whole is not retained in part too.
	ResumeWindow time.Duration
	// Checkpoint, when non-empty, is a directory where a listener or
	// server also keeps every entry of its store — whole objects for dedup,
	// partial ones for resume — as a file named by its content, so a
	// restarted receiver process still holds what it held. Listen loads the
	// directory within the store's bounds, newest files first, and removes
	// what they leave no room for and what it cannot use: files this
	// configuration keeps no entry of, unverifiable whole objects, and
	// files an earlier build named by transfer id. A file is removed when
	// its entry is evicted, expires or is consumed.
	Checkpoint string
	// RateCap, when non-nil, bounds the aggregate on-the-wire send rate of
	// every transfer sharing the same *RateCap value (payload plus UDP/IP
	// overhead, like CCSABUL's accounting). The cap composes with the
	// selected Congestion policy — each stripe's sender charges it and plans
	// every round to the stricter of the policy's verdict (plus Pace) and
	// the cap's — and is how an orchestrator imposes a per-tenant ceiling
	// across that tenant's concurrent transfers: one transfer alone runs at
	// the cap, several share it. A cap below one packet per
	// core.MaxControllerGap per flow cannot be fully honoured: the
	// controller contract's starvation floor wins.
	RateCap *RateCap
	// Trace, when non-nil, receives a lifecycle span log of every transfer
	// this endpoint runs: one event per phase transition (dial, handshake,
	// resume, data rounds, drain, digest verify, terminal verdict), each
	// tagged with a 16-byte trace id, written as versioned JSONL in the
	// background. Where the flight recorder captures every packet, the
	// span log captures only phase boundaries — a handful of events per
	// transfer — so sender and receiver logs from both hosts can be joined
	// on the trace id into one cross-host waterfall (fobs-analyze -events).
	Trace *obs.Log
	// TraceID pins the trace id transfers from this endpoint carry. Zero
	// (the default) generates a fresh id per transfer when Trace is set.
	// The id rides in the announcement's CHECK, so the receiver files its
	// span log under it too; a zero id there is an untraced announcement
	// (see DESIGN.md §5i).
	TraceID obs.TraceID
	// NoDedup opts out of dedup answers: answers from a whole object the
	// receiver already holds. Sending: the CHECK omits wire.CheckFlagDedup,
	// so every push moves the bytes the receiver did not retain of it.
	// Receiving: the store keeps no whole objects. Retained partial state
	// is consulted either way.
	NoDedup bool
	// Record, when non-nil, captures a packet-level flight recording of
	// every transfer this endpoint runs: each data send with its attempt
	// number, each acknowledgement with the packets it newly covered,
	// batch-size changes and phase transitions, written in the background
	// to the log's .fobrec file for offline replay by fobs-analyze. The
	// hot-path cost is one lock-free ring push per event; leaving the
	// field nil costs one predictable nil check.
	Record *flight.Log
	// testFlushHook observes every sender-side flush (datagrams handed
	// to the kernel, datagrams accepted). Unexported: only this
	// package's tests can set it, to assert that batch-policy sizes
	// reach the wire as real vector lengths.
	testFlushHook func(k, m int)
	// testController observes each controller a sender plan builds (tests
	// only): one per stripe per attempt.
	testController func(core.Controller)
	// testNoWindow makes a receiving endpoint advertise no receive window,
	// as a build that predates the window does.
	testNoWindow bool
	// readBuffer, idlePoll and ioBatch stand in for socketBuffer,
	// defaultIdlePoll and DefaultIOBatch when set (tests only): a small
	// receive buffer for the window tests, a coarse wait for the
	// wait-discipline tests, a long ring for the send ring's allocation
	// budget.
	readBuffer int
	idlePoll   time.Duration
	ioBatch    int
}

func (o Options) withDefaults() Options {
	if o.readBuffer == 0 {
		o.readBuffer = socketBuffer
	}
	if o.idlePoll == 0 {
		o.idlePoll = defaultIdlePoll
	}
	if o.StallTimeout == 0 {
		o.StallTimeout = 15 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 30 * time.Second
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	if o.ioBatch == 0 {
		o.ioBatch = DefaultIOBatch
	}
	if o.ioBatch < 1 {
		o.ioBatch = 1
	}
	if o.Streams < 1 {
		o.Streams = 1
	}
	if o.ResumeWindow == 0 {
		o.ResumeWindow = 60 * time.Second
	}
	return o
}

// senderTraceID resolves the trace id one outbound transfer's CHECK carries:
// the pinned Options.TraceID when set, a fresh id when only the span log is
// configured, the zero id (untraced) otherwise.
func (o Options) senderTraceID() obs.TraceID {
	if !o.TraceID.IsZero() {
		return o.TraceID
	}
	if o.Trace != nil {
		return obs.NewTraceID()
	}
	return obs.TraceID{}
}

// DefaultIOBatch is the ring length of the batched socket path. The sender
// queues batch rounds in a ring of this many packets and flushes it — and
// looks for an acknowledgement — when it is full, when the turn is over, or
// after a round that carries a pacing gap; one flush is one sendmmsg whose
// equal-length packets travel as datagram trains (UDP_SEGMENT). A listener
// drains up to this many messages — datagrams or whole trains (UDP_GRO) —
// per recvmmsg, into a ring of this many 64 KiB slots allocated once per
// Listen. Large enough that a 1 KiB-packet ring leaves as one full train
// and a receiver wakeup amortizes its syscall over a queue of them, small
// enough that the sender's per-transfer ring and the listener's 2 MiB ring
// stay cheap.
const DefaultIOBatch = 32

// socketBuffer is the kernel buffer size, receive and send, every data
// socket asks for. The kernel cuts a request down to its own limit without
// an error (net.core.rmem_max and wmem_max on Linux); a receiving endpoint
// reads back what it was granted (Listener.ReadBuffer) and advertises its
// receive window from that, not from the request.
const socketBuffer = 4 << 20

// defaultIdlePoll is how long the sender stays silent once it has nothing
// new to say — a full turn of the paper's circular buffer gone out since the
// last acknowledgement, or the receive window full: it blocks on its ack
// socket until news (an acknowledgement, the completion signal, ctx) or this
// long, whichever is first. It is the retransmission interval of a tail whose
// acknowledgements are lost, and the granularity of the stall watchdog
// while the sender is blocked.
const defaultIdlePoll = 2 * time.Millisecond

// FastPathAvailable reports whether this build has the vectored
// sendmmsg/recvmmsg socket path (Linux on a 64-bit architecture). When
// false, Options.NoFastPath is a no-op: every transfer runs the scalar
// path.
func FastPathAvailable() bool { return batchio.FastPathAvailable() }

// maxDatagram is the slot size of a data socket's receive ring: a slot
// holds one message, which is a datagram of any packet size the paper
// sweeps (up to 32 KiB plus headers) or a train of them, 64 KiB at most.
const maxDatagram = batchio.TrainBufLen

// writeErrLimit is how many consecutive persistently-failing batch-send
// rounds the sender tolerates before surfacing the write error.
const writeErrLimit = 8

// Listener is one receiving endpoint: a TCP control port and a UDP data
// socket bound to the same port number, the data socket's receive ring, the
// one goroutine that drains it (see loop), and the one that accepts control
// connections and lends them out (see acceptLoop). It has three ways to
// take a transfer, all on that one loop: Accept runs one per call, Serve runs
// many at once, and AcceptSession holds one sender's connection for a
// sequence of them.
type Listener struct {
	tcp *net.TCPListener
	udp *net.UDPConn
	// rx is the data socket's receive ring. It belongs to the socket, not to
	// a transfer: its 64 KiB slots are paid for once per Listen, and only the
	// endpoint's loop reads it.
	rx *batchio.Receiver
	// rcvbuf is the data socket's receive buffer as the kernel granted it
	// (zero where that cannot be read back): what receive windows are cut from.
	rcvbuf int
	opts   Options
	// store holds what the endpoint keeps of objects between transfers:
	// whole ones for dedup, partial ones for resume.
	store *store
	// self is where the data socket reaches itself (settle): its own
	// address, loopback when it is bound to every interface.
	self  netip.AddrPort
	marks atomic.Uint64 // the last mark settle took

	// mu guards the registration map, the published ring counters and
	// Options.IOCounters.
	mu      sync.Mutex
	inbound map[uint32]tagRoute // transfer tag (one per stripe) → transfer in flight
	io      stats.IOCounters    // rx's tallies as of the loop's latest drain
	stopped chan struct{}       // closed when the loop has exited

	// leases carries control connections from their servers to the adapters
	// that take them; closing is closed by Close, which waits on conns for
	// the accept loop and every connection server to end.
	leases    chan lease
	closing   chan struct{}
	closeOnce sync.Once
	conns     sync.WaitGroup
}

// Listen binds addr (e.g. "127.0.0.1:7700") for control (TCP) and data
// (UDP, same port) and starts the endpoint's receive loop and accept loop,
// which run until Close.
func Listen(addr string, opts Options) (*Listener, error) {
	opts = opts.withDefaults()
	tcpAddr, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("udprt: resolve %q: %w", addr, err)
	}
	tl, err := net.ListenTCP("tcp", tcpAddr)
	if err != nil {
		return nil, fmt.Errorf("udprt: listen control: %w", err)
	}
	udpAddr := &net.UDPAddr{IP: tcpAddr.IP, Port: tl.Addr().(*net.TCPAddr).Port}
	ul, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		tl.Close()
		return nil, fmt.Errorf("udprt: listen data: %w", err)
	}
	// Large kernel buffers, as the paper's tuning guides prescribe — as large
	// as the kernel will grant: a refusal and a request cut down to the
	// system's limit both show in the read-back below, and only acks leave
	// through the write buffer.
	_ = ul.SetReadBuffer(opts.readBuffer)
	_ = ul.SetWriteBuffer(socketBuffer)
	rx, err := batchio.NewReceiver(ul, opts.ioBatch, maxDatagram, !opts.NoFastPath)
	if err != nil {
		tl.Close()
		ul.Close()
		return nil, fmt.Errorf("udprt: batched receiver: %w", err)
	}
	l := &Listener{tcp: tl, udp: ul, rx: rx, rcvbuf: batchio.ReadBuffer(ul), opts: opts,
		store: newStore(opts), self: selfAddr(ul),
		inbound: make(map[uint32]tagRoute), stopped: make(chan struct{}),
		leases: make(chan lease), closing: make(chan struct{})}
	go l.loop()
	l.conns.Add(1)
	go l.acceptLoop()
	return l, nil
}

// selfAddr is where conn reaches itself, unmapped: its own address, or
// loopback when it is bound to every interface.
func selfAddr(conn *net.UDPConn) netip.AddrPort {
	a := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	ip := a.Addr().Unmap()
	if ip.IsUnspecified() {
		ip = netip.AddrFrom4([4]byte{127, 0, 0, 1})
	}
	return netip.AddrPortFrom(ip, a.Port())
}

// Addr returns the control address the listener is bound to.
func (l *Listener) Addr() string { return l.tcp.Addr().String() }

// ReadBuffer reports the data socket's receive buffer in bytes: what the
// kernel granted (zero where it cannot be read back) and what the endpoint
// asked for (4 MiB). Granted below requested means the system's
// limit (net.core.rmem_max on Linux) cut the request down; receive windows
// are cut from what was granted, so senders slow down rather than overrun it.
func (l *Listener) ReadBuffer() (granted, requested int) { return l.rcvbuf, l.opts.readBuffer }

// window is the receive window an accepted transfer of that many stripes is
// told: per flow, because every stripe's sender runs its own, and of half
// the buffer — every flow lands on the endpoint's one socket, whose buffer
// is charged per datagram for more than the payload, and an ack-clocked
// sender overshoots by what it sends between two acknowledgements.
func (l *Listener) window(stripes int) wire.Window {
	if l.opts.testNoWindow {
		return 0
	}
	return wire.WindowOf(l.rcvbuf / 2 / stripes)
}

// Close releases both sockets and every control connection the endpoint
// holds, and returns once its receive loop, its accept loop and every
// connection's server have ended. A sender that keeps a connection to the
// endpoint reads EOF on it. Transfers still in flight end on their own
// context, the lost control connection or the idle watchdog.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() { close(l.closing) })
	l.udp.Close()
	<-l.stopped
	err := l.tcp.Close()
	l.conns.Wait()
	return err
}

// Accept runs the next announcement any sender makes on the endpoint (see
// receive) until the object completes, the idle watchdog fires, the sender
// aborts, or ctx ends, returning the assembled object. The announcement comes
// on a new control connection or on one that served an earlier transfer: a
// connection serves announcements until its sender closes it.
func (l *Listener) Accept(ctx context.Context) ([]byte, core.ReceiverStats, error) {
	ls, err := l.lease(ctx)
	if err != nil {
		return nil, core.ReceiverStats{}, err
	}
	_, obj, st, err := l.receive(ctx, ls.rd)
	ls.giveBack(err == nil)
	return obj, st, err
}

// abortReasonFor maps a driver error onto the wire abort-reason taxonomy,
// mirroring what the driver put (or would have put) on the control channel.
func abortReasonFor(err error) wire.AbortReason {
	var abort *AbortError
	switch {
	case errors.As(err, &abort):
		return abort.Reason
	case errors.Is(err, ErrStalled):
		return wire.AbortStalled
	case errors.Is(err, ErrIdle):
		return wire.AbortIdleTimeout
	case errors.Is(err, ErrDigestMismatch):
		return wire.AbortDigestMismatch
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return wire.AbortCancelled
	default:
		return wire.AbortUnspecified
	}
}

// completeFrame is the plan's terminal control signal: one COMPLETE per
// object, however many stripes carried it, echoing the tag of the content
// identity the object was verified against or is cached under.
func completeFrame(plan recvPlan) []byte {
	return wire.AppendComplete(nil, &wire.Complete{
		Transfer: plan.base,
		Received: plan.objectSize,
		Digest:   wire.ContentTag(plan.checkDigest),
	})
}

// readTransferPlan takes the transfer announcement — exactly a CHECK, then
// the HELLO — from the connection's reader (its first frame from the held
// one, when the connection's server took it off the reader while the
// connection waited for it) before ctx ends, bounded by a read
// deadline of 30s or ctx's deadline, whichever is sooner, which is cleared
// afterwards so it never lingers on the control connection. The HELLO is
// always taken, even when the CHECK will turn out a dedup hit: the sender
// writes both in one piece, and consuming them keeps the stream framing clean
// for session reuse. A CHECK of a protocol revision this build does not speak
// surfaces as an error wrapping wire.ErrCheckVersion; a frame of a retired
// type (an earlier build's TRACE, HELLOX or RESUME) as a bad control frame;
// and anything else that is not CHECK then HELLO, a CHECK whose geometry is
// not the HELLO's, or a geometry no receiver can be built for — an empty
// object, a size or packet size that does not fit an int — as
// errBadAnnouncement. Callers answer through refuseAnnouncement.
func readTransferPlan(ctx context.Context, rd *ctlReader) (recvPlan, error) {
	dl := time.Now().Add(30 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	rd.ctl.SetReadDeadline(dl)
	defer rd.ctl.SetReadDeadline(time.Time{})
	var frames [2]controlFrame
	for i, want := range []uint8{wire.TypeCheck, wire.TypeHello} {
		f, ok := rd.held, rd.holding
		if rd.holding {
			rd.held, rd.holding = controlFrame{}, false
		} else {
			select {
			case f, ok = <-rd.frames:
			case <-ctx.Done():
				return recvPlan{}, fmt.Errorf("udprt: hello read: %w", ctx.Err())
			}
		}
		if !ok {
			return recvPlan{}, fmt.Errorf("udprt: hello read: %w", rd.err)
		}
		if f.typ != want {
			return recvPlan{}, fmt.Errorf("%w: control frame type %d where type %d belongs", errBadAnnouncement, f.typ, want)
		}
		frames[i] = f
	}
	chk, h := frames[0].check, frames[1].hello
	plan := recvPlan{
		base:        h.Transfer,
		objectSize:  h.ObjectSize,
		packetSize:  int(h.PacketSize),
		stripes:     h.Stripes,
		trace:       obs.TraceID(chk.Trace),
		checkDigest: chk.Digest,
		checkDedup:  chk.Flags&wire.CheckFlagDedup != 0,
	}
	if chk.Transfer != h.Transfer || chk.ObjectSize != h.ObjectSize || chk.PacketSize != h.PacketSize {
		return recvPlan{}, fmt.Errorf("%w: CHECK names transfer %d, %d bytes in %d-byte packets; HELLO %d, %d in %d",
			errBadAnnouncement, chk.Transfer, chk.ObjectSize, chk.PacketSize, h.Transfer, h.ObjectSize, h.PacketSize)
	}
	if plan.objectSize == 0 || plan.objectSize > math.MaxInt || plan.packetSize <= 0 {
		return recvPlan{}, fmt.Errorf("%w: %d-byte object in %d-byte packets",
			errBadAnnouncement, plan.objectSize, plan.packetSize)
	}
	return plan, nil
}

// errBadAnnouncement reports an announcement that parsed but describes a
// transfer no receiver can be built for.
var errBadAnnouncement = errors.New("udprt: unusable transfer announcement")

// refuseAnnouncement answers an announcement readTransferPlan could not
// accept with a reasoned ABORT, so the peer fails its handshake instead of
// blasting data: unsupported for a protocol revision this build does not
// speak, cancelled when the endpoint's context ended the wait, bad-hello for
// anything else.
func refuseAnnouncement(ctl net.Conn, err error) {
	reason := wire.AbortBadHello
	switch {
	case errors.Is(err, wire.ErrCheckVersion):
		reason = wire.AbortUnsupported
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		reason = wire.AbortCancelled
	}
	writeAbort(ctl, 0, reason)
}

// Send transfers obj to the FOBS listener at addr and returns the sender's
// statistics. cfg follows core.Config defaults; the Transfer tag is chosen
// by the caller (zero is fine for a single transfer). With Options.Streams
// > 1 the object is split into contiguous stripes, each with its own tag
// (base+i), flow and engine; the returned statistics sum over stripes.
// Without Options.Retry, Send makes exactly one attempt: one exchange, and
// one data flow per stripe of its own. With it, failed transfers are retried
// (a single-stream retry sends only what the receiver did not retain) and the
// returned statistics are the final attempt's.
//
// The control connection is one per peer, not one per object: Send takes
// the idle connection an earlier successful Send to the same addr left open,
// and dials only when there is none. A Send that ends in a verified COMPLETE
// or a dedup hit keeps its connection for the next one — up to 4 per addr,
// each for 10 s — and any other exit closes it. When the receiver has closed
// a kept connection while it idled (the announcement meets EOF, a reset or a
// broken pipe before any answer), Send dials once more; an answer, HAVE or
// ABORT, is never retried.
//
// Send keeps nothing of obj. Once it returns, on any exit — a verified
// COMPLETE, a dedup hit, an ABORT, a cancelled context, an error, the last
// attempt of a retried run — no goroutine it started reads a byte of obj
// again, so the caller may overwrite or reuse the buffer at once.
func Send(ctx context.Context, addr string, obj []byte, cfg core.Config, opts Options) (core.SenderStats, error) {
	opts = opts.withDefaults()
	if len(obj) == 0 {
		return core.SenderStats{}, errEmptyObject
	}
	if opts.Retry != nil {
		return sendSupervised(ctx, addr, obj, cfg, opts)
	}
	return sendAttempt(ctx, addr, obj, cfg, opts)
}

var errEmptyObject = errors.New("udprt: empty object")

// sendAttempt is one attempt of Send: a fresh plan of obj, sent over a
// control connection to addr — a kept one or a new one — and data flows of
// its own.
func sendAttempt(ctx context.Context, addr string, obj []byte, cfg core.Config, opts Options) (core.SenderStats, error) {
	plan, err := newSenderPlan(obj, cfg, opts)
	if err != nil {
		return core.SenderStats{}, err
	}
	return plan.send(ctx, nil, addr, nil, opts)
}

// send is the one per-object exchange of Send and Session.Send: instrument
// → [take or dial control] → announce → HAVE → dedup hit: verdict, or miss:
// [dial data flows] → run → verdict. The two differ only in where ctl and
// the data flows come from: a session passes its own; Send passes nil for
// both, takes a kept control connection to addr or dials one (announce), and
// dials the data flows toward addr only after a miss, so a dedup hit opens no
// UDP socket; it closes the data flows on the way out, and keeps the control
// connection for the next Send to addr only when the exchange succeeded. A
// HAVE that does not fit the plan is refused with ABORT(bad-hello), and data
// flows that cannot be dialled with ABORT(unspecified), so the receiver never
// waits on a sender that has given up. Every exit stamps the instruments.
func (p *senderPlan) send(ctx context.Context, ctl net.Conn, addr string, flows []*net.UDPConn, opts Options) (st core.SenderStats, err error) {
	p.instrument(opts, opts.senderTraceID())
	var have wire.Have
	if ctl != nil {
		have, err = exchange(ctx, ctl, p.announcement(opts), p.base, opts.HandshakeTimeout)
	} else {
		ctl, have, err = p.announce(ctx, addr, opts)
		if ctl != nil {
			defer func(c net.Conn) {
				if err == nil {
					idleControl.put(addr, c)
				} else {
					c.Close()
				}
			}(ctl)
		}
	}
	if err != nil {
		return p.fail(err)
	}
	hit, err := p.accepted(have)
	if err != nil {
		writeAbort(ctl, p.base, wire.AbortBadHello)
		return p.fail(err)
	}
	if hit {
		// The receiver already holds the content: COMPLETE follows the HAVE
		// with no data flow, and the control stream stays clean for the next
		// object.
		return completeDedupedSend(p, ctl)
	}
	if flows == nil {
		if flows, err = dialDataFlows(addr, len(p.snds), opts); err != nil {
			writeAbort(ctl, p.base, wire.AbortUnspecified)
			return p.fail(err)
		}
		defer closeAll(flows)
	}
	return runSenderPlan(ctx, p, flows[:len(p.snds)], ctl, opts)
}

// announce makes Send's announcement exchange on a control connection to
// addr: the one kept last for addr, when there is one, else a new one. A kept
// connection the receiver closed while it idled is closed and the exchange
// made once more on a new connection. The connection comes back whenever
// there is one, the exchange failed or not.
func (p *senderPlan) announce(ctx context.Context, addr string, opts Options) (net.Conn, wire.Have, error) {
	// A done context announces nothing, on a kept connection as on a new one
	// (DialContext refuses it): the receiver would take the transfer's tag
	// for a sender that is already gone.
	if err := ctx.Err(); err != nil {
		return nil, wire.Have{}, fmt.Errorf("udprt: dial control: %w", err)
	}
	frame := p.announcement(opts)
	if c := idleControl.take(addr); c != nil {
		have, err := exchange(ctx, c, frame, p.base, opts.HandshakeTimeout)
		if !stale(err) {
			return c, have, err
		}
		c.Close()
	}
	p.probes.event(obs.KindDial, 0)
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, wire.Have{}, fmt.Errorf("udprt: dial control: %w", err)
	}
	have, err := exchange(ctx, c, frame, p.base, opts.HandshakeTimeout)
	return c, have, err
}

// completeDedupedSend finishes a transfer whose CHECK query hit: every
// stripe is marked fully restored (so the stats conservation laws read
// "nothing sent, everything excused", exactly like a resume that had
// nothing left), and the receiver's COMPLETE is awaited and verified as
// usual. End-to-end integrity holds on this path too: the receiver holds the
// bytes under the 256-bit identity this end computed from its own, and the
// COMPLETE echoes that identity's tag.
func completeDedupedSend(plan *senderPlan, ctl net.Conn) (core.SenderStats, error) {
	plan.probes.event(obs.KindCheck, 1)
	total := 0
	for i, snd := range plan.snds {
		n := snd.NumPackets()
		if _, err := snd.Restore(fullWords(n)); err != nil {
			return plan.fail(err)
		}
		plan.probes[i].stripe().event(obs.KindSkip, uint64(n))
		total += n
	}
	plan.probes[0].span().event(obs.KindSkip, uint64(total))
	err := readCompletion(ctl, plan)
	plan.finish(err)
	st := plan.stats()
	st.Deduped = err == nil
	return st, err
}

// readCompletion blocks until the receiver's terminal control frame
// arrives: COMPLETE (whose digest must be the tag of the content identity
// the CHECK announced — one verdict covers every stripe) or ABORT.
func readCompletion(ctl net.Conn, p *senderPlan) error {
	obj, want := p.obj, wire.ContentTag(p.contentID())
	f, err := readControlFrame(ctl)
	if err != nil {
		return fmt.Errorf("udprt: control read: %w", err)
	}
	switch f.typ {
	case wire.TypeAbort:
		abort := &AbortError{Transfer: f.abort.Transfer, Reason: f.abort.Reason}
		if f.abort.Reason == wire.AbortDigestMismatch {
			// The receiver verified the assembled object against the
			// announced content digest and it did not match: corruption,
			// not loss. Surface both the abort and the typed mismatch so
			// the sender fails the same way the receiver did.
			return fmt.Errorf("udprt: receiver rejected the object content: %w (%w)", ErrDigestMismatch, abort)
		}
		return abort
	case wire.TypeComplete:
	default:
		return fmt.Errorf("udprt: unexpected control frame type %d awaiting completion", f.typ)
	}
	c := f.complete
	if c.Received != uint64(len(obj)) {
		return fmt.Errorf("udprt: receiver reports %d bytes, sent %d", c.Received, len(obj))
	}
	if c.Digest != want {
		return fmt.Errorf("udprt: receiver %08x, sender %08x: %w", c.Digest, want, ErrDigestMismatch)
	}
	return nil
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
