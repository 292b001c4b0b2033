// Package udprt is the real-network FOBS runtime: the same IO-free state
// machines of internal/core driven over genuine UDP sockets, with the
// completion signal on a TCP control connection — the paper's deployment
// shape, runnable on loopback, LAN or WAN.
//
// Channel layout (paper §3): the sender pushes DATA datagrams to the
// receiver's UDP port; the receiver pushes ACK datagrams back to the source
// address of the data flow; one TCP connection carries the control
// handshake (HELLO sender→receiver, HELLO-ACK back) and the terminal
// signal (COMPLETE receiver→sender, or ABORT from either side).
//
// Failure model (beyond the paper, which assumes both endpoints stay alive
// for the whole transfer): the sender transmits no data until the receiver
// accepts the HELLO; a stall watchdog aborts the sender when no
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
	"sync"
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
	// ReadBuffer and WriteBuffer request kernel socket buffer sizes for
	// the UDP data socket (default 4 MiB; best effort). The kernel cuts a
	// request down to its own limit without an error (net.core.rmem_max and
	// wmem_max on Linux); a receiving endpoint reads back what it was
	// granted (Listener.ReadBuffer) and advertises its receive window from
	// that, not from the request.
	ReadBuffer, WriteBuffer int
	// IdlePoll is how long the sender stays silent once it has nothing new
	// to say — a full turn of the paper's circular buffer gone out since the
	// last acknowledgement, or the receive window full: it blocks on its ack
	// socket until news (an acknowledgement, the completion signal, ctx) or
	// IdlePoll, whichever is first (default 2 ms). It is the retransmission
	// interval of a tail whose acknowledgements are lost, and the granularity
	// of the stall watchdog while the sender is blocked.
	IdlePoll time.Duration
	// Pace inserts a fixed per-packet delay on top of whatever gap the
	// Congestion policy dictates, useful to keep loopback transfers from
	// overrunning the receiving process (default 0). Gaps are charged to the
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
	// HandshakeTimeout bounds each HELLO → HELLO-ACK exchange (default
	// 10s).
	HandshakeTimeout time.Duration
	// HandshakeRetries is how many times Send attempts the control
	// connection plus handshake before giving up (default 3). Retries
	// cover connection errors and timeouts only; an ABORT rejection from
	// the receiver is final.
	HandshakeRetries int
	// HandshakeBackoff is the delay before the second handshake attempt,
	// doubling on each further attempt (default 200ms).
	HandshakeBackoff time.Duration
	// IOBatch is the ring length of the batched socket path (default 32).
	// The sender queues batch rounds in a ring of this many packets and
	// flushes it — and looks for an acknowledgement — when it is full, when
	// the turn is over, or after a round that carries a pacing gap; one
	// flush is one sendmmsg whose equal-length packets travel as datagram
	// trains (UDP_SEGMENT). A listener drains up to this many messages —
	// datagrams or whole trains (UDP_GRO) — per recvmmsg, into a ring of
	// this many 64 KiB slots allocated once per Listen.
	IOBatch int
	// NoFastPath forces the portable scalar socket path (one syscall per
	// datagram) even on builds where the vectored fast path is available.
	// The equivalence suite runs every scenario both ways.
	NoFastPath bool
	// IOCounters, when non-nil, is filled with a transfer's socket-level
	// counters (syscalls, datagrams, batch fill) when the transfer ends. A
	// sender reports its own sockets. A receiving endpoint — Listener,
	// session or Server alike — credits the transfer with what its shared
	// receive ring counted between the transfer's registration and its
	// completion (concurrent Server transfers each see the ring's whole
	// traffic over their own span; MaxRecvBatch is the ring's largest drain
	// since Listen) plus the acknowledgements it wrote, and writes the field
	// under the endpoint's lock before Accept or Next returns or the
	// Server's handler runs.
	IOCounters *stats.IOCounters
	// Metrics, when non-nil, receives a live per-transfer record of every
	// run: packets sent/retransmitted/duplicate, acks both ways, bytes,
	// watchdog firings and phase timestamps, queryable via
	// Registry.Snapshot and the metrics debug HTTP endpoint. The
	// instrumentation is allocation-free on the hot paths; leaving the
	// field nil costs one predictable nil check per event.
	Metrics *metrics.Registry
	// Retry, when non-nil, wraps Send in a retry supervisor: failed
	// attempts are classified (see IsRetryable) and re-dialed with jittered
	// exponential backoff under the policy's budget. Every attempt is the
	// same announcement, so a single-stream retry is answered with whatever
	// the receiver retained of the failed one, and sends only the rest.
	Retry *RetryPolicy
	// ResumeWindow is how long a listener or server retains the partial
	// state (buffer + got-bitmap) of a failed single-stream inbound transfer,
	// keyed by the content identity its CHECK announced, so that the next
	// announcement of the same content — under any transfer id — sends only
	// what is missing (default 60s; negative disables retention).
	ResumeWindow time.Duration
	// Checkpoint, when non-empty, is a directory where retained transfer
	// state is also persisted as checkpoint files, so a restarted receiver
	// process still holds what it retained before the restart. Files are
	// removed when claimed or when the window lapses.
	Checkpoint string
	// RateCap, when non-nil, bounds the aggregate on-the-wire send rate of
	// every transfer sharing the same *RateCap value (payload plus UDP/IP
	// overhead, like CCSABUL's accounting). The cap composes with the
	// selected Congestion policy — each stripe's controller is wrapped so
	// the stricter of the policy's pacing and the cap's applies — and is
	// how an orchestrator imposes a per-tenant ceiling across that
	// tenant's concurrent transfers: one transfer alone runs at the cap,
	// several share it. A cap below one packet per
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
	// The id is propagated to the receiver in a TRACE control-frame
	// prelude before the announcement; peers that do not speak TRACE
	// degrade the handshake to an untraced one (see DESIGN.md §5i).
	TraceID obs.TraceID
	// Verify demands per-stripe content verification. Sending: the CHECK
	// prelude carries wire.CheckFlagVerify and one digest per stripe,
	// asking the receiver to verify every stripe (not just the whole
	// object) before COMPLETE. Receiving: announced stripe digests are
	// verified at completion. The whole-object identity every CHECK carries
	// is always verified, Verify or not, and a peer that refuses the CHECK
	// always fails the transfer (ErrVerifyUnsupported).
	Verify bool
	// NoDedup opts out of answers from the content cache. Sending: the
	// CHECK prelude omits wire.CheckFlagDedup, so every push moves the
	// bytes the receiver did not retain of it. Receiving: no content cache
	// is kept. Retained partial state is consulted either way.
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
}

func (o Options) withDefaults() Options {
	if o.ReadBuffer == 0 {
		o.ReadBuffer = 4 << 20
	}
	if o.WriteBuffer == 0 {
		o.WriteBuffer = 4 << 20
	}
	if o.IdlePoll == 0 {
		o.IdlePoll = 2 * time.Millisecond
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
	if o.HandshakeRetries == 0 {
		o.HandshakeRetries = 3
	}
	if o.HandshakeBackoff == 0 {
		o.HandshakeBackoff = 200 * time.Millisecond
	}
	if o.IOBatch == 0 {
		o.IOBatch = DefaultIOBatch
	}
	if o.IOBatch < 1 {
		o.IOBatch = 1
	}
	if o.Streams < 1 {
		o.Streams = 1
	}
	if o.ResumeWindow == 0 {
		o.ResumeWindow = 60 * time.Second
	}
	return o
}

// senderTraceID resolves the trace id one outbound transfer carries: the
// pinned Options.TraceID when set, a fresh id when only the span log is
// configured, the zero id (no tracing, no prelude — bit-compatible with
// every earlier receiver) otherwise.
func (o Options) senderTraceID() obs.TraceID {
	if !o.TraceID.IsZero() {
		return o.TraceID
	}
	if o.Trace != nil {
		return obs.NewTraceID()
	}
	return obs.TraceID{}
}

// tracePrelude frames the TRACE control prelude for tid, nil for the zero
// id.
func tracePrelude(tid obs.TraceID) []byte {
	if tid.IsZero() {
		return nil
	}
	return wire.AppendTrace(nil, &wire.Trace{ID: tid})
}

// DefaultIOBatch is the default ring length of the batched socket path.
// Large enough that a 1 KiB-packet ring leaves as one full train and a
// receiver wakeup amortizes its syscall over a queue of them, small enough
// that the sender's per-transfer ring and the listener's 64 KiB-slot ring
// (2 MiB) stay cheap.
const DefaultIOBatch = 32

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

// ErrVerifyUnsupported reports that the peer refused the CHECK prelude: it
// cannot verify content digests, and every announcement names its content,
// so the transfer fails rather than move bytes nothing would verify.
// Terminal under IsRetryable.
var ErrVerifyUnsupported = errors.New("udprt: peer does not support content verification")

// Listener is one receiving endpoint: a TCP control port and a UDP data
// socket bound to the same port number, the data socket's receive ring, and
// the one goroutine that drains it (see loop). Accept runs one transfer per
// call on it; a SessionListener and a Server are the same endpoint behind
// other adapters.
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
	store  *resumeStore
	cache  *contentCache

	// mu guards the registration map, the published ring counters and
	// Options.IOCounters.
	mu      sync.Mutex
	inbound map[uint32]tagRoute // transfer tag (one per stripe) → transfer in flight
	io      stats.IOCounters    // rx's tallies as of the loop's latest drain
	stopped chan struct{}       // closed when the loop has exited
}

// Listen binds addr (e.g. "127.0.0.1:7700") for control (TCP) and data
// (UDP, same port) and starts the endpoint's receive loop, which runs until
// Close.
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
	_ = ul.SetReadBuffer(opts.ReadBuffer)
	_ = ul.SetWriteBuffer(opts.WriteBuffer)
	rx, err := batchio.NewReceiver(ul, opts.IOBatch, maxDatagram, !opts.NoFastPath)
	if err != nil {
		tl.Close()
		ul.Close()
		return nil, fmt.Errorf("udprt: batched receiver: %w", err)
	}
	l := &Listener{tcp: tl, udp: ul, rx: rx, rcvbuf: batchio.ReadBuffer(ul), opts: opts,
		store: newResumeStore(opts), cache: newContentCache(opts),
		inbound: make(map[uint32]tagRoute), stopped: make(chan struct{})}
	go l.loop()
	return l, nil
}

// Addr returns the control address the listener is bound to.
func (l *Listener) Addr() string { return l.tcp.Addr().String() }

// ReadBuffer reports the data socket's receive buffer in bytes: what the
// kernel granted (zero where it cannot be read back) and what
// Options.ReadBuffer asked for. Granted below requested means the system's
// limit (net.core.rmem_max on Linux) cut the request down; receive windows
// are cut from what was granted, so senders slow down rather than overrun it.
func (l *Listener) ReadBuffer() (granted, requested int) { return l.rcvbuf, l.opts.ReadBuffer }

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

// Close releases both sockets and returns once the receive loop has exited.
// Transfers still in flight end on their own context or idle watchdog.
func (l *Listener) Close() error {
	l.udp.Close()
	<-l.stopped
	return l.tcp.Close()
}

// acceptControl blocks for one control connection, honouring both ctx
// cancellation and its deadline, and always leaves the listener's deadline
// cleared so one bounded Accept cannot poison later ones.
func acceptControl(ctx context.Context, tl *net.TCPListener) (*net.TCPConn, error) {
	stop := unblockOnDone(ctx, tl.SetDeadline)
	ctl, err := tl.AcceptTCP()
	stop()
	tl.SetDeadline(time.Time{})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("udprt: accept control: %w", ctxErr)
		}
		return nil, fmt.Errorf("udprt: accept control: %w", err)
	}
	return ctl, nil
}

// Accept waits for a sender's control connection and runs one transfer on
// it (see receive) until the object completes, the idle watchdog fires, the
// sender aborts, or ctx ends, returning the assembled object.
func (l *Listener) Accept(ctx context.Context) ([]byte, core.ReceiverStats, error) {
	ctl, err := acceptControl(ctx, l.tcp)
	if err != nil {
		return nil, core.ReceiverStats{}, err
	}
	defer ctl.Close()
	// The connection carries at most one more inbound frame (an ABORT), so
	// the transfer may watch it for sender death.
	_, obj, st, err := l.receive(ctx, ctl, true)
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

// readTransferPlan consumes the transfer announcement — a classic HELLO
// or a striped HELLOX, preceded by its CHECK prelude and optionally a TRACE
// one — bounded by 30s or ctx's deadline, whichever is sooner. The deadline
// is cleared afterwards so it never lingers on the control connection. The
// announcement is always read, even when the CHECK will turn out a dedup
// hit: the sender pipelines every frame in one write, and consuming them
// all keeps the stream framing clean for session reuse. An announcement
// of a protocol revision this build does not speak surfaces as an error
// wrapping wire.ErrHelloXVersion, wire.ErrTraceVersion or
// wire.ErrCheckVersion; one without a CHECK, or whose geometry no receiver
// can be built for — an empty object, a size or packet size that does not
// fit an int — as errBadAnnouncement; and a frame of a retired type (an
// earlier build's RESUME) as a bad control frame. Callers answer through
// refuseAnnouncement.
func readTransferPlan(ctx context.Context, ctl net.Conn) (recvPlan, error) {
	dl := time.Now().Add(30 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	ctl.SetReadDeadline(dl)
	defer ctl.SetReadDeadline(time.Time{})
	f, err := readControlFrame(ctl)
	if err != nil {
		return recvPlan{}, fmt.Errorf("udprt: hello read: %w", err)
	}
	var tid obs.TraceID
	var chk *wire.Check
	// The preludes only decorate the announcement that must follow them.
	for f.typ == wire.TypeTrace || f.typ == wire.TypeCheck {
		if f.typ == wire.TypeTrace {
			tid = obs.TraceID(f.trace.ID)
		} else {
			c := f.check
			chk = &c
		}
		if f, err = readControlFrame(ctl); err != nil {
			return recvPlan{}, fmt.Errorf("udprt: hello read: %w", err)
		}
	}
	var plan recvPlan
	switch f.typ {
	case wire.TypeHello:
		plan = recvPlan{
			base:       f.hello.Transfer,
			objectSize: f.hello.ObjectSize,
			packetSize: int(f.hello.PacketSize),
		}
	case wire.TypeHelloX:
		plan = recvPlan{
			base:       f.hellox.Transfer,
			objectSize: f.hellox.ObjectSize,
			packetSize: int(f.hellox.PacketSize),
			stripes:    f.hellox.Stripes,
		}
	default:
		return recvPlan{}, fmt.Errorf("udprt: expected HELLO, got control frame type %d", f.typ)
	}
	if plan.objectSize == 0 || plan.objectSize > math.MaxInt || plan.packetSize <= 0 {
		return recvPlan{}, fmt.Errorf("%w: %d-byte object in %d-byte packets",
			errBadAnnouncement, plan.objectSize, plan.packetSize)
	}
	if chk == nil {
		return recvPlan{}, fmt.Errorf("%w: no CHECK names the object", errBadAnnouncement)
	}
	plan.trace = tid
	plan.checkDigest = chk.Digest
	plan.checkVerify = chk.Flags&wire.CheckFlagVerify != 0
	plan.checkDedup = chk.Flags&wire.CheckFlagDedup != 0
	plan.stripeDigests = chk.StripeDigests
	return plan, nil
}

// errBadAnnouncement reports an announcement that parsed but describes a
// transfer no receiver can be built for.
var errBadAnnouncement = errors.New("udprt: unusable transfer announcement")

// refuseAnnouncement answers an announcement readTransferPlan could not
// accept with a reasoned ABORT, so the peer fails its handshake instead of
// blasting data: unsupported for a protocol revision this build does not
// speak (the sender's degradation ladder drops that extra), bad-hello for
// anything else.
func refuseAnnouncement(ctl net.Conn, err error) {
	reason := wire.AbortBadHello
	if errors.Is(err, wire.ErrHelloXVersion) || errors.Is(err, wire.ErrTraceVersion) ||
		errors.Is(err, wire.ErrCheckVersion) {
		reason = wire.AbortUnsupported
	}
	writeAbort(ctl, 0, reason)
}

// Send transfers obj to the FOBS listener at addr and returns the sender's
// statistics. cfg follows core.Config defaults; the Transfer tag is chosen
// by the caller (zero is fine for a single transfer). With Options.Streams
// > 1 the object is split into contiguous stripes, each with its own tag
// (base+i), flow and engine; the returned statistics sum over stripes.
// With Options.Retry set, failed transfers are retried (a single-stream
// retry sends only what the receiver did not retain) and the returned
// statistics are the final attempt's.
//
// Send keeps nothing of obj. Once it returns, on any exit — a verified
// COMPLETE, a dedup hit, an ABORT, a cancelled context, an error, the last
// attempt of a retried run — no goroutine it started reads a byte of obj
// again, so the caller may overwrite or reuse the buffer at once.
func Send(ctx context.Context, addr string, obj []byte, cfg core.Config, opts Options) (core.SenderStats, error) {
	opts = opts.withDefaults()
	if len(obj) == 0 {
		return core.SenderStats{}, errors.New("udprt: empty object")
	}
	if opts.Retry != nil {
		return sendSupervised(ctx, addr, obj, cfg, opts)
	}
	return sendOnce(ctx, addr, obj, cfg, opts)
}

// sendOnce is one un-supervised transfer attempt: the whole Send path,
// handshake to verdict — a data phase for whatever the CHECK's answer did
// not excuse, or, when it says the receiver holds the whole object, a
// zero-data completion.
func sendOnce(ctx context.Context, addr string, obj []byte, cfg core.Config, opts Options) (core.SenderStats, error) {
	plan, err := newSenderPlan(obj, cfg, opts)
	if err != nil {
		return core.SenderStats{}, err
	}
	tid := opts.senderTraceID()
	plan.instrument(opts, tid)
	plan.event(obs.KindDial, 0)
	ctl, ans, err := dialHandshake(ctx, addr, tracePrelude(tid), plan.announcement(opts), plan.base, plan.totalPackets(), opts)
	if err != nil {
		plan.finish(err)
		return plan.stats(), err
	}
	defer ctl.Close()
	hit, err := plan.accepted(ans)
	if err != nil {
		writeAbort(ctl, plan.base, wire.AbortBadHello)
		plan.finish(err)
		return plan.stats(), err
	}
	if hit {
		// Dedup hit: the receiver already holds the object. No handshake
		// completes and no data flow dials — just the verdict.
		return completeDedupedSend(plan, ctl)
	}
	return dialAndRun(ctx, addr, plan, ctl, opts)
}

// dialAndRun opens the plan's data flows toward addr and lets the shared
// sender engine drive each stripe until the completion signal arrives on the
// control channel.
func dialAndRun(ctx context.Context, addr string, plan *senderPlan, ctl net.Conn, opts Options) (core.SenderStats, error) {
	conns, err := dialDataFlows(addr, len(plan.snds), opts)
	if err != nil {
		writeAbort(ctl, plan.base, wire.AbortUnspecified)
		plan.finish(err)
		return plan.stats(), err
	}
	defer closeAll(conns)
	return runSenderPlan(ctx, plan, conns, ctl, opts)
}

// completeDedupedSend finishes a transfer whose CHECK query hit: every
// stripe is marked fully restored (so the stats conservation laws read
// "nothing sent, everything excused", exactly like a resume that had
// nothing left), and the receiver's COMPLETE is awaited and verified as
// usual. End-to-end integrity holds on this path too: the receiver holds the
// bytes under the 256-bit identity this end computed from its own, and the
// COMPLETE echoes that identity's tag.
func completeDedupedSend(plan *senderPlan, ctl net.Conn) (core.SenderStats, error) {
	plan.event(obs.KindCheck, 1)
	total := 0
	for i, snd := range plan.snds {
		n := snd.NumPackets()
		if _, err := snd.Restore(fullWords(n)); err != nil {
			plan.finish(err)
			return plan.stats(), err
		}
		plan.probes[i].restored(n)
		total += n
	}
	plan.event(obs.KindSkip, uint64(total))
	err := readCompletion(ctl, plan)
	plan.finish(err)
	st := plan.stats()
	st.Deduped = err == nil
	return st, err
}

// dialHandshake establishes the control connection and completes the
// handshake — the optional TRACE prelude plus the announcement, pipelined in
// one write, then the answers back — retrying with exponential backoff on
// connection errors and timeouts. An ABORT from the receiver (e.g. a
// duplicate transfer id) is final and never retried, with one exception: a
// peer that rejects a traced announcement outright (bad-hello or
// unsupported) is treated as not speaking TRACE, and the handshake goes on
// untraced, restoring the attempt the refusal consumed. A peer that refuses
// the untraced announcement refuses its CHECK, which every announcement
// carries: the transfer fails with ErrVerifyUnsupported. A peer that hangs up
// instead of ABORTing (an old Listener fails its announcement parse and
// closes the connection) also loses the TRACE prelude on the retry, so it
// can never wedge a transfer the untraced announcement would have opened.
//
// The returned answer's HAVE is the CHECK's verdict; when it covers all
// packets the receiver already holds the object and the caller must await
// COMPLETE instead of running the data phase (no HELLO-ACK was read then,
// since none comes).
func dialHandshake(ctx context.Context, addr string, prelude, announcement []byte, transfer uint32, packets int, opts Options) (net.Conn, answer, error) {
	frame := append(prelude, announcement...)
	var lastErr error
	backoff := opts.HandshakeBackoff
	for attempt := 0; attempt < opts.HandshakeRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, answer{}, fmt.Errorf("udprt: handshake: %w", ctx.Err())
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		ctl, ans, err := attemptHandshake(ctx, addr, frame, transfer, packets, opts)
		if err == nil {
			return ctl, ans, nil
		}
		traced := len(frame) > len(announcement)
		var abort *AbortError
		if errors.As(err, &abort) {
			if abort.Reason != wire.AbortBadHello && abort.Reason != wire.AbortUnsupported {
				return nil, answer{}, err
			}
			if !traced {
				return nil, answer{}, fmt.Errorf("%w: peer answered %s", ErrVerifyUnsupported, abort.Reason)
			}
			// The peer refused the announcement itself — exactly how a
			// TRACE-unaware (or version-rejecting) receiver presents. Drop
			// the prelude and try again with the full retry budget.
			frame, lastErr = announcement, err
			attempt--
			continue
		}
		if ctx.Err() != nil {
			return nil, answer{}, err
		}
		// Connection-level failure: could be transient, could be an old
		// peer hanging up on an unknown frame. The retry goes without the
		// TRACE prelude so the two causes converge on a working transfer.
		frame, lastErr = announcement, err
	}
	return nil, answer{}, fmt.Errorf("udprt: handshake failed after %d attempts: %w",
		opts.HandshakeRetries, lastErr)
}

// attemptHandshake dials one control connection and runs the announcement
// exchange on it.
func attemptHandshake(ctx context.Context, addr string, frame []byte, transfer uint32, packets int, opts Options) (net.Conn, answer, error) {
	var d net.Dialer
	ctl, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, answer{}, fmt.Errorf("udprt: dial control: %w", err)
	}
	ans, err := exchange(ctx, ctl, frame, transfer, packets, opts.HandshakeTimeout)
	if err != nil {
		ctl.Close()
		return nil, answer{}, err
	}
	return ctl, ans, nil
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
