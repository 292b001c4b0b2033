// Package batchio provides batched datagram IO for the real-network FOBS
// runtime: many datagrams per syscall via Linux sendmmsg/recvmmsg, and many
// datagrams per message via UDP segmentation offload, with a portable
// scalar fallback everywhere else.
//
// The motivation is the same observation the scalability literature makes
// about reliable UDP movers: past a few hundred megabits the bottleneck is
// no longer the window protocol but the per-packet cost — one syscall, one
// header encode, one allocation per datagram. The paper's sender already
// thinks in batches (the batch-send phase places B packets on the wire
// before looking for an acknowledgement), so the B packets of one batch
// map naturally onto the iovec array of one sendmmsg call, and a receiver
// wakeup drains every queued datagram with one recvmmsg.
//
// A longer vector does not make a datagram cheaper, though: the cost is per
// datagram inside the kernel (skb, route, transmit, socket queue, wake-up).
// The unit this package moves is therefore the datagram train: a run of
// equal-length datagrams handed to the kernel as one message with a
// UDP_SEGMENT control message, which crosses the stack as one buffer and is
// cut into datagrams only where it leaves it — at the device, or at a
// receiving socket that did not ask for trains. A Receiver whose slots can
// hold a whole train sets UDP_GRO and takes trains uncut, splitting them
// itself. See trainLen for the grouping rule; a train of one is a plain
// datagram.
//
// Both directions are allocation-free in steady state: the caller encodes
// into a ring of pre-sized buffers it owns — on the send side only headers,
// when it gathers each datagram from a header and a payload that stays where
// it lies (SendGather) — and Sender/Receiver keep their iovec/msghdr/sockaddr
// arrays (and the closures handed to the raw connection) alive across calls.
//
// Fast-path availability is a build-time property (vectoredSupported, set
// by the mmsg_* files); callers can additionally force the scalar path at
// runtime, which is how the equivalence suite runs both implementations in
// one binary on one kernel.
//
// Both directions tally their syscall and batch-fill counts (Counters);
// the udprt drivers fold those tallies into per-transfer
// internal/metrics records when a transfer's IO loop ends, so a snapshot
// shows packets-per-syscall amortization next to the protocol counters.
package batchio

import (
	"errors"
	"net"
	"net/netip"
	"syscall"

	"github.com/hpcnet/fobs/internal/stats"
)

// ErrSendFault reports that at least one datagram of a vectored flush
// tripped a latched socket error (on a connected socket, typically the
// asynchronous ECONNREFUSED of an earlier send). sendmmsg reports such a
// datagram as a short count with no errno — and the failed attempt clears
// the latch, so the underlying errno is unrecoverable. The rest of the
// vector was still sent; callers should treat the error as evidence of a
// failing peer, not of lost data beyond what the protocol already
// tolerates.
var ErrSendFault = errors.New("batchio: vectored send consumed a latched socket error")

// FastPathAvailable reports whether this build can use the vectored
// sendmmsg/recvmmsg path at all (Linux on a supported architecture).
func FastPathAvailable() bool { return vectoredSupported }

// The kernel's limits on one train: UDP_MAX_SEGMENTS datagrams, and the
// largest UDP payload an IPv4 packet can carry.
const (
	maxTrainSegs  = 64
	maxTrainBytes = 65507
)

// TrainBufLen is the slot size from which a vectored Receiver takes whole
// trains (UDP_GRO): a train arrives as one message of up to 64 KiB, and a
// shorter slot would truncate it.
const TrainBufLen = 64 << 10

// maxMessage is the most a slot is read up to: no UDP message is longer, and
// offsets into a slot then fit a segment's sixteen bits.
const maxMessage = 1<<16 - 1

// Sender batches outbound datagrams on a connected UDP socket.
type Sender struct {
	conn     *net.UDPConn
	rc       syscall.RawConn
	vectored bool

	// Vectored-call state, sized to the construction-time batch capacity
	// and reused for every flush (see mmsg_linux.go).
	vs vecSendState
	// joined is the scalar path's one datagram of a gathered flush, grown
	// to the longest datagram and reused.
	joined []byte

	// FlushHook, when non-nil, observes every flush: k datagrams handed
	// in, m actually accepted by the kernel. Tests use it to assert the
	// batch policy's sizes reach the wire as real vector lengths.
	FlushHook func(k, m int)

	calls    int
	sent     int
	trains   int
	maxBatch int
}

// NewSender wraps conn (which must be connected, e.g. via DialUDP) for
// batched sends of up to batch datagrams per call. vectored requests the
// sendmmsg fast path; it is silently degraded to scalar writes when the
// build does not support it.
func NewSender(conn *net.UDPConn, batch int, vectored bool) (*Sender, error) {
	if batch < 1 {
		batch = 1
	}
	s := &Sender{conn: conn, vectored: vectored && vectoredSupported}
	if s.vectored {
		rc, err := conn.SyscallConn()
		if err != nil {
			// The socket cannot hand out its descriptor; fall back.
			s.vectored = false
		} else {
			s.rc = rc
			s.vs.init(batch)
		}
	}
	return s, nil
}

// Vectored reports whether this sender actually uses sendmmsg.
func (s *Sender) Vectored() bool { return s.vectored }

// Send places pkts on the wire, each slice one datagram, and returns how
// many the kernel accepted. On the fast path the whole slice goes out as
// one sendmmsg vector of trains (parking on the netpoller across
// backpressure, so a full count is the norm; a full count with ErrSendFault
// means the vector went out but consumed a latched socket error on the
// way). Slots of equal length share a train, so a caller that wants trains
// hands over equal-length datagrams side by side. On the scalar
// path a short count carries the error that stopped the prefix. Unsent
// packets are simply not sent — to a loss-tolerant protocol that is
// indistinguishable from network loss.
func (s *Sender) Send(pkts [][]byte) (int, error) { return s.send(pkts, nil) }

// SendGather is Send for datagrams in two parts: datagram i is heads[i]
// followed by bodies[i] (bodies is as long as heads), which is how a sender
// frames a packet whose payload stays where it lies in the object — a small
// header of its own, then a slice of the object. On the fast path the kernel
// gathers the parts (two iovecs per datagram, in the same trains Send packs,
// grouped by whole-datagram length), so the payload is read once, by the
// kernel. The scalar path has no gather write: it joins each datagram in one
// reusable buffer of the Sender's before writing it.
func (s *Sender) SendGather(heads, bodies [][]byte) (int, error) {
	return s.send(heads, bodies[:len(heads)])
}

// send is Send and SendGather: bodies is nil for datagrams in one part.
func (s *Sender) send(heads, bodies [][]byte) (int, error) {
	if len(heads) == 0 {
		return 0, nil
	}
	var (
		m     int
		sys   int
		batch int // largest vector handed to one syscall
		err   error
	)
	if s.vectored && len(heads) <= s.vs.cap() {
		m, err = s.sendVectored(heads, bodies)
		sys, batch = s.vs.nsys, len(heads)
	} else {
		m, err = s.sendScalar(heads, bodies)
		sys = m
		if err != nil {
			sys++ // the failing write was a syscall too
		}
		if sys > 0 {
			batch = 1 // scalar writes carry one datagram each
		}
	}
	s.calls += sys
	s.sent += m
	if batch > s.maxBatch {
		s.maxBatch = batch
	}
	if s.FlushHook != nil {
		s.FlushHook(len(heads), m)
	}
	return m, err
}

// sendScalar is the portable path: one write per datagram, stopping at the
// first failure. The accepted prefix is returned together with the error
// that stopped it — swallowing a mid-prefix error would lose it for good,
// because the failing write already consumed any latched socket error.
func (s *Sender) sendScalar(heads, bodies [][]byte) (int, error) {
	for i, p := range heads {
		if bodies != nil {
			s.joined = append(append(s.joined[:0], p...), bodies[i]...)
			p = s.joined
		}
		if _, err := s.conn.Write(p); err != nil {
			return i, err
		}
	}
	return len(heads), nil
}

// Counters reports the syscall and batch-fill tallies so far.
func (s *Sender) Counters() stats.IOCounters {
	return stats.IOCounters{
		SendCalls:     s.calls,
		SentDatagrams: s.sent,
		SendTrains:    s.trains,
		MaxSendBatch:  s.maxBatch,
		FastPath:      s.vectored,
	}
}

// Receiver drains inbound datagrams from a UDP socket in batches. Each of
// the slots buffers holds one message of up to bufSize bytes — one datagram,
// or on a socket that takes trains a train of them; Recv and TryRecv report
// how many datagrams they delivered, and Datagram/Addr expose them until
// the next call overwrites them.
type Receiver struct {
	conn     *net.UDPConn
	rc       syscall.RawConn
	vectored bool
	// trains is set when the socket has UDP_GRO on: a message may then carry
	// several datagrams.
	trains bool
	// drops is the kernel's count of what the socket dropped for want of
	// buffer, as of the latest message that carried one (SO_RXQ_OVFL).
	drops uint32

	bufs  [][]byte
	addrs []netip.AddrPort // per slot: the source of its message
	segs  []segment        // the datagrams of the most recent drain

	// Vectored-call state (see mmsg_linux.go).
	vr vecRecvState

	calls    int
	recvd    int
	ntrains  int
	overflow int
	maxBatch int
}

// segment is one datagram of a drain: a window into the slot of the message
// that carried it — the whole message, unless that was a train.
type segment struct {
	slot, off, n uint16
}

// NewReceiver prepares a receiver with the given number of slots, each
// bufSize bytes. vectored requests the recvmmsg fast path; unsupported
// builds silently degrade to one-datagram reads. A vectored receiver whose
// slots hold TrainBufLen bytes is the reader of a data socket: it asks the
// socket for whole trains (UDP_GRO, for the life of the socket — so every
// later reader of it must be a Receiver of this kind) and may then deliver up
// to 64 datagrams per slot, and for the count of what the socket drops when
// its buffer is full (SO_RXQ_OVFL, reported as Counters().RecvOverflow); a
// kernel that refuses either option leaves it without that one. No slot is
// read past 65535 bytes, which no UDP message exceeds.
func NewReceiver(conn *net.UDPConn, slots, bufSize int, vectored bool) (*Receiver, error) {
	r := &Receiver{conn: conn}
	if vectored && vectoredSupported {
		// A socket that cannot hand out its descriptor falls back.
		if rc, err := conn.SyscallConn(); err == nil {
			r.rc, r.vectored = rc, true
		}
	}
	if slots < 1 || !r.vectored {
		slots = 1 // a scalar read fills one slot
	}
	counted := false
	if r.vectored && bufSize >= TrainBufLen {
		r.trains, counted = setDataSockopts(r.rc)
	}
	bufSize = min(bufSize, maxMessage)
	r.bufs = make([][]byte, slots)
	r.addrs = make([]netip.AddrPort, slots)
	for i := range r.bufs {
		r.bufs[i] = make([]byte, bufSize)
	}
	if r.trains {
		r.segs = make([]segment, 0, slots*maxTrainSegs)
	} else {
		r.segs = make([]segment, 0, slots)
	}
	if r.vectored {
		r.vr.init(r.bufs, r.trains || counted)
	}
	return r, nil
}

// Vectored reports whether this receiver actually uses recvmmsg.
func (r *Receiver) Vectored() bool { return r.vectored }

// Slots returns the receiver's message capacity per drain.
func (r *Receiver) Slots() int { return len(r.bufs) }

// Datagram returns the i-th datagram of the most recent Recv/TryRecv. The
// slice aliases the receiver's buffer ring and is valid until the next
// receive call.
func (r *Receiver) Datagram(i int) []byte {
	s := r.segs[i]
	return r.bufs[s.slot][s.off:][:s.n]
}

// Addr returns the source address of the i-th datagram of the most recent
// Recv. TryRecv does not resolve source addresses on every path; it is
// meant for connected sockets, where the peer is already known.
func (r *Receiver) Addr(i int) netip.AddrPort { return r.addrs[r.segs[i].slot] }

// Recv blocks until at least one datagram is available (honouring the
// connection's read deadline) and then drains up to Slots() messages
// without further blocking. It returns the number of datagrams delivered.
func (r *Receiver) Recv() (int, error) {
	var (
		n   int
		sys int
		err error
	)
	if r.vectored {
		n, err = r.recvVectored()
		sys = r.vr.nsys
	} else {
		n, err = r.recvScalar()
		sys = 1
	}
	r.note(n, sys)
	return n, err
}

// recvScalar is the portable blocking path: exactly one datagram per call.
func (r *Receiver) recvScalar() (int, error) {
	n, from, err := r.conn.ReadFromUDPAddrPort(r.bufs[0])
	if err != nil {
		return 0, err
	}
	r.segs = append(r.segs[:0], segment{n: uint16(n)})
	r.addrs[0] = from
	return 1, nil
}

// TryRecv performs one genuinely non-blocking drain: whatever messages
// are already queued (up to Slots()) are returned immediately, and zero
// means nothing was buffered. It never waits — this is the paper's
// select()-guarded "look for, but do not block for, an acknowledgement
// packet", widened to a whole queue per syscall.
//
// A non-nil error is a latched socket error the poll consumed (on a
// connected socket, typically the asynchronous ECONNREFUSED of an earlier
// send). Callers that poll a send socket should fold it into their
// write-error accounting: a vectored sender can otherwise never see the
// failure, because sendmmsg reports a datagram that trips the error as a
// short count with no errno, and the next poll would silently clear it.
func (r *Receiver) TryRecv() (int, error) {
	var (
		n   int
		sys int
		err error
	)
	if r.vectored {
		n, err = r.tryRecvVectored()
		sys = r.vr.nsys
	} else {
		n, err = r.tryRecvScalar()
		sys = 1
	}
	r.note(n, sys)
	return n, err
}

// tryRecvScalar polls for a single buffered datagram (see poll_unix.go and
// poll_other.go for the per-platform trick).
func (r *Receiver) tryRecvScalar() (int, error) {
	n, err := pollDatagram(r.conn, r.bufs[0])
	if err != nil || n == 0 {
		return 0, err
	}
	r.segs = append(r.segs[:0], segment{n: uint16(n)})
	return 1, nil
}

func (r *Receiver) note(n, sys int) {
	r.calls += sys
	r.recvd += n
	if n > r.maxBatch {
		r.maxBatch = n
	}
}

// Counters reports the syscall and batch-fill tallies since the receiver
// was made or last reset.
func (r *Receiver) Counters() stats.IOCounters {
	return stats.IOCounters{
		RecvCalls:     r.calls,
		RecvDatagrams: r.recvd,
		RecvTrains:    r.ntrains,
		RecvOverflow:  r.overflow,
		MaxRecvBatch:  r.maxBatch,
		FastPath:      r.vectored,
	}
}

// ResetCounters zeroes the tallies, so that a receiver which outlives one
// transfer can report each transfer's own.
func (r *Receiver) ResetCounters() {
	r.calls, r.recvd, r.ntrains, r.overflow, r.maxBatch = 0, 0, 0, 0, 0
}
