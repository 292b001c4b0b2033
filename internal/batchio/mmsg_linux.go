//go:build linux && (amd64 || arm64 || riscv64 || loong64)

package batchio

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// The vectored fast path: sendmmsg(2)/recvmmsg(2) through the raw
// descriptor. The syscall numbers and the mmsghdr ABI are per-architecture,
// so this file is gated to the 64-bit Linux targets whose frozen stdlib
// syscall tables carry SYS_SENDMMSG/SYS_RECVMMSG; everywhere else the
// scalar fallback in batchio.go is the only path.

const vectoredSupported = true

// The UDP segmentation socket options (include/uapi/linux/udp.h), which are
// also the types of their control messages; both live at level IPPROTO_UDP.
// The frozen stdlib syscall tables predate them.
const (
	solUDP     = 17
	udpSegment = 103 // send: cut this message into datagrams of the given size
	udpGRO     = 104 // receive: deliver trains uncut, with the datagram size
)

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the kernel's
// per-message byte count. Go pads the struct tail to pointer alignment
// exactly as C does, so a []mmsghdr has the kernel's array stride.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// segmentCmsg is one UDP_SEGMENT control message as the kernel reads it:
// CMSG_SPACE(sizeof(uint16)) bytes, header first.
type segmentCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// vecSendState is the reusable guts of one vectored flush: header, iovec
// and control arrays sized once, and a closure created once (a fresh closure
// per flush would allocate on every batch). Inputs and outputs travel
// through fields because the raw-connection API offers the closure no other
// channel.
type vecSendState struct {
	hdrs []mmsghdr
	iovs []syscall.Iovec // parts per datagram: one, or two for a gathered flush
	lens []int           // per datagram of a flush: its length, all parts together
	ctl  []segmentCmsg   // one per train of a flush: at most every second datagram starts one
	// parts is the iovecs per datagram of the flush being packed.
	parts int
	// maxSeg is the per-train datagram limit: maxTrainSegs until the kernel
	// refuses a train on this socket, 1 (every message a plain datagram)
	// from then on.
	maxSeg int
	k      int // in: messages in this flush
	off    int // progress: messages accepted so far (survives parking)
	short  int // out: consumed latched-error events (see fn)
	nsys   int // out: sendmmsg syscalls issued for this flush
	// pendingShort marks a mid-vector stop whose cause is not yet known:
	// the next syscall's outcome classifies it (EAGAIN → backpressure,
	// progress → consumed socket error).
	pendingShort bool
	errno        syscall.Errno
	fn           func(fd uintptr) bool
}

func (v *vecSendState) init(batch int) {
	v.hdrs = make([]mmsghdr, batch)
	v.iovs = make([]syscall.Iovec, 2*batch)
	v.lens = make([]int, batch)
	v.ctl = make([]segmentCmsg, (batch+1)/2)
	v.maxSeg = maxTrainSegs
	for i := range v.ctl {
		c := &v.ctl[i].hdr
		c.Level, c.Type = solUDP, udpSegment
		c.SetLen(syscall.CmsgLen(2))
	}
	// One flush may take several sendmmsg calls. The kernel stops a vector
	// at the first message whose send fails, returns the accepted prefix
	// as a short count, and discards the errno that stopped it — and when
	// that errno was a latched asynchronous error (ECONNREFUSED delivered
	// by ICMP after an earlier send), the failed attempt also CLEARS it, so
	// no later syscall on the socket will ever report it. A short count is
	// therefore the only observable trace of a dead peer on this path.
	//
	// Short counts are ambiguous, though: a full socket buffer stops the
	// vector the same way (the EAGAIN is equally discarded). The retry
	// disambiguates. After a stop, the loop re-submits the remainder: if
	// the first message immediately hits EAGAIN the stop was backpressure
	// (park on the netpoller, resume when writable); if the retry makes
	// progress, the stopped message had tripped a consumed socket error —
	// count it, so the caller can fold it into failure accounting; if it
	// fails with an errno of its own (a train the kernel will not cut),
	// that errno is the cause and sendVectored deals with it.
	v.fn = func(fd uintptr) bool {
		for {
			v.nsys++
			n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&v.hdrs[v.off])), uintptr(v.k-v.off), 0, 0, 0)
			switch {
			case errno == syscall.EAGAIN:
				v.pendingShort = false // the stop was backpressure after all
				return false           // park until the socket is writable again
			case errno != 0:
				v.errno = errno
				return true
			}
			if v.pendingShort {
				v.short++
				v.pendingShort = false
			}
			if n == 0 {
				// No progress, no errno: not a documented sendmmsg outcome;
				// bail rather than spin.
				v.errno = syscall.EIO
				return true
			}
			v.off += int(n)
			if v.off >= v.k {
				return true
			}
			v.pendingShort = true
		}
	}
}

func (v *vecSendState) cap() int { return len(v.hdrs) }

// trainLen returns how many leading datagrams, of the lengths given, leave
// as one message: a maximal run of equal-length datagrams, which one shorter
// datagram may close (the kernel cuts a train every size bytes, so only its
// last datagram can be short), of at most maxSeg datagrams and maxTrainBytes
// bytes. An empty datagram always travels alone: appended to a train it
// would add no bytes and vanish.
func trainLen(lens []int, maxSeg int) int {
	size := lens[0]
	if size == 0 {
		return 1
	}
	n, total := 1, size
	for n < len(lens) && n < maxSeg {
		l := lens[n]
		if l == 0 || l > size || total+l > maxTrainBytes {
			break
		}
		n++
		total += l
		if l < size {
			break
		}
	}
	return n
}

// pack points the iovecs at the datagrams — heads alone, or each head and
// its body side by side when bodies is not nil — and groups them into
// messages by trainLen, returning the message count. A train is one msghdr
// over its datagrams' consecutive iovecs (the kernel gathers them into one
// buffer and cuts it by size, wherever the iovecs end) plus the UDP_SEGMENT
// control message naming that size; a train of one is a plain datagram and
// carries none.
func (v *vecSendState) pack(heads, bodies [][]byte) int {
	v.parts = 1
	if bodies != nil {
		v.parts = 2
	}
	lens := v.lens[:len(heads)]
	for i, p := range heads {
		j := i * v.parts
		setIovec(&v.iovs[j], p)
		lens[i] = len(p)
		if bodies != nil {
			setIovec(&v.iovs[j+1], bodies[i])
			lens[i] += len(bodies[i])
		}
	}
	m, trains := 0, 0
	for i := 0; i < len(lens); m++ {
		n := trainLen(lens[i:], v.maxSeg)
		h := &v.hdrs[m].hdr
		h.Iov, h.Iovlen = &v.iovs[i*v.parts], uint64(n*v.parts)
		if n > 1 {
			c := &v.ctl[trains]
			trains++
			c.size = uint16(lens[i])
			h.Control = (*byte)(unsafe.Pointer(c))
			h.SetControllen(int(unsafe.Sizeof(*c)))
		} else {
			h.Control = nil
			h.SetControllen(0)
		}
		i += n
	}
	return m
}

// setIovec points iov at p.
func setIovec(iov *syscall.Iovec, p []byte) {
	if len(p) > 0 {
		iov.Base = &p[0]
	} else {
		iov.Base = nil
	}
	iov.SetLen(len(p))
}

// datagrams returns how many datagrams message i of the packed flush carries.
func (v *vecSendState) datagrams(i int) int { return int(v.hdrs[i].hdr.Iovlen) / v.parts }

// sendVectored flushes the datagrams as one sendmmsg vector of trains,
// retrying past mid-vector stops, so on return every datagram has been
// handed to the kernel except those that tripped a socket error. A non-nil ErrSendFault
// with a full count means the kernel accepted the vector but consumed at
// least one latched socket error along the way.
//
// The kernel refuses a train it cannot cut — a datagram size beyond the
// path MTU (segments are never IP-fragmented; a plain datagram of that size
// is), a device without the checksum offload segmentation needs, a socket
// with checksums off, a kernel without UDP_SEGMENT — with one of the errnos
// trainRefused lists, and will refuse the next one too. The first such
// refusal sets the per-train limit to one for the life of this Sender, and
// the datagrams not yet accepted go out again in the same call, plain:
// nothing is lost and nothing is sent twice, because a refused message
// sends none of its datagrams. Any other errno is the socket's own (a dead
// peer, a full device queue), which a plain datagram would have met too.
func (s *Sender) sendVectored(heads, bodies [][]byte) (int, error) {
	v := &s.vs
	v.short, v.nsys = 0, 0
	sent := 0
	for {
		rest := bodies
		if bodies != nil {
			rest = bodies[sent:]
		}
		v.k, v.off, v.pendingShort, v.errno = v.pack(heads[sent:], rest), 0, false, 0
		err := s.rc.Write(v.fn)
		for i := range v.hdrs[:v.off] {
			n := v.datagrams(i)
			sent += n
			if n > 1 {
				s.trains++
			}
		}
		switch {
		case err != nil:
			return sent, err
		case trainRefused(v.errno) && v.datagrams(v.off) > 1:
			v.maxSeg = 1
		case v.errno != 0:
			return sent, v.errno
		case v.short > 0:
			return sent, ErrSendFault
		default:
			return sent, nil
		}
	}
}

// trainRefused reports whether errno, returned for a message that is a
// train, says the kernel will not segment on this socket or path: EMSGSIZE
// (EINVAL before Linux 6.x) for a datagram size beyond the path MTU, EINVAL
// for checksums off or a malformed request, EIO for a device or transform
// that cannot take the offload, EOPNOTSUPP for a socket type without it.
func trainRefused(errno syscall.Errno) bool {
	switch errno {
	case syscall.EMSGSIZE, syscall.EINVAL, syscall.EIO, syscall.EOPNOTSUPP:
		return true
	}
	return false
}

// recvCmsgs is a slot's control room: a receiving data socket gets at most
// two control messages per message, each CMSG_SPACE(sizeof(int)) bytes with a
// 32-bit payload — the drop count of SO_RXQ_OVFL, then the datagram size of
// UDP_GRO.
type recvCmsgs [2]struct {
	hdr syscall.Cmsghdr
	val uint32
	_   [4]byte
}

// vecRecvState is the reusable guts of one recvmmsg call. Buffers are
// pinned into the iovecs at init; only the name and control lengths (which
// the kernel overwrites with what it actually wrote) are reset per call.
type vecRecvState struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
	ctl   []recvCmsgs // per-slot control room; nil unless the socket takes trains or counts drops
	block bool        // in: park on EAGAIN (Recv) or report empty (TryRecv)
	n     int         // out: messages received
	nsys  int         // out: recvmmsg syscalls issued for this drain
	errno syscall.Errno
	fn    func(fd uintptr) bool
}

// setDataSockopts asks a data socket to deliver trains uncut (UDP_GRO) and to
// attach to what it delivers the count of what it dropped for want of buffer
// (SO_RXQ_OVFL), reporting which of the two the kernel granted.
func setDataSockopts(rc syscall.RawConn) (trains, drops bool) {
	rc.Control(func(fd uintptr) {
		trains = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
		drops = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1) == nil
	})
	return trains, drops
}

func (v *vecRecvState) init(bufs [][]byte, control bool) {
	n := len(bufs)
	v.hdrs = make([]mmsghdr, n)
	v.iovs = make([]syscall.Iovec, n)
	v.names = make([]syscall.RawSockaddrInet6, n)
	if control {
		v.ctl = make([]recvCmsgs, n)
	}
	for i := range v.hdrs {
		v.iovs[i].Base = &bufs[i][0]
		v.iovs[i].SetLen(len(bufs[i]))
		if control {
			v.hdrs[i].hdr.Control = (*byte)(unsafe.Pointer(&v.ctl[i]))
		}
		v.hdrs[i].hdr.Iov = &v.iovs[i]
		v.hdrs[i].hdr.Iovlen = 1
		v.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&v.names[i]))
	}
	v.fn = func(fd uintptr) bool {
		for i := range v.hdrs {
			v.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
			if v.ctl != nil {
				v.hdrs[i].hdr.SetControllen(int(unsafe.Sizeof(v.ctl[i])))
			}
		}
		v.nsys++
		n, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&v.hdrs[0])), uintptr(len(v.hdrs)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if errno == syscall.EAGAIN {
			if v.block {
				return false // park until readable; deadlines still apply
			}
			v.n, v.errno = 0, 0
			return true
		}
		if errno != 0 {
			v.n, v.errno = 0, errno
		} else {
			v.n, v.errno = int(n), 0
		}
		return true
	}
}

// control reads what the kernel attached to message i: the datagram size of
// a train (zero when it attached none: the message is one plain datagram) and
// the socket's drop count as of the message's arrival (zero until the first
// drop).
func (v *vecRecvState) control(i int) (trainSize int, drops uint32) {
	if v.ctl == nil {
		return 0, 0
	}
	// The kernel reports how much of the room it filled, a whole control
	// message at a time.
	msgs := &v.ctl[i]
	filled := int(v.hdrs[i].hdr.Controllen / uint64(unsafe.Sizeof(msgs[0])))
	for j := 0; j < min(filled, len(msgs)); j++ {
		c := &msgs[j]
		switch {
		case c.hdr.Level == solUDP && c.hdr.Type == udpGRO:
			trainSize = int(int32(c.val))
		case c.hdr.Level == syscall.SOL_SOCKET && c.hdr.Type == syscall.SO_RXQ_OVFL:
			drops = c.val
		}
	}
	return trainSize, drops
}

// drainVectored runs one recvmmsg (parking first when block is set) and
// publishes the source address of every filled slot and its datagrams: the
// message itself, or — on a socket that takes trains — its cuts, every size
// bytes, the last one possibly short, all from the message's source.
func (r *Receiver) drainVectored(block bool) (int, error) {
	v := &r.vr
	v.block, v.nsys = block, 0
	r.segs = r.segs[:0]
	if err := r.rc.Read(v.fn); err != nil {
		return 0, err
	}
	if v.errno != 0 {
		return 0, v.errno
	}
	for i := 0; i < v.n; i++ {
		r.addrs[i] = sockaddrToAddrPort(&v.names[i])
		total := int(v.hdrs[i].n)
		size, drops := v.control(i)
		if drops != 0 {
			// The count is the socket's, cumulative and 32 bits wide.
			r.overflow += int(drops - r.drops)
			r.drops = drops
		}
		if size <= 0 || size >= total {
			r.segs = append(r.segs, segment{slot: uint16(i), n: uint16(total)})
			continue
		}
		r.ntrains++
		for off := 0; off < total; off += size {
			r.segs = append(r.segs, segment{slot: uint16(i), off: uint16(off), n: uint16(min(size, total-off))})
		}
	}
	return len(r.segs), nil
}

func (r *Receiver) recvVectored() (int, error) { return r.drainVectored(true) }

func (r *Receiver) tryRecvVectored() (int, error) { return r.drainVectored(false) }

// sockaddrToAddrPort converts a kernel-written raw sockaddr to the value
// type the net package's alloc-free WriteToUDPAddrPort consumes. The port
// bytes sit in network order whatever the host endianness, so they are
// read bytewise.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch rsa.Family {
	case syscall.AF_INET:
		r4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&r4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(r4.Addr),
			uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		p := (*[2]byte)(unsafe.Pointer(&rsa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(rsa.Addr),
			uint16(p[0])<<8|uint16(p[1]))
	default:
		return netip.AddrPort{}
	}
}
