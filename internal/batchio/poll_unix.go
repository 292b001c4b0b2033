//go:build unix

package batchio

import (
	"net"
	"runtime"
	"syscall"
)

// ReadBuffer returns the receive buffer the kernel granted conn, in the units
// SetReadBuffer takes, or zero when it will not say. A request above the
// system's limit (net.core.rmem_max on Linux) is cut down to it without an
// error, so what was asked for says nothing about what the socket can hold.
// Linux reports twice what it granted, bookkeeping included.
func ReadBuffer(conn *net.UDPConn) int {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0
	}
	n := 0
	rc.Control(func(fd uintptr) {
		n, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	if runtime.GOOS == "linux" {
		n /= 2
	}
	return n
}

// pollDatagram performs one genuinely non-blocking read on the UDP socket:
// it returns a buffered datagram if one is queued and (0, false) otherwise,
// never waiting. Go's deadline mechanism cannot express this — a deadline
// already in the past fails without attempting the read — so the poll goes
// through the raw descriptor with MSG_DONTWAIT.
//
// This is the scalar fallback behind Receiver.TryRecv: the paper's
// select()-guarded "look for, but do not block for, an acknowledgement
// packet". (It allocates one sockaddr per datagram via Recvfrom — the
// vectored path, which writes into preallocated sockaddr slots instead, is
// the one that holds the zero-allocation budget.)
//
// A latched socket error the poll consumed (ECONNREFUSED on a connected
// socket) is returned so the caller can account for it; EAGAIN is simply
// "nothing queued".
func pollDatagram(conn *net.UDPConn, buf []byte) (int, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, nil
	}
	n := 0
	var pollErr error
	rc.Read(func(fd uintptr) bool {
		got, _, err := syscall.Recvfrom(int(fd), buf, syscall.MSG_DONTWAIT)
		switch {
		case err == nil && got > 0:
			n = got
		case err != nil && err != syscall.EAGAIN && err != syscall.EWOULDBLOCK:
			pollErr = err
		}
		return true // never let the runtime park us: this is a poll
	})
	return n, pollErr
}
