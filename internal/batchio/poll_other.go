//go:build !unix

package batchio

import (
	"errors"
	"net"
	"time"
)

// ReadBuffer would return the receive buffer the kernel granted conn; there
// is no portable way to ask, and zero says so.
func ReadBuffer(*net.UDPConn) int { return 0 }

// pollDatagram approximates a non-blocking read on platforms without
// MSG_DONTWAIT semantics through the raw connection: a deadline one
// microsecond ahead returns immediately when a datagram is buffered and
// after a very short wait otherwise.
// Timeouts mean "nothing queued"; any other consumed error is reported.
func pollDatagram(conn *net.UDPConn, buf []byte) (int, error) {
	conn.SetReadDeadline(time.Now().Add(time.Microsecond))
	defer conn.SetReadDeadline(time.Time{})
	n, err := conn.Read(buf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return 0, nil
		}
		return 0, err
	}
	return n, nil
}
