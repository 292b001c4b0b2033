//go:build !linux || !(amd64 || arm64 || riscv64 || loong64)

package batchio

import "syscall"

// Builds without sendmmsg/recvmmsg: the vectored entry points are never
// reached (vectoredSupported gates them off in the constructors), but the
// method set must exist, so each one defers to its scalar sibling. There
// are no trains either: every message is one datagram.

const vectoredSupported = false

type vecSendState struct {
	nsys int // always zero: no vectored syscalls on this platform
}

func (v *vecSendState) init(int) {}

func (v *vecSendState) cap() int { return 0 }

func (s *Sender) sendVectored(heads, bodies [][]byte) (int, error) {
	return s.sendScalar(heads, bodies)
}

type vecRecvState struct {
	nsys int // always zero: no vectored syscalls on this platform
}

func setDataSockopts(syscall.RawConn) (trains, drops bool) { return false, false }

func (v *vecRecvState) init([][]byte, bool) {}

func (r *Receiver) recvVectored() (int, error) { return r.recvScalar() }

func (r *Receiver) tryRecvVectored() (int, error) { return r.tryRecvScalar() }
