//go:build linux && (amd64 || arm64 || riscv64 || loong64)

package batchio

import (
	"bytes"
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// Gathered datagrams: SendGather's [header, payload] pairs must be the very
// datagrams Send puts on the wire for the same bytes laid out contiguously —
// packed into the same trains, cut at the same places, refused and latched
// the same way — on both IO paths.

// gatherHeadLen is where the pairs are cut: a DATA header's length.
const gatherHeadLen = 22

// split cuts each datagram into a head of at most gatherHeadLen bytes and
// the rest, both aliasing pkts.
func split(pkts [][]byte) (heads, bodies [][]byte) {
	heads, bodies = make([][]byte, len(pkts)), make([][]byte, len(pkts))
	for i, p := range pkts {
		h := min(gatherHeadLen, len(p))
		heads[i], bodies[i] = p[:h], p[h:]
	}
	return heads, bodies
}

// refuseTrains turns checksums off on snd, which the kernel will not
// segment for.
func refuseTrains(t *testing.T, snd *net.UDPConn) {
	t.Helper()
	rc, err := snd.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	rc.Control(func(fd uintptr) { serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1) })
	if serr != nil {
		t.Skipf("SO_NO_CHECK: %v", serr)
	}
}

var gatherCases = []struct {
	name   string
	lens   []int
	refuse bool // the kernel refuses the first train: the limit latches to one
}{
	{"equal-length-trains", repeat(1046, 70), false},
	{"short-last-closes-a-train", append(repeat(1046, 9), 300), false},
	{"train-hits-max-bytes", repeat(8214, 9), false},
	{"refused-train-falls-back", append(repeat(500, 6), 100), true},
}

// TestGatherPacksTheSameTrains: packed for sendmmsg, the pairs make the same
// messages as the contiguous datagrams — the same datagram count and the
// same UDP_SEGMENT size each — over two iovecs per datagram.
func TestGatherPacksTheSameTrains(t *testing.T) {
	for _, tc := range gatherCases {
		t.Run(tc.name, func(t *testing.T) {
			pkts := sizedPackets(tc.lens...)
			heads, bodies := split(pkts)
			var one, two vecSendState
			one.init(len(pkts))
			two.init(len(pkts))
			m := one.pack(pkts, nil)
			if got := two.pack(heads, bodies); got != m {
				t.Fatalf("gathered: %d messages, contiguous: %d", got, m)
			}
			for i := 0; i < m; i++ {
				a, b := &one.hdrs[i].hdr, &two.hdrs[i].hdr
				if one.datagrams(i) != two.datagrams(i) || b.Iovlen != 2*a.Iovlen {
					t.Fatalf("message %d: %d datagrams over %d iovecs gathered, %d over %d contiguous",
						i, two.datagrams(i), b.Iovlen, one.datagrams(i), a.Iovlen)
				}
				if (a.Control == nil) != (b.Control == nil) ||
					a.Control != nil && (*segmentCmsg)(unsafe.Pointer(a.Control)).size != (*segmentCmsg)(unsafe.Pointer(b.Control)).size {
					t.Fatalf("message %d: the gathered train is cut at another size", i)
				}
			}
		})
	}
}

// TestGatherSendsTheSameDatagrams: on the wire, each case's datagrams arrive
// byte-identical whether sent contiguous or gathered, on both paths, and the
// two senders count the same trains and syscalls.
func TestGatherSendsTheSameDatagrams(t *testing.T) {
	eachPath(t, func(t *testing.T, vectored bool) {
		for _, tc := range gatherCases {
			t.Run(tc.name, func(t *testing.T) {
				if vectored {
					needGSO(t)
				}
				snd, rcv := udpPair(t)
				if tc.refuse {
					refuseTrains(t, snd)
				}
				snd.SetWriteBuffer(4 << 20)
				rcv.SetReadBuffer(4 << 20)
				pkts := sizedPackets(tc.lens...)
				heads, bodies := split(pkts)
				rx, _ := NewReceiver(rcv, len(pkts), 9000, vectored)
				var arrived [2][][]byte
				var senders [2]*Sender
				for form := range senders {
					tx, _ := NewSender(snd, len(pkts), vectored)
					send := func() (int, error) { return tx.Send(pkts) }
					if form == 1 {
						send = func() (int, error) { return tx.SendGather(heads, bodies) }
					}
					if m, err := send(); m != len(pkts) || err != nil {
						t.Fatalf("form %d: sent %d of %d: %v", form, m, len(pkts), err)
					}
					rcv.SetReadDeadline(time.Now().Add(5 * time.Second))
					for len(arrived[form]) < len(pkts) {
						n, err := rx.Recv()
						if err != nil {
							t.Fatalf("form %d: Recv after %d datagrams: %v", form, len(arrived[form]), err)
						}
						for i := 0; i < n; i++ {
							arrived[form] = append(arrived[form], bytes.Clone(rx.Datagram(i)))
						}
					}
					senders[form] = tx
				}
				for i, p := range pkts {
					if !bytes.Equal(arrived[0][i], p) || !bytes.Equal(arrived[1][i], p) {
						t.Fatalf("datagram %d: contiguous equal=%v, gathered equal=%v",
							i, bytes.Equal(arrived[0][i], p), bytes.Equal(arrived[1][i], p))
					}
				}
				if a, b := senders[0].Counters(), senders[1].Counters(); a != b {
					t.Fatalf("counters differ: contiguous %+v, gathered %+v", a, b)
				}
				if vectored && tc.refuse && senders[1].vs.maxSeg != 1 {
					t.Skip("this kernel segments with checksums off: no refusal to fall back from")
				}
				if vectored && !tc.refuse && senders[1].Counters().SendTrains == 0 {
					t.Fatal("no train left: the case did not exercise train packing")
				}
			})
		}
	})
}

// TestGatherZeroAllocSteadyState: a gathered flush allocates nothing, on
// either path — the scalar path's joining buffer is grown once.
func TestGatherZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eachPath(t, func(t *testing.T, vectored bool) {
		snd, rcv := udpPair(t)
		snd.SetWriteBuffer(4 << 20)
		rcv.SetReadBuffer(4 << 20)
		tx, _ := NewSender(snd, 32, vectored)
		heads, bodies := split(sizedPackets(repeat(1046, 32)...))
		stop, drained := make(chan struct{}), make(chan struct{})
		go func() { // keep the socket writable; its allocations are not measured
			defer close(drained)
			buf := make([]byte, 2048)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rcv.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
				rcv.Read(buf)
			}
		}()
		defer func() { close(stop); <-drained }()
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := tx.SendGather(heads, bodies); err != nil {
				t.Fatalf("SendGather: %v", err)
			}
		}); allocs > 0 {
			t.Errorf("a gathered flush allocates %.1f times, want 0", allocs)
		}
	})
}
