//go:build linux && (amd64 || arm64 || riscv64 || loong64)

package batchio

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// Datagram trains: how Send groups a ring into UDP_SEGMENT messages, how a
// UDP_GRO receiver cuts them apart again, and what happens when the kernel
// will have none of it. The kernel-dependent cases probe once and skip, with
// the errno, where the kernel refuses the socket option.

// sizedPackets returns datagrams of the given lengths, each filled with a
// pattern of its own.
func sizedPackets(lens ...int) [][]byte {
	pkts := make([][]byte, len(lens))
	for i, n := range lens {
		pkts[i] = make([]byte, n)
		for j := range pkts[i] {
			pkts[i][j] = byte(i*31 + j)
		}
	}
	return pkts
}

func repeat(n, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = n
	}
	return out
}

// TestTrainPacking pins the grouping rule on the headers handed to sendmmsg.
func TestTrainPacking(t *testing.T) {
	type msg struct{ n, size int } // datagrams in the message; UDP_SEGMENT size, 0 = no control message
	cases := []struct {
		name   string
		lens   []int
		maxSeg int
		want   []msg
	}{
		{"equal-run", repeat(100, 5), maxTrainSegs, []msg{{5, 100}}},
		{"short-tail-closes-its-train", []int{100, 100, 100, 40, 100, 100}, maxTrainSegs, []msg{{4, 100}, {2, 100}}},
		{"longer-after-short-starts-a-train", []int{100, 40, 200, 200}, maxTrainSegs, []msg{{2, 100}, {2, 200}}},
		{"growing-lengths-travel-alone", []int{40, 100, 300}, maxTrainSegs, []msg{{1, 0}, {1, 0}, {1, 0}}},
		{"64-segment-cap", repeat(10, 70), maxTrainSegs, []msg{{64, 10}, {6, 10}}},
		{"65507-byte-cap-8k", repeat(8208, 9), maxTrainSegs, []msg{{7, 8208}, {2, 8208}}},
		{"65507-byte-cap-32k", repeat(32784, 3), maxTrainSegs, []msg{{1, 0}, {1, 0}, {1, 0}}},
		{"byte-cap-refuses-the-short-tail-too", append(repeat(16000, 4), 1600), maxTrainSegs, []msg{{4, 16000}, {1, 0}}},
		{"run-of-one", []int{100}, maxTrainSegs, []msg{{1, 0}}},
		{"empty-slot-travels-alone", []int{100, 100, 0, 100}, maxTrainSegs, []msg{{2, 100}, {1, 0}, {1, 0}}},
		{"empty-slots", []int{0, 0}, maxTrainSegs, []msg{{1, 0}, {1, 0}}},
		{"limit-latched-to-one", repeat(100, 3), 1, []msg{{1, 0}, {1, 0}, {1, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var v vecSendState
			v.init(len(tc.lens))
			v.maxSeg = tc.maxSeg
			pkts := sizedPackets(tc.lens...)
			if got := v.pack(pkts, nil); got != len(tc.want) {
				t.Fatalf("pack = %d messages, want %d", got, len(tc.want))
			}
			next := 0 // index of the datagram the next message must start at
			for m, w := range tc.want {
				h := &v.hdrs[m].hdr
				if int(h.Iovlen) != w.n || h.Iov != &v.iovs[next] {
					t.Fatalf("message %d: %d iovecs from %p, want %d from iovec %d (%p)",
						m, h.Iovlen, h.Iov, w.n, next, &v.iovs[next])
				}
				for i := 0; i < w.n; i++ {
					if int(v.iovs[next+i].Len) != tc.lens[next+i] {
						t.Fatalf("iovec %d is %d bytes, want %d", next+i, v.iovs[next+i].Len, tc.lens[next+i])
					}
				}
				next += w.n
				if w.size == 0 {
					if h.Control != nil || h.Controllen != 0 {
						t.Fatalf("message %d: a run of one carries a control message", m)
					}
					continue
				}
				if h.Control == nil || int(h.Controllen) != syscall.CmsgSpace(2) {
					t.Fatalf("message %d: control %p of %d bytes, want %d", m, h.Control, h.Controllen, syscall.CmsgSpace(2))
				}
				c := (*segmentCmsg)(unsafe.Pointer(h.Control))
				if c.hdr.Level != solUDP || c.hdr.Type != udpSegment || int(c.hdr.Len) != syscall.CmsgLen(2) || int(c.size) != w.size {
					t.Fatalf("message %d: control message %+v, want UDP_SEGMENT of %d", m, *c, w.size)
				}
			}
		})
	}
}

// offload is what this kernel said to the two socket options on loopback.
var offload struct {
	once     sync.Once
	gso, gro error
}

func probeOffload(t *testing.T) (gso, gro error) {
	t.Helper()
	offload.once.Do(func() {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			offload.gso, offload.gro = err, err
			return
		}
		defer c.Close()
		rc, err := c.SyscallConn()
		if err != nil {
			offload.gso, offload.gro = err, err
			return
		}
		rc.Control(func(fd uintptr) {
			// Size zero is "no segmentation": accepted wherever the option exists.
			offload.gso = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0)
			offload.gro = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
		})
	})
	return offload.gso, offload.gro
}

func needGSO(t *testing.T) {
	t.Helper()
	if gso, _ := probeOffload(t); gso != nil {
		t.Skipf("kernel refuses UDP_SEGMENT: %v", gso)
	}
}

func needGRO(t *testing.T) {
	t.Helper()
	if _, gro := probeOffload(t); gro != nil {
		t.Skipf("kernel refuses UDP_GRO: %v", gro)
	}
}

// TestOffloadProbe reports what this kernel does with trains on loopback
// (`make offload-probe` runs it verbosely): the two socket options, and one
// real train through a Sender and a Receiver. It fails only when the kernel
// accepts the options and the train still does not arrive intact.
func TestOffloadProbe(t *testing.T) {
	gso, gro := probeOffload(t)
	verdict := func(err error) string {
		if err != nil {
			return "refused: " + err.Error()
		}
		return "accepted"
	}
	t.Logf("offload-probe: UDP_SEGMENT %s", verdict(gso))
	t.Logf("offload-probe: UDP_GRO %s", verdict(gro))
	snd, rcv := udpPair(t)
	tx, _ := NewSender(snd, 4, true)
	rx, _ := NewReceiver(rcv, 4, TrainBufLen, true)
	pkts := sizedPackets(600, 600, 600, 200)
	if m, err := tx.Send(pkts); m != len(pkts) || err != nil {
		t.Fatalf("Send = %d, %v", m, err)
	}
	rcv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for got := 0; got < len(pkts); {
		n, err := rx.Recv()
		if err != nil {
			t.Fatalf("Recv after %d datagrams: %v", got, err)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(rx.Datagram(i), pkts[got+i]) {
				t.Fatalf("datagram %d corrupted", got+i)
			}
		}
		got += n
	}
	txc, rxc := tx.Counters(), rx.Counters()
	t.Logf("offload-probe: 4 datagrams left in %d train(s) over %d syscall(s), arrived in %d train(s) over %d syscall(s)",
		txc.SendTrains, txc.SendCalls, rxc.RecvTrains, rxc.RecvCalls)
	if gso == nil && (txc.SendTrains != 1 || tx.vs.maxSeg != maxTrainSegs) {
		t.Errorf("the kernel takes UDP_SEGMENT but the flush fell back: %+v", txc)
	}
	if gso == nil && gro == nil && rxc.RecvTrains != 1 {
		t.Errorf("the kernel takes both options but the train arrived cut: %+v", rxc)
	}
}

// TestRecvSplitsTrains: trains and plain datagrams from two sources, mixed
// in one recvmmsg, come out as their datagrams in order, each with the
// source of the message that carried it.
func TestRecvSplitsTrains(t *testing.T) {
	needGSO(t)
	needGRO(t)
	sndA, rcv := udpPair(t)
	sndB, err := net.DialUDP("udp", nil, rcv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer sndB.Close()
	rx, err := NewReceiver(rcv, 8, TrainBufLen, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rx.trains || len(rx.vr.ctl) != 8 {
		t.Fatalf("a vectored receiver with %d-byte slots does not take trains", TrainBufLen)
	}
	txA, _ := NewSender(sndA, 8, true)
	txB, _ := NewSender(sndB, 8, true)
	// A: one train whose last datagram is short. B: a plain datagram (no
	// control message on either side), an empty one, then a train.
	a := sizedPackets(300, 300, 300, 120)
	b := sizedPackets(200, 0, 64, 64)
	for _, f := range []struct {
		tx   *Sender
		pkts [][]byte
	}{{txA, a}, {txB, b}} {
		if m, err := f.tx.Send(f.pkts); m != len(f.pkts) || err != nil {
			t.Fatalf("Send = %d, %v", m, err)
		}
	}
	if txA.Counters().SendTrains != 1 || txB.Counters().SendTrains != 1 {
		t.Fatalf("flushes did not leave as one train each: A %+v, B %+v", txA.Counters(), txB.Counters())
	}
	type dgram struct {
		from    netip.AddrPort
		payload []byte
	}
	var got []dgram
	rcv.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < len(a)+len(b) {
		n, err := rx.Recv()
		if err != nil {
			t.Fatalf("Recv after %d datagrams: %v", len(got), err)
		}
		for i := 0; i < n; i++ {
			got = append(got, dgram{rx.Addr(i), append([]byte(nil), rx.Datagram(i)...)})
		}
	}
	// Loopback delivers inside the send syscall, so everything was queued
	// before the first Recv: four messages, one recvmmsg.
	c := rx.Counters()
	if c.RecvCalls != 1 || c.RecvDatagrams != 8 || c.RecvTrains != 2 || c.MaxRecvBatch != 8 {
		t.Fatalf("receiver counters %+v, want 8 datagrams in 2 trains from 1 syscall", c)
	}
	want := append(append([][]byte{}, a...), b...)
	portA := sndA.LocalAddr().(*net.UDPAddr).AddrPort().Port()
	portB := sndB.LocalAddr().(*net.UDPAddr).AddrPort().Port()
	for i, d := range got {
		port := portA
		if i >= len(a) {
			port = portB
		}
		if !bytes.Equal(d.payload, want[i]) || d.from.Port() != port {
			t.Fatalf("datagram %d: %d bytes from port %d, want %d bytes from port %d",
				i, len(d.payload), d.from.Port(), len(want[i]), port)
		}
	}
}

// TestRecvCountsSocketOverflow: what a data socket drops because its buffer
// is full is counted (SO_RXQ_OVFL), beside the train sizes in the same
// control room. The kernel stamps its running count on what it queues after a
// drop, so the count shows with the next message to arrive; it is the
// socket's own and cumulative, and is not added twice.
func TestRecvCountsSocketOverflow(t *testing.T) {
	snd, rcv := udpPair(t)
	if err := rcv.SetReadBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(rcv, 8, TrainBufLen, true)
	if err != nil {
		t.Fatal(err)
	}
	if rx.vr.ctl == nil {
		t.Skip("the kernel grants this socket neither UDP_GRO nor SO_RXQ_OVFL")
	}
	tx, _ := NewSender(snd, 32, true)
	burst := sizedPackets(repeat(1000, 32)...)
	sent := 0
	for i := 0; i < 16; i++ { // half a megabyte at a socket that holds a few kilobytes
		m, _ := tx.Send(burst)
		sent += m
	}
	drain := func() (got int) {
		for {
			rcv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			n, err := rx.Recv()
			if err != nil {
				return got
			}
			got += n
		}
	}
	got := drain()
	if got >= sent {
		t.Skipf("all %d datagrams fit a 16 KiB buffer: nothing was dropped", sent)
	}
	if m, _ := tx.Send(burst[:1]); m != 1 {
		t.Fatal("send after the burst")
	}
	got += drain()
	dropped := rx.Counters().RecvOverflow
	// A train dropped whole counts once.
	if dropped < 1 || dropped > sent+1-got {
		t.Fatalf("%d of %d datagrams arrived and the socket is said to have dropped %d", got, sent+1, dropped)
	}
	tx.Send(burst[:1])
	drain()
	if again := rx.Counters().RecvOverflow; again != dropped {
		t.Fatalf("the count moved from %d to %d with nothing dropped", dropped, again)
	}
	rx.ResetCounters()
	if c := rx.Counters(); c.RecvOverflow != 0 {
		t.Fatalf("counters after reset: %+v", c)
	}
}

// TestAckReceiverCarriesNoTrainState: a receiver with datagram-sized slots
// never asks for trains and allocates nothing for them — one segment per
// slot, no control room.
func TestAckReceiverCarriesNoTrainState(t *testing.T) {
	_, rcv := udpPair(t)
	rx, err := NewReceiver(rcv, 8, 1100, true)
	if err != nil {
		t.Fatal(err)
	}
	if rx.trains || cap(rx.segs) != 8 || rx.vr.ctl != nil {
		t.Fatalf("a receiver with 1100-byte slots carries train state: trains=%v segs=%d ctl=%d",
			rx.trains, cap(rx.segs), len(rx.vr.ctl))
	}
}

// TestTrainFallbackLatch forces the kernel to refuse trains, two ways. A
// socket that sends without checksums is one the kernel will not segment for
// (EINVAL). A socket whose path takes less than one datagram is another
// (EMSGSIZE; EINVAL on older kernels): segments are never IP-fragmented, a
// plain datagram of that size is — the case of the paper's 8 KiB packets on
// any link that is not loopback, arranged here by capping an IPv6 socket's
// MTU, since loopback's own holds the longest train. Either way the first
// refused train sets the limit to one: that flush and every later one go out
// plain, nothing is lost or sent twice, and the counters say so.
func TestTrainFallbackLatch(t *testing.T) {
	needGSO(t)
	setsockopt := func(t *testing.T, c *net.UDPConn, level, opt, value int) {
		t.Helper()
		rc, err := c.SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		var serr error
		rc.Control(func(fd uintptr) { serr = syscall.SetsockoptInt(int(fd), level, opt, value) })
		if serr != nil {
			t.Skipf("setsockopt(%d, %d): %v", level, opt, serr)
		}
	}
	for _, tc := range []struct {
		name   string
		size   int // of the datagrams of the refused trains
		refuse func(t *testing.T) (snd, rcv *net.UDPConn)
	}{
		{"checksums-off", 500, func(t *testing.T) (snd, rcv *net.UDPConn) {
			snd, rcv = udpPair(t)
			setsockopt(t, snd, syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
			return snd, rcv
		}},
		{"datagram-beyond-path-mtu", 8208, func(t *testing.T) (snd, rcv *net.UDPConn) {
			rcv, err := net.ListenUDP("udp6", &net.UDPAddr{IP: net.IPv6loopback})
			if err != nil {
				t.Skipf("no IPv6 loopback: %v", err)
			}
			t.Cleanup(func() { rcv.Close() })
			snd, err = net.DialUDP("udp6", nil, rcv.LocalAddr().(*net.UDPAddr))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { snd.Close() })
			setsockopt(t, snd, syscall.IPPROTO_IPV6, syscall.IPV6_MTU, 1280)
			return snd, rcv
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snd, rcv := tc.refuse(t)
			tx, _ := NewSender(snd, 8, true)
			rx, _ := NewReceiver(rcv, 8, tc.size, true)
			var flushes [][2]int
			tx.FlushHook = func(k, m int) { flushes = append(flushes, [2]int{k, m}) }
			// A plain datagram the kernel takes, then a train it refuses: the
			// short count hides the errno, the retry shows it.
			first := sizedPackets(100, tc.size, tc.size, tc.size)
			second := sizedPackets(tc.size, tc.size, tc.size, tc.size)
			for _, pkts := range [][][]byte{first, second} {
				if m, err := tx.Send(pkts); m != len(pkts) || err != nil {
					t.Fatalf("Send = %d, %v; want %d, nil", m, err, len(pkts))
				}
			}
			if tx.vs.maxSeg == maxTrainSegs {
				t.Skip("this kernel segments for such a socket")
			}
			if tx.vs.maxSeg != 1 {
				t.Fatalf("train limit %d after a refusal, want 1", tx.vs.maxSeg)
			}
			want := append(append([][]byte{}, first...), second...)
			rcv.SetReadDeadline(time.Now().Add(5 * time.Second))
			for got := 0; got < len(want); {
				n, err := rx.Recv()
				if err != nil {
					t.Fatalf("Recv after %d datagrams: %v", got, err)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(rx.Datagram(i), want[got+i]) {
						t.Fatalf("datagram %d is not the one sent: lost, repeated or reordered", got+i)
					}
				}
				got += n
			}
			if n, err := rx.TryRecv(); n != 0 || err != nil {
				t.Fatalf("%d datagrams beyond the %d sent (err %v)", n, len(want), err)
			}
			// Flush one: sendmmsg takes the plain datagram (short count),
			// refuses the train, then takes the three as plain datagrams.
			// Flush two: one call.
			c := tx.Counters()
			if c.SentDatagrams != 8 || c.SendTrains != 0 || c.SendCalls != 4 || c.MaxSendBatch != 4 {
				t.Fatalf("sender counters %+v, want 8 datagrams, no train, 4 syscalls", c)
			}
			if fmt.Sprint(flushes) != fmt.Sprint([][2]int{{4, 4}, {4, 4}}) {
				t.Fatalf("flush hook saw %v, want two full flushes of 4", flushes)
			}
		})
	}
}

// TestTrainLoopbackMatrix: whatever the sender's train limit, whether or not
// the receiver takes trains, and at every packet size the benchmark moves,
// the datagram sequence that arrives is the one that was sent.
func TestTrainLoopbackMatrix(t *testing.T) {
	for _, trains := range []bool{true, false} {
		for _, gro := range []bool{true, false} {
			for _, size := range []int{1 << 10, 8 << 10, 32 << 10} {
				t.Run(fmt.Sprintf("trains=%v/gro=%v/%dKiB", trains, gro, size>>10), func(t *testing.T) {
					if trains {
						needGSO(t)
					}
					if gro {
						needGRO(t)
					}
					snd, rcv := udpPair(t)
					snd.SetWriteBuffer(4 << 20)
					rcv.SetReadBuffer(4 << 20)
					const ring, flushes = 32, 3
					tx, _ := NewSender(snd, ring, true)
					if !trains {
						tx.vs.maxSeg = 1
					}
					slot := size + 16
					if gro {
						slot = TrainBufLen
					}
					rx, _ := NewReceiver(rcv, ring, slot, true)
					if rx.trains != gro {
						t.Fatalf("receiver takes trains = %v, want %v", rx.trains, gro)
					}
					// Framed like a data packet: 16 bytes of header, and the
					// last packet of the "object" short.
					lens := repeat(size+16, ring)
					lens[ring-1] = size/3 + 16
					pkts := sizedPackets(lens...)
					rcv.SetReadDeadline(time.Now().Add(5 * time.Second))
					for f := 0; f < flushes; f++ {
						for i := range pkts {
							pkts[i][0] = byte(f) // tell the flushes apart
						}
						if m, err := tx.Send(pkts); m != ring || err != nil {
							t.Fatalf("flush %d: Send = %d, %v", f, m, err)
						}
						for got := 0; got < ring; {
							n, err := rx.Recv()
							if err != nil {
								t.Fatalf("flush %d: Recv after %d datagrams: %v", f, got, err)
							}
							for i := 0; i < n; i++ {
								if !bytes.Equal(rx.Datagram(i), pkts[got+i]) {
									t.Fatalf("flush %d: datagram %d differs from the one sent", f, got+i)
								}
							}
							got += n
						}
					}
					txc, rxc := tx.Counters(), rx.Counters()
					if txc.SentDatagrams != ring*flushes || rxc.RecvDatagrams != ring*flushes {
						t.Fatalf("counters: sent %d, received %d, want %d", txc.SentDatagrams, rxc.RecvDatagrams, ring*flushes)
					}
					// 32 per train at 1 KiB, 7 at 8 KiB (four of them, then the last three
					// packets and the short one), 1 at 32 KiB — where only the short
					// last packet fits behind its predecessor.
					perFlush := map[int]int{1 << 10: 1, 8 << 10: 5, 32 << 10: 1}[size]
					if !trains {
						perFlush = 0
					}
					if txc.SendTrains != perFlush*flushes {
						t.Fatalf("%d trains left, want %d per flush", txc.SendTrains, perFlush)
					}
					if wantRx := map[bool]int{true: perFlush * flushes, false: 0}[gro]; rxc.RecvTrains != wantRx {
						t.Fatalf("%d trains arrived uncut, want %d", rxc.RecvTrains, wantRx)
					}
				})
			}
		}
	}
}

// TestTrainZeroAllocSteadyState: trains out and trains in cost no allocation
// per call — Send, Recv and TryRecv.
func TestTrainZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	needGSO(t)
	needGRO(t)
	snd, rcv := udpPair(t)
	snd.SetWriteBuffer(4 << 20)
	rcv.SetReadBuffer(4 << 20)
	tx, _ := NewSender(snd, 32, true)
	rx, _ := NewReceiver(rcv, 32, TrainBufLen, true)
	pkts := sizedPackets(repeat(1040, 32)...)
	rcv.SetReadDeadline(time.Now().Add(10 * time.Second))
	for _, recv := range []struct {
		name string
		fn   func() (int, error)
	}{{"Recv", rx.Recv}, {"TryRecv", rx.TryRecv}} {
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := tx.Send(pkts); err != nil {
				t.Fatalf("Send: %v", err)
			}
			for got := 0; got < len(pkts); {
				n, err := recv.fn()
				if err != nil {
					t.Fatalf("%s: %v", recv.name, err)
				}
				got += n
			}
		}); allocs > 0 {
			t.Errorf("Send + %s of one train allocates %.1f times, want 0", recv.name, allocs)
		}
	}
	if c := rx.Counters(); c.RecvTrains == 0 || c.RecvTrains != tx.Counters().SendTrains {
		t.Fatalf("the measured calls did not move trains: tx %+v, rx %+v", tx.Counters(), c)
	}
}
