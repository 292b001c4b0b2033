package udprt

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

func makeObj(n int) []byte {
	obj := make([]byte, n)
	rand.New(rand.NewSource(11)).Read(obj)
	return obj
}

func TestLoopbackTransfer(t *testing.T) {
	obj := makeObj(1<<20 + 77)
	p := push(t, obj, core.Config{}, Options{}, Options{})
	sst, rst := p.sst, p.st
	if rst.Received != core.NumPackets(int64(len(obj)), core.DefaultPacketSize) {
		t.Fatalf("receiver got %d distinct packets", rst.Received)
	}
	if sst.PacketsSent < rst.Received {
		t.Fatalf("sent %d < received %d", sst.PacketsSent, rst.Received)
	}
}

func TestLoopbackLargePackets(t *testing.T) {
	push(t, makeObj(2<<20), core.Config{PacketSize: 8192}, Options{}, Options{})
}

func TestLoopbackSmallObject(t *testing.T) {
	push(t, makeObj(10), core.Config{}, Options{}, Options{})
}

func TestLoopbackWithPacing(t *testing.T) {
	// Pacing survives and still completes; useful on hosts with tiny
	// default UDP buffers.
	opts := Options{Pace: 100 * time.Microsecond}
	push(t, makeObj(256<<10), core.Config{AckFrequency: 16}, opts, opts)
}

func TestSequentialTransfers(t *testing.T) {
	ep := listen(t, byAccept, Options{})
	for i := 0; i < 3; i++ {
		ep.pushOK(makeObj(128<<10+i), core.Config{Transfer: uint32(i)}, Options{})
	}
}

func TestSendEmptyObject(t *testing.T) {
	if _, err := Send(context.Background(), "127.0.0.1:1", nil, core.Config{}, Options{}); err == nil {
		t.Fatal("empty object accepted")
	}
}

func TestSendNoListener(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Send(ctx, "127.0.0.1:1", makeObj(10), core.Config{}, Options{}); err == nil {
		t.Fatal("send with no listener succeeded")
	}
}

func TestAcceptContextCancel(t *testing.T) {
	ep := listen(t, byAccept, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, _, err := ep.l.Accept(ctx); err == nil {
		t.Fatal("Accept returned without a sender")
	}
}

func TestListenBadAddress(t *testing.T) {
	if _, err := Listen("not-an-address:99999", Options{}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestAddrReportsBoundPort(t *testing.T) {
	if listen(t, byAccept, Options{}).l.Addr() == "127.0.0.1:0" {
		t.Fatal("Addr did not resolve the ephemeral port")
	}
}

func TestLoopbackWithChecksums(t *testing.T) {
	push(t, makeObj(512<<10), core.Config{Checksum: true}, Options{}, Options{})
}

func TestTransferSurvivesHostileDatagrams(t *testing.T) {
	// Garbage and spoofed packets aimed at both sockets must not corrupt
	// or stall a transfer.
	ep := listen(t, byAccept, Options{})
	// The attacker floods the listener's UDP port with junk and with
	// validly-framed packets for a bogus transfer.
	conn := dialData(t, ep.l.Addr())
	attack := make(chan struct{})
	go func() {
		defer close(attack)
		junk := []byte("not a fobs packet at all, just noise")
		spoof := wire.AppendData(nil, &wire.Data{Transfer: 999, Seq: 0, Total: 4, Payload: make([]byte, 64)})
		for i := 0; i < 500; i++ {
			conn.Write(junk)
			conn.Write(spoof)
			time.Sleep(100 * time.Microsecond) // scenario: the attack's spacing
		}
	}()
	ep.pushOK(makeObj(256<<10), core.Config{Checksum: true}, Options{})
	<-attack
}

func TestProgressCallback(t *testing.T) {
	// Large enough (and paced enough) that acknowledgements arrive while
	// the sender is still working; a tiny loopback object can complete in
	// one receiver burst, with every ack and the completion signal
	// arriving together.
	obj := makeObj(8 << 20)
	var calls int
	var last int
	opts := Options{
		Pace: 3 * time.Microsecond,
		Progress: func(done, total int) {
			calls++
			if done < last {
				t.Errorf("progress went backwards: %d after %d", done, last)
			}
			last = done
			if total != 8192 {
				t.Errorf("total = %d, want 8192", total)
			}
		},
	}
	push(t, obj, core.Config{AckFrequency: 32}, opts, opts)
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
}

// TestReceiveRingRejectsOverlongDatagram: the receive ring belongs to the
// socket and its slots hold 64 KiB, so a datagram longer than any packet of
// the transfer arrives whole and decodes. The state machine's length check
// must refuse it — counted, never placed — and the transfer around it must
// complete intact.
func TestReceiveRingRejectsOverlongDatagram(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		l := listen(t, byAccept, Options{NoFastPath: noFastPath}).l
		peer := dialData(t, l.Addr())

		const packetSize, packets = 64, 4
		obj := makeObj(packets * packetSize)
		// Register before anything is on the wire: the endpoint's loop is
		// already draining, and drops what nobody has registered for.
		plan := recvPlan{base: 7, objectSize: uint64(len(obj)), packetSize: packetSize}
		in := l.register(plan)
		if in == nil {
			t.Fatal("tag 7 refused on an idle endpoint")
		}
		engines := newRecvEngines(plan, make([]byte, len(obj)))
		in.arm(engines)
		// Well formed, for this transfer, and four packets long.
		overlong := wire.AppendData(nil, &wire.Data{Transfer: 7, Seq: 0, Total: packets,
			Payload: bytes.Repeat([]byte{0xEE}, len(obj))})
		if _, err := peer.Write(overlong); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < packets; seq++ {
			pkt := wire.AppendData(nil, &wire.Data{Transfer: 7, Seq: uint32(seq), Total: packets,
				Payload: obj[seq*packetSize : (seq+1)*packetSize]})
			if _, err := peer.Write(pkt); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-in.complete:
		case <-time.After(10 * time.Second):
			t.Fatal("the transfer around the overlong datagram never completed")
		}
		l.detach(in)
		rcv := engines[0].rcv
		if !bytes.Equal(rcv.Object(), obj) {
			t.Fatal("object corrupted")
		}
		if st := rcv.Stats(); st.Received != packets || st.Duplicates != 0 || st.Rejected != 1 {
			t.Fatalf("the overlong datagram was not refused exactly once: %+v", st)
		}
	})
}
