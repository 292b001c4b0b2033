package udprt

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/wire"
)

func TestSplitStripes(t *testing.T) {
	cases := []struct {
		name       string
		size       int64
		packetSize int
		n          int
		base       uint32
		wantLens   []uint64
	}{
		// 10 packets over 4 stripes: the first two stripes get the extra
		// packets (3,3,2,2).
		{"uneven-deal", 10 * 1024, 1024, 4, 5, []uint64{3072, 3072, 2048, 2048}},
		// 3 packets, last one ragged: stripe 1 ends at the object, not at a
		// packet boundary.
		{"ragged-tail", 2500, 1024, 2, 0, []uint64{2048, 452}},
		// More stripes than packets: clamped to one stripe per packet.
		{"clamped", 100, 1024, 4, 9, []uint64{100}},
		{"single", 8 * 1024, 1024, 1, 0, []uint64{8192}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stripes := splitStripes(tc.size, tc.packetSize, tc.n, tc.base)
			if len(stripes) != len(tc.wantLens) {
				t.Fatalf("got %d stripes, want %d: %+v", len(stripes), len(tc.wantLens), stripes)
			}
			var at uint64
			for i, s := range stripes {
				if s.Transfer != tc.base+uint32(i) {
					t.Fatalf("stripe %d tag = %d, want %d", i, s.Transfer, tc.base+uint32(i))
				}
				if s.Offset != at {
					t.Fatalf("stripe %d offset = %d, want contiguous %d", i, s.Offset, at)
				}
				if s.Length != tc.wantLens[i] {
					t.Fatalf("stripe %d length = %d, want %d", i, s.Length, tc.wantLens[i])
				}
				if i < len(stripes)-1 && s.Length%uint64(tc.packetSize) != 0 {
					t.Fatalf("interior stripe %d length %d not packet-aligned", i, s.Length)
				}
				at += s.Length
			}
			if at != uint64(tc.size) {
				t.Fatalf("stripes cover %d bytes of %d", at, tc.size)
			}
		})
	}
}

// TestStripedLoopback moves one object across 2 and 4 parallel stripes and
// requires bit-exact reassembly plus sane aggregate stats: every stripe's
// packets are needed, and the sum equals the whole object's packet count.
func TestStripedLoopback(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(map[int]string{2: "streams=2", 4: "streams=4"}[n], func(t *testing.T) {
			obj := makeObj(1<<20 + 333)
			got, sst, rst := transfer(t, obj, core.Config{}, Options{Streams: n})
			if !bytes.Equal(got, obj) {
				t.Fatal("striped object corrupted")
			}
			needed := core.NumPackets(int64(len(obj)), core.DefaultPacketSize)
			if sst.PacketsNeeded != needed {
				t.Fatalf("aggregate PacketsNeeded = %d, want %d", sst.PacketsNeeded, needed)
			}
			if rst.Received != needed {
				t.Fatalf("aggregate Received = %d, want %d", rst.Received, needed)
			}
			if sst.PacketsSent < sst.PacketsNeeded {
				t.Fatalf("impossible stats: sent %d < needed %d", sst.PacketsSent, sst.PacketsNeeded)
			}
		})
	}
}

// TestStripedTinyObject pins the clamp: four requested streams over a
// one-packet object degenerate to the classic single-flow transfer.
func TestStripedTinyObject(t *testing.T) {
	obj := makeObj(100)
	got, _, _ := transfer(t, obj, core.Config{}, Options{Streams: 4})
	if !bytes.Equal(got, obj) {
		t.Fatal("tiny striped object corrupted")
	}
}

// TestStripedUnderLoss runs a 4-stripe transfer through a seeded lossy
// proxy with live metrics on both endpoints: the object must reassemble
// bit-exactly, and the per-stripe metric records must conserve counts —
// each stripe balances on its own, and the stripes sum to the aggregate
// stats and to the whole object.
func TestStripedUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		const streams = 4
		reg := metrics.New()
		obj := makeObj(768<<10 + 19)
		opts := Options{
			Streams:    streams,
			Pace:       2 * time.Microsecond,
			NoFastPath: noFastPath,
			Metrics:    reg,
		}
		l, err := Listen("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		proxy, err := faultnet.NewProxy(l.Addr(), faultnet.New(faultnet.Policy{Seed: 7, Drop: 0.10}))
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		var got []byte
		var rst core.ReceiverStats
		var rerr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			got, rst, rerr = l.Accept(ctx)
		}()
		sst, serr := Send(ctx, proxy.Addr(), obj, core.Config{}, opts)
		<-done
		if serr != nil {
			t.Fatalf("send: %v", serr)
		}
		if rerr != nil {
			t.Fatalf("receive: %v", rerr)
		}
		if !bytes.Equal(got, obj) {
			t.Fatal("striped object corrupted under loss")
		}
		if st := proxy.Stats(); st.Dropped == 0 {
			t.Fatalf("faults never fired: %+v", st)
		}

		// Per-stripe conservation, then stripe sums against the aggregate
		// stats and the object itself.
		snap := reg.Snapshot()
		var sentSum, neededSum, freshSum, bytesSum int64
		for i := uint32(0); i < streams; i++ {
			s := findTransfer(t, snap, i, obs.RoleSender)
			r := findTransfer(t, snap, i, obs.RoleReceiver)
			if s.Outcome != metrics.OutcomeCompleted || r.Outcome != metrics.OutcomeCompleted {
				t.Fatalf("stripe %d outcomes %v/%v, want completed", i, s.Outcome, r.Outcome)
			}
			if s.PacketsSent != s.PacketsNeeded+s.Retransmits {
				t.Fatalf("stripe %d sender conservation broken: sent %d != needed %d + retransmits %d",
					i, s.PacketsSent, s.PacketsNeeded, s.Retransmits)
			}
			if r.Fresh+r.Duplicates+r.Rejected != r.DataDemuxed {
				t.Fatalf("stripe %d receiver classification broken: %+v", i, r)
			}
			if r.Fresh != s.PacketsNeeded {
				t.Fatalf("stripe %d fresh %d != stripe packets %d", i, r.Fresh, s.PacketsNeeded)
			}
			sentSum += s.PacketsSent
			neededSum += s.PacketsNeeded
			freshSum += r.Fresh
			bytesSum += r.BytesReceived
		}
		if sentSum != int64(sst.PacketsSent) || neededSum != int64(sst.PacketsNeeded) {
			t.Fatalf("stripe sums sent/needed = %d/%d, aggregate stats say %d/%d",
				sentSum, neededSum, sst.PacketsSent, sst.PacketsNeeded)
		}
		if freshSum != int64(rst.Received) {
			t.Fatalf("stripe fresh sum = %d, aggregate Received = %d", freshSum, rst.Received)
		}
		if bytesSum != int64(len(obj)) {
			t.Fatalf("stripe bytes sum = %d, object is %d", bytesSum, len(obj))
		}
		if snap.Totals.Completed != 2*streams {
			t.Fatalf("Totals.Completed = %d, want %d", snap.Totals.Completed, 2*streams)
		}
	})
}

// TestStripedProgressAggregates checks the object-wide progress stream a
// striped sender reports: monotone counts against the whole object's packet
// total, reaching completion.
func TestStripedProgressAggregates(t *testing.T) {
	obj := makeObj(4 << 20)
	total := core.NumPackets(int64(len(obj)), core.DefaultPacketSize)
	var mu sync.Mutex
	var last int
	opts := Options{
		Streams: 3,
		Pace:    3 * time.Microsecond,
		Progress: func(done, tot int) {
			mu.Lock()
			defer mu.Unlock()
			if tot != total {
				t.Errorf("progress total = %d, want %d", tot, total)
			}
			if done < last {
				t.Errorf("progress went backwards: %d after %d", done, last)
			}
			last = done
		},
	}
	got, _, _ := transfer(t, obj, core.Config{AckFrequency: 32}, opts)
	if !bytes.Equal(got, obj) {
		t.Fatal("transfer corrupted")
	}
	mu.Lock()
	defer mu.Unlock()
	if last == 0 {
		t.Fatal("progress callback never reported delivery")
	}
}

// TestSessionStriped streams several objects through one session with
// every object striped across three UDP flows; tags auto-advance by the
// stripe count, so stragglers from one object cannot land in the next.
func TestSessionStriped(t *testing.T) {
	sl, err := ListenSession("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const frames = 3
	objs := make([][]byte, frames)
	for i := range objs {
		objs[i] = makeObj(256<<10 + i*911)
	}
	type recv struct {
		objs [][]byte
		err  error
	}
	done := make(chan recv, 1)
	go func() {
		is, err := sl.AcceptSession(ctx)
		if err != nil {
			done <- recv{err: err}
			return
		}
		defer is.Close()
		var got [][]byte
		for i := 0; i < frames; i++ {
			obj, _, err := is.Next(ctx)
			if err != nil {
				done <- recv{err: err}
				return
			}
			got = append(got, obj)
		}
		done <- recv{objs: got}
	}()

	sess, err := OpenSession(ctx, sl.Addr(), Options{Streams: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i, obj := range objs {
		if _, err := sess.Send(ctx, obj, core.Config{AckFrequency: 32}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	for i := range objs {
		if !bytes.Equal(r.objs[i], objs[i]) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}

// TestSessionBrokenAfterFailedSend pins the fail-fast contract: once one
// Send fails, the control stream is suspect and every later Send refuses
// immediately with ErrSessionBroken instead of risking corrupt framing.
func TestSessionBrokenAfterFailedSend(t *testing.T) {
	sl, err := ListenSession("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	accepted := make(chan *IncomingSession, 1)
	go func() {
		is, err := sl.AcceptSession(ctx)
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- is
	}()
	sess, err := OpenSession(ctx, sl.Addr(), Options{HandshakeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	is := <-accepted
	if is == nil {
		t.Fatal("accept failed")
	}
	is.Close() // receiver walks away: the next Send's handshake must fail

	_, err = sess.Send(ctx, makeObj(64<<10), core.Config{})
	if err == nil {
		t.Fatal("send to a closed session succeeded")
	}
	if errors.Is(err, ErrSessionBroken) {
		t.Fatalf("first failure already reports ErrSessionBroken: %v", err)
	}
	if _, err := sess.Send(ctx, makeObj(1024), core.Config{}); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("send after failure = %v, want ErrSessionBroken", err)
	}
}

// TestFutureHelloXVersionRejected hand-builds the retired HELLOX, stamped
// with a later revision, behind a current CHECK, and checks both ends of the
// contract: the receiver answers with ABORT (bad hello) and surfaces the
// refused frame type — never data corruption or a hang.
func TestFutureHelloXVersionRejected(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	acceptErr := make(chan error, 1)
	go func() {
		_, _, err := l.Accept(ctx)
		acceptErr <- err
	}()

	obj := makeObj(4096)
	frame := legacyHelloX(3, obj, 1024, 2)
	frame[3] = 2
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(announceFor(3, obj, 1024)[:wire.CheckLen], frame...)); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := readControlFrame(conn)
	if err != nil {
		t.Fatalf("reading the receiver's answer: %v", err)
	}
	if f.typ != wire.TypeAbort || f.abort.Reason != wire.AbortBadHello {
		t.Fatalf("receiver answered type %d reason %v, want ABORT(bad hello)", f.typ, f.abort.Reason)
	}
	if err := <-acceptErr; !errors.Is(err, wire.ErrBadType) {
		t.Fatalf("Accept = %v, want wrapped wire.ErrBadType", err)
	}
}

// TestSendTooManyStreams: the wire limit is enforced before anything
// touches the network.
func TestSendTooManyStreams(t *testing.T) {
	_, err := Send(context.Background(), "127.0.0.1:1", makeObj(1<<20), core.Config{},
		Options{Streams: wire.MaxStreams + 1})
	if err == nil {
		t.Fatal("oversized stream count accepted")
	}
	if _, err := OpenSession(context.Background(), "127.0.0.1:1",
		Options{Streams: wire.MaxStreams + 1}); err == nil {
		t.Fatal("oversized session stream count accepted")
	}
}
