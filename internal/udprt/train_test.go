package udprt

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// Datagram trains through the transfer engines: the sender flushes per
// ring, the ring leaves as UDP_SEGMENT trains, and a listener's socket-owned
// ring takes them whole (UDP_GRO). Whether the kernel plays along is probed
// in internal/batchio; here every shape must deliver its bytes either way,
// and the train counters are checked wherever a train did leave.

// TestUnpacedRoundsFlushPerRing: FixedBatch(2) plans rounds of two, but
// with no pacing gap they queue in the ring and leave a ring at a time —
// and never more than what is left of the turn.
func TestUnpacedRoundsFlushPerRing(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		// Few enough packets that the fake receiver's default socket buffer
		// holds a whole turn while nobody reads it.
		const packets, ioBatch = 50, 16
		fake := newFakeReceiver(t, true)
		go fake.acceptHandshake()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var mu sync.Mutex
		var flushes []int
		opts := Options{ioBatch: ioBatch, idlePoll: 5 * time.Second, NoFastPath: noFastPath}
		opts.testFlushHook = func(k, m int) {
			mu.Lock()
			flushes = append(flushes, k)
			mu.Unlock()
		}
		sent := make(chan error, 1)
		go func() {
			_, err := Send(ctx, fake.addr(), makeObj(packets<<10),
				core.Config{PacketSize: 1024, Transfer: 9, Batch: core.FixedBatch(2)}, opts)
			sent <- err
		}()
		take := func() string {
			mu.Lock()
			defer mu.Unlock()
			s := fmt.Sprint(flushes)
			flushes = nil
			return s
		}
		from, err := fake.readData(packets, 5*time.Second)
		if err != nil {
			t.Fatalf("first turn: %v", err)
		}
		if _, err := fake.readData(1, 100*time.Millisecond); !isTimeout(err) {
			t.Fatalf("sender kept sending after a full turn (err=%v)", err)
		}
		if got := take(); got != "[16 16 16 2]" {
			t.Fatalf("first turn left as flushes %s, want [16 16 16 2]", got)
		}
		// The first 30 packets acknowledged: the next turn is the other 20.
		ack := wire.AppendAck(nil, &wire.Ack{Transfer: 9, AckSeq: 1, Received: 30, Delta: 30,
			Frag: bitmap.Fragment{Words: []uint64{1<<30 - 1}}})
		if _, err := fake.udp.WriteToUDPAddrPort(ack, from); err != nil {
			t.Fatal(err)
		}
		if _, err := fake.readData(packets-30, 5*time.Second); err != nil {
			t.Fatalf("second turn: %v", err)
		}
		if _, err := fake.readData(1, 100*time.Millisecond); !isTimeout(err) {
			t.Fatalf("sender sent more than the unacknowledged remainder (err=%v)", err)
		}
		if got := take(); got != "[16 4]" {
			t.Fatalf("second turn left as flushes %s, want [16 4]", got)
		}
		cancel()
		<-sent
	})
}

// gapAfter is a Controller whose directive carries no pacing gap for its
// first free rounds and one ever after: a pace that switches on between two
// looks, as a RateCap set mid-transfer does.
type gapAfter struct {
	core.Greedy
	free int
}

func (c *gapAfter) Tick(max int) core.Directive {
	if c.free > 0 {
		c.free--
		return core.Directive{Batch: max}
	}
	return core.Directive{Batch: max, Gap: time.Microsecond}
}

// TestPacedRoundLeavesAlone: a round whose directive carries a gap is never
// put on the wire in one flush with the unpaced rounds queued before it —
// those leave first, then the paced round by itself, so its packets keep the
// spacing the controller asked for.
func TestPacedRoundLeavesAlone(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		const packets = 20
		conn, sink := udpPair(t)
		var flushes []int // written by the engine's goroutine, read after it returns
		opts := Options{ioBatch: 16, idlePoll: 5 * time.Second, NoFastPath: noFastPath}.withDefaults()
		opts.testFlushHook = func(k, m int) { flushes = append(flushes, k) }
		snd := core.NewSender(makeObj(packets<<10), core.Config{PacketSize: 1024, Batch: core.FixedBatch(2)})
		snd.SetFlow(0, opts.idlePoll) // as runSenderPlan installs it for a receiver that advertised no window
		e := newSenderEngine(snd, senderEndpoint{
			conn: conn, done: make(chan error), abort: func(wire.AbortReason) {},
		}, opts, probe{})
		snd.SetController(&gapAfter{free: 3})
		ctx, cancel := context.WithCancel(context.Background())
		ran := make(chan error, 1)
		go func() { ran <- e.run(ctx) }()
		// One turn and the engine blocks on its ack socket; nobody answers.
		sink.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 2048)
		for i := 0; i < packets; i++ {
			if _, err := sink.Read(buf); err != nil {
				t.Fatalf("after %d datagrams: %v", i, err)
			}
		}
		cancel()
		conn.SetReadDeadline(time.Now())
		if err := <-ran; err != context.Canceled {
			t.Fatalf("engine returned %v, want context.Canceled", err)
		}
		// Three unpaced rounds of two queue up; the fourth carries a gap, so
		// the six leave, then it, then every later round on its own.
		if got, want := fmt.Sprint(flushes), "[6 2 2 2 2 2 2 2]"; got != want {
			t.Fatalf("flushes %s, want %s", got, want)
		}
	})
}

// TestTrainsAcrossSocketPaths: a sender with trains against a scalar
// receiver, a scalar sender against a receiver that takes trains, and both
// fast: the same bytes arrive, and trains show exactly where both the path
// and the kernel allow them.
func TestTrainsAcrossSocketPaths(t *testing.T) {
	if !FastPathAvailable() {
		t.Skip("vectored fast path not available in this build")
	}
	obj := makeObj(1<<20 + 333)
	for _, tc := range []struct {
		name                     string
		sendScalar, recvScalar   bool
		wantSendTrain, wantRecvd bool
	}{
		{"trains-to-scalar-receiver", false, true, true, false},
		{"scalar-sender-to-train-receiver", true, false, false, false},
		{"trains-to-train-receiver", false, false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			var sio, rio stats.IOCounters
			push(t, obj, core.Config{PacketSize: 1024}, Options{NoFastPath: tc.sendScalar, Metrics: reg, IOCounters: &sio},
				Options{NoFastPath: tc.recvScalar, Metrics: reg, IOCounters: &rio})
			// The metrics record exports the same tallies, trains included.
			snap := reg.Snapshot()
			if s, r := findTransfer(t, snap, 0, obs.RoleSender), findTransfer(t, snap, 0, obs.RoleReceiver); s.IO != sio || r.IO != rio {
				t.Fatalf("metrics io %+v / %+v, Options.IOCounters %+v / %+v", s.IO, r.IO, sio, rio)
			}
			if !tc.wantSendTrain {
				if sio.SendTrains != 0 || rio.RecvTrains != 0 {
					t.Fatalf("trains on a scalar path: sender %+v, receiver %+v", sio, rio)
				}
				return
			}
			if sio.SendTrains == 0 {
				t.Skip("no train left the sender: the kernel refuses UDP_SEGMENT here")
			}
			// An unpaced 1 KiB transfer fills its ring: whole rings per syscall.
			if fill := sio.AvgSendBatch(); fill < 16 {
				t.Fatalf("%.1f datagrams per send syscall, want ring-sized flushes: %+v", fill, sio)
			}
			if tc.wantRecvd && rio.RecvTrains == 0 {
				t.Logf("no train arrived uncut: the kernel refuses UDP_GRO here (%+v)", rio)
			}
			if !tc.wantRecvd && rio.RecvTrains != 0 {
				t.Fatalf("a scalar receiver reported trains: %+v", rio)
			}
		})
	}
}

// TestStripedOverTrains: four stripes at 8 KiB packets — seven to a train —
// into one listener ring.
func TestStripedOverTrains(t *testing.T) {
	var sio, rio stats.IOCounters
	push(t, makeObj(4<<20+99), core.Config{PacketSize: 8192}, Options{Streams: 4, IOCounters: &sio}, Options{IOCounters: &rio})
	if sio.FastPath && sio.SendTrains > 0 && rio.RecvTrains > 0 && rio.MaxRecvBatch < 2 {
		t.Fatalf("trains arrived but no drain delivered more than one datagram: %+v", rio)
	}
}

// TestSessionOverTrains: three objects over one session's reused sockets
// into the listener's one ring; each transfer reports its own counters.
// Paced (two-packet trains), so that next to nothing is sent twice and the
// counts can be held against each other; the unpaced session over the same
// ring is TestSessionSocketsReusableAfterKickedWait.
func TestSessionOverTrains(t *testing.T) {
	var rio stats.IOCounters
	ep := listen(t, bySession, Options{IOCounters: &rio})
	const objects = 3
	ep.recv(objects)
	s, err := OpenSession(ep.ctx, ep.l.Addr(), Options{Pace: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sent, counted := 0, 0
	for i := 0; i < objects; i++ {
		obj := makeObj(256<<10 + i)
		obj[0] = byte(i) // distinct content: a dedup hit would skip the data phase
		st, err := s.Send(ep.ctx, obj, core.Config{PacketSize: 1024})
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		// Each delivery's counters are in rio until the next transfer ends.
		ep.delivered(obj)
		if rio.RecvDatagrams < st.PacketsNeeded {
			t.Fatalf("object %d: receiver counted %d datagrams of the %d needed", i, rio.RecvDatagrams, st.PacketsNeeded)
		}
		sent, counted = sent+st.PacketsSent, counted+rio.RecvDatagrams
	}
	// The ring is shared, the counters are not: each datagram is in exactly
	// one transfer's count, where counts since Listen would add up to twice
	// what was sent.
	if counted > sent {
		t.Fatalf("the three transfers counted %d datagrams between them, %d were sent", counted, sent)
	}
}

// TestServerConcurrentSendersOverTrains: two unpaced senders into one
// serving endpoint, whose data loop demuxes their interleaved trains by transfer tag.
func TestServerConcurrentSendersOverTrains(t *testing.T) {
	ep := listen(t, byServe, Options{})
	ep.recv(1)
	objs := [][]byte{makeObj(2<<20 + 1), makeObj(2<<20 + 2)}
	objs[1][0] ^= 0xFF
	var wg sync.WaitGroup
	errs := make([]error, len(objs))
	ios := make([]stats.IOCounters, len(objs))
	for i := range objs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Send(ep.ctx, ep.l.Addr(), objs[i],
				core.Config{PacketSize: 1024, Transfer: uint32(i + 1)}, Options{IOCounters: &ios[i]})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
	}
	got := ep.byID(len(objs))
	for i := range objs {
		if !bytes.Equal(got[uint32(i+1)].obj, objs[i]) {
			t.Fatalf("object %d corrupted through the server", i)
		}
	}
	for i, c := range ios {
		if c.SendTrains > 0 && c.AvgSendBatch() < 8 {
			t.Fatalf("sender %d: trains left, yet %.1f datagrams per send syscall: %+v", i, c.AvgSendBatch(), c)
		}
	}
}
