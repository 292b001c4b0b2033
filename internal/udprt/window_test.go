package udprt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// The receive window: the receiver's half of the sender's wait discipline.
// The first half of this file drives flowWindow without sockets — the real
// state machines of internal/core either side of a fake receiver that takes
// packets out of a bounded queue at a fixed rate, on a clock the test owns, so
// every count is exact and every run the same. The second half runs it on
// real sockets, where the queue is the kernel's and SO_RXQ_OVFL does the
// counting.

// windowSim is one simulated transfer: senderEngine.run's loop — look for
// acknowledgements, wait when the turn is over or the window full, otherwise
// put what there is room for on the wire — against a receiver that needs
// drain per packet and whose queue holds capacity of them. Packets cross in
// no time and acknowledgements in ackDelay. fw nil is the loop as it stood
// before there was a window.
type windowSim struct {
	fw       *flowWindow
	capacity int
	sendCost time.Duration
	drain    time.Duration
	ackDelay time.Duration
	idlePoll time.Duration
	// lose, when non-nil, says whether the n-th packet sent is lost on the
	// wire, before it reaches the queue.
	lose func(n int) bool

	// What the run saw.
	seqs       []uint32
	overflow   int // packets that found the queue full
	firstLost  int // those of them that were first sends
	maxQueue   int
	maxUnheard int // first sends beyond the count heard, at its largest
	timeouts   int
	elapsed    time.Duration
}

type simPacket struct {
	d  wire.Data
	at time.Duration
}

type simAck struct {
	a  wire.Ack
	at time.Duration
}

func (s *windowSim) run(t *testing.T, snd *core.Sender, rcv *core.Receiver) core.SenderStats {
	t.Helper()
	const ring = DefaultIOBatch
	var (
		base             = time.Unix(0, 0)
		now, free        time.Duration
		queue            []simPacket
		acks             []simAck
		lastSeq          uint32
		lastAck          time.Duration
		acksSeen         int
		sinceNews, total int
		wait             bool
		probeSeq         = -1 // the engine's one round-trip probe
		probeAt          time.Duration
	)
	// advance lets the receiver work until the clock reads to.
	advance := func(to time.Duration) {
		for len(queue) > 0 {
			done := max(free, queue[0].at) + s.drain
			if done > to {
				return
			}
			p := queue[0]
			queue = queue[1:]
			free = done
			due, err := rcv.HandleData(p.d)
			if err != nil {
				t.Fatalf("receiver: %v", err)
			}
			if due {
				a := rcv.BuildAck()
				a.Frag.Words = slices.Clone(a.Frag.Words) // the next BuildAck reuses them
				acks = append(acks, simAck{a, done + s.ackDelay})
			}
		}
	}
	for looks := 0; !snd.KnownComplete(); looks++ {
		if looks > 1<<22 {
			t.Fatalf("transfer did not complete: %+v", snd.Stats())
		}
		if wait {
			// Blocked on the ack socket until news or IdlePoll.
			deadline := now + s.idlePoll
			for advance(now); len(acks) == 0 || acks[0].at > now; advance(now) {
				if now += s.drain; now > deadline {
					break
				}
			}
			if now > deadline {
				now = deadline
				s.timeouts++
				sinceNews = 0
				if s.fw != nil {
					s.fw.quiet(snd.Stats(), now-lastAck)
				}
			}
		}
		advance(now)
		for len(acks) > 0 && acks[0].at <= now {
			a := acks[0].a
			acks = acks[1:]
			if a.AckSeq > lastSeq {
				lastSeq = a.AckSeq
				if s.fw != nil {
					s.fw.ack(int(a.Received))
				}
			}
			if err := snd.HandleAck(a); err != nil {
				t.Fatalf("sender: %v", err)
			}
		}
		if wait {
			wait = false
			continue
		}
		st := snd.Stats()
		if st.AcksProcessed > acksSeen {
			acksSeen = st.AcksProcessed
			if s.fw != nil {
				s.fw.news(base.Add(now))
			}
			lastAck = now
			sinceNews = 0
		}
		if probeSeq >= 0 && snd.Acked(probeSeq) {
			if s.fw != nil {
				s.fw.rtt(now - probeAt)
			}
			probeSeq = -1
		}
		room := min(ring, st.PacketsNeeded-st.KnownReceived-sinceNews)
		if s.fw != nil {
			room = s.fw.room(st, room)
		}
		if room <= 0 {
			wait = true
			continue
		}
		for i := 0; i < room; i++ {
			again := snd.Stats().Retransmits
			pkt, ok := snd.NextPacket()
			if !ok {
				break
			}
			again = snd.Stats().Retransmits - again
			if probeSeq < 0 {
				probeSeq, probeAt = int(pkt.Seq), now
			}
			now += s.sendCost
			sinceNews++
			total++
			s.seqs = append(s.seqs, pkt.Seq)
			if s.lose != nil && s.lose(total) {
				continue
			}
			advance(now)
			if len(queue) >= s.capacity {
				s.overflow++
				s.firstLost += 1 - again
				continue
			}
			queue = append(queue, simPacket{pkt, now})
			s.maxQueue = max(s.maxQueue, len(queue))
		}
		if st := snd.Stats(); s.fw != nil {
			s.maxUnheard = max(s.maxUnheard, st.PacketsSent-st.Retransmits-s.fw.heard)
		}
	}
	s.elapsed = now
	return snd.Stats()
}

// simEndpoints builds the state machines of a packets-long transfer of
// 1 KiB packets, with acknowledgements long enough that one bitmap fragment
// covers the object whole: the sender's bitmap is never staler than the
// latest acknowledgement.
func simEndpoints(packets int) (*core.Sender, *core.Receiver, core.Config) {
	obj := makeObj(packets << 10)
	snd := core.NewSender(obj, core.Config{PacketSize: 1024, AckPacketSize: 4096, Transfer: 9})
	cfg := snd.Config()
	return snd, core.NewReceiver(int64(len(obj)), cfg), cfg
}

// A receiver half as fast as the sender that advertises a window of 256
// packets, half of what its queue holds, as a real endpoint advertises half
// its buffer: the count the sender hears is behind the queue by the packets
// the receiver has taken since it last reported and by the report on its way,
// and retransmissions are not charged to the window at all.
func slowReceiverSim(fw *flowWindow) *windowSim {
	return &windowSim{fw: fw, capacity: 2 * 256, sendCost: time.Microsecond, drain: 2 * time.Microsecond,
		ackDelay: 20 * time.Microsecond, idlePoll: 2 * time.Millisecond}
}

// TestWindowHoldsSenderToReceiver: told the size of the receiver's queue, the
// sender never has more outstanding than it holds, nothing overflows, and
// next to nothing is sent twice; told nothing, the same sender overruns the
// same receiver.
func TestWindowHoldsSenderToReceiver(t *testing.T) {
	const packets, window = 16384, 256
	snd, rcv, cfg := simEndpoints(packets)
	fw := newFlowWindow(window<<10, cfg, snd.Stats(), 2*time.Millisecond)
	sim := slowReceiverSim(&fw)
	st := sim.run(t, snd, rcv)
	if !rcv.Complete() {
		t.Fatal("receiver incomplete")
	}
	// Outstanding: the window and what the probes put on the wire — the time
	// a packet spends in the receiver beyond its acknowledgement interval.
	if sim.overflow != 0 || sim.maxUnheard > window+cfg.AckFrequency {
		t.Fatalf("overflow %d, queue up to %d of %d, %d outstanding at most; want 0 and at most the window of %d",
			sim.overflow, sim.maxQueue, sim.capacity, sim.maxUnheard, window)
	}
	if sim.maxQueue < window/2 {
		t.Fatalf("queue never held more than %d packets: a window of %d starved the receiver", sim.maxQueue, window)
	}
	// What is sent twice is the tail: once everything has gone out once,
	// each acknowledgement makes room the sender fills with the packets
	// its bitmap still misses — the ones at the back of the queue — so
	// about one window.
	if st.Waste() > 0.05 || st.Retransmits > 2*window {
		t.Fatalf("sent %d packets for %d: waste %.1f%%, want at most 5%% and two windows", st.PacketsSent, st.PacketsNeeded, 100*st.Waste())
	}
	if sim.timeouts > 1 {
		t.Fatalf("%d waits ran out on a lossless path: the sender is not ack-clocked", sim.timeouts)
	}
	// The receiver is the bottleneck and must never have run dry.
	if floor := time.Duration(packets) * sim.drain; sim.elapsed > floor+floor/10 {
		t.Fatalf("took %v, the receiver alone needs %v", sim.elapsed, floor)
	}

	snd, rcv, _ = simEndpoints(packets)
	greedy := slowReceiverSim(nil)
	st = greedy.run(t, snd, rcv)
	if greedy.overflow == 0 || st.Waste() < 0.2 {
		t.Fatalf("with no window: overflow %d, waste %.1f%% — this receiver cannot be overrun, and the test above shows nothing",
			greedy.overflow, 100*st.Waste())
	}
}

// TestNoWindowAdvertisedIsTheOldSender: a receiver that advertises nothing —
// one that predates the window — is sent to packet for packet as before.
func TestNoWindowAdvertisedIsTheOldSender(t *testing.T) {
	snd, rcv, _ := simEndpoints(16384)
	before := slowReceiverSim(nil)
	before.run(t, snd, rcv)

	snd, rcv, cfg := simEndpoints(16384)
	fw := newFlowWindow(wire.Window(0).Bytes(), cfg, snd.Stats(), 2*time.Millisecond)
	after := slowReceiverSim(&fw)
	after.run(t, snd, rcv)
	if !slices.Equal(before.seqs, after.seqs) {
		t.Fatalf("send sequences differ: %d packets without a window, %d with none advertised", len(before.seqs), len(after.seqs))
	}
	if before.overflow != after.overflow || before.timeouts != after.timeouts || before.elapsed != after.elapsed {
		t.Fatalf("runs differ: %+v / %+v", before, after)
	}
}

// TestWindowFloorAndShare: the window is the advertised bytes in packets, and
// never counted as less than two acknowledgement intervals — below that the
// acknowledgement that would reopen it might never be sent.
func TestWindowFloorAndShare(t *testing.T) {
	cfg := core.NewSender(makeObj(1024), core.Config{PacketSize: 1024}).Config()
	for _, c := range []struct{ bytes, pkts, room int }{
		{0, 0, 1 << 20}, {2, 1, 2 * cfg.AckFrequency}, {64 << 10, 64, 2 * cfg.AckFrequency}, {1 << 20, 1024, 1024},
	} {
		fw := newFlowWindow(c.bytes, cfg, core.SenderStats{}, 0)
		if got := fw.room(core.SenderStats{}, 1<<20); fw.pkts != c.pkts || got != c.room {
			t.Errorf("window of %d bytes: %d packets with room for %d, want %d and %d", c.bytes, fw.pkts, got, c.pkts, c.room)
		}
	}
}

// TestWindowForgivesLossNotSlowness: first sends lost on the wire are never
// reported received; the waits that run out on them write them off, so a
// lossy path completes, and a path that dies outright keeps being probed
// a window at a time rather than once. A receiver that is only slow — its
// acknowledgements further apart than IdlePoll — is not forgiven the queue
// it has yet to drain.
func TestWindowForgivesLossNotSlowness(t *testing.T) {
	const packets, window = 4096, 256
	t.Run("lossy", func(t *testing.T) {
		snd, rcv, cfg := simEndpoints(packets)
		fw := newFlowWindow(window<<10, cfg, snd.Stats(), 2*time.Millisecond)
		sim := slowReceiverSim(&fw)
		sim.lose = func(n int) bool { return n%3 == 0 } // a third of everything
		st := sim.run(t, snd, rcv)
		if !rcv.Complete() || sim.firstLost != 0 {
			t.Fatalf("complete %v, %d first sends found the queue full", rcv.Complete(), sim.firstLost)
		}
		// Every window's worth of lost first sends costs one wait; more
		// than that and losses are closing the window for good.
		if limit := packets/3/window + packets/window; sim.timeouts > limit {
			t.Fatalf("%d waits ran out, want at most %d", sim.timeouts, limit)
		}
		if st.Waste() > 0.8 {
			t.Fatalf("waste %.0f%% at 33%% loss", 100*st.Waste())
		}
	})
	t.Run("dead", func(t *testing.T) {
		snd, _, cfg := simEndpoints(packets)
		fw := newFlowWindow(window<<10, cfg, snd.Stats(), 2*time.Millisecond)
		for wave := 1; wave <= 3; wave++ {
			for fw.room(snd.Stats(), 1) > 0 {
				snd.NextPacket()
			}
			if sent := snd.Stats().PacketsSent; sent != wave*window {
				t.Fatalf("wave %d: %d packets out, want %d", wave, sent, wave*window)
			}
			// A few IdlePolls of silence say nothing yet: no round trip has
			// been probed, and the first acknowledgement may simply be slow.
			fw.quiet(snd.Stats(), firstWaits*2*time.Millisecond)
			if fw.room(snd.Stats(), 1) > 0 {
				t.Fatalf("wave %d: written off after %d IdlePolls", wave, firstWaits)
			}
			fw.quiet(snd.Stats(), 2*firstWaits*2*time.Millisecond)
		}
	})
	t.Run("slow", func(t *testing.T) {
		snd, rcv, cfg := simEndpoints(packets)
		fw := newFlowWindow(window<<10, cfg, snd.Stats(), 2*time.Millisecond)
		sim := slowReceiverSim(&fw)
		// Sixty-four packets take 3.2 ms: every wait for the next
		// acknowledgement runs out IdlePoll first, the one for the first
		// acknowledgement included.
		sim.drain = 50 * time.Microsecond
		sim.run(t, snd, rcv)
		if sim.timeouts < packets/64/2 {
			t.Fatalf("only %d waits ran out: the receiver is not slower than IdlePoll, and the test shows nothing", sim.timeouts)
		}
		// Retransmissions are not the window's business: once everything
		// has gone out once, each wait that runs out starts another turn.
		if sim.firstLost != 0 || fw.forgiven != 0 {
			t.Fatalf("%d first sends found the queue full, %d written off; want none of either",
				sim.firstLost, fw.forgiven)
		}
	})
}

// TestWindowDoesNotChargeTheWire: the window is widened by the packets the
// receiver reported over the latest minimum round trip — in flight, in no
// buffer — so a long fat path is not held to a window per round trip.
func TestWindowDoesNotChargeTheWire(t *testing.T) {
	cfg := core.NewSender(makeObj(1024), core.Config{PacketSize: 1024}).Config()
	fw := newFlowWindow(256<<10, cfg, core.SenderStats{}, 0)
	t0 := time.Unix(100, 0)
	fw.rtt(30 * time.Millisecond)
	fw.rtt(10 * time.Millisecond)
	if fw.minRTT != 10*time.Millisecond || fw.lastRTT != 15*time.Millisecond {
		t.Fatalf("after probes of 30 and 10 ms: shortest %v, latest %v; want 10 ms and half of 30", fw.minRTT, fw.lastRTT)
	}
	fw.rtt(50 * time.Millisecond)
	fw.news(t0) // opens the measuring stretch
	fw.ack(600)
	fw.news(t0.Add(5 * time.Millisecond)) // shorter than a round trip: not yet
	if fw.onWire != 0 {
		t.Fatalf("allowance %d after half a round trip", fw.onWire)
	}
	fw.ack(1000)
	fw.news(t0.Add(20 * time.Millisecond))
	// 1000 packets in 20 ms is 500 per 10 ms round trip, less the interval
	// the probe's acknowledgement waited out in the receiver.
	if want := 500 - cfg.AckFrequency; fw.onWire != want {
		t.Fatalf("allowance %d packets, want %d", fw.onWire, want)
	}
	sent := core.SenderStats{PacketsSent: 1000 + 256 + 400 - cfg.AckFrequency}
	if got := fw.room(sent, 1000); got != 100 {
		t.Fatalf("room for %d packets with %d outstanding, want 100 (256 and what is on the wire)", got, sent.PacketsSent-1000)
	}
	// Forgiveness taken back: the receiver reports more than was charged.
	fw.quiet(sent, time.Second)
	fw.ack(sent.PacketsSent)
	if got, want := fw.room(sent, 1000), 256+500-cfg.AckFrequency; got != want || fw.forgiven != 0 {
		t.Fatalf("room %d, forgiven %d after a late report; want %d and 0", got, fw.forgiven, want)
	}
}

// TestWindowAccountAllocatesNothing: the account rides the sender's hot
// loop.
func TestWindowAccountAllocatesNothing(t *testing.T) {
	cfg := core.NewSender(makeObj(1024), core.Config{PacketSize: 1024}).Config()
	fw := newFlowWindow(1<<20, cfg, core.SenderStats{}, 0)
	st := core.SenderStats{PacketsSent: 5000, PacketsNeeded: 1 << 20}
	now := time.Unix(1, 0)
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Millisecond)
		st.PacketsSent += 64
		fw.ack(st.PacketsSent - 100)
		fw.rtt(time.Millisecond)
		fw.news(now)
		fw.quiet(st, time.Millisecond)
		fw.room(st, 32)
	}); n != 0 {
		t.Fatalf("%v allocations per look", n)
	}
}

// --- real sockets ----------------------------------------------------------

// grantedFor binds an endpoint asking for that receive buffer and returns
// what it says the kernel granted.
func grantedFor(t *testing.T, request int) int {
	t.Helper()
	l, err := Listen("127.0.0.1:0", Options{ReadBuffer: request})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	granted, requested := l.ReadBuffer()
	if requested != request {
		t.Fatalf("ReadBuffer reports %d requested, want %d", requested, request)
	}
	return granted
}

// TestReadBufferGrantIsReadBack: the endpoint knows what the kernel granted,
// not just what it asked for — a request beyond the system's limit is cut
// down without an error — and advertises its window from that.
func TestReadBufferGrantIsReadBack(t *testing.T) {
	small := grantedFor(t, 256<<10)
	if small == 0 {
		t.Skip("this platform does not report the granted buffer")
	}
	if small != 256<<10 {
		t.Fatalf("asked for 256 KiB, granted %d", small)
	}
	if huge := grantedFor(t, 1<<30); huge >= 1<<30 || huge < small {
		t.Fatalf("asked for 1 GiB, granted %d (256 KiB request: %d): expected the system's limit in between", huge, small)
	}
	l, err := Listen("127.0.0.1:0", Options{ReadBuffer: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if w := l.window(1).Bytes(); w != 128<<10 {
		t.Fatalf("window of one flow into 256 KiB: %d bytes, want half", w)
	}
	if w := l.window(4).Bytes(); w != 32<<10 {
		t.Fatalf("window of each of four flows into 256 KiB: %d bytes, want an eighth", w)
	}
}

// pushThrough sends objs one after another to an endpoint bound with listen,
// whose receiving side dawdles between one transfer and the next, and
// returns the sender's summed statistics and the endpoint's socket counters,
// what it dropped summed over the transfers.
func pushThrough(t *testing.T, listen, send Options, objs [][]byte, ps int, dawdle time.Duration) (core.SenderStats, stats.IOCounters) {
	t.Helper()
	var rio stats.IOCounters
	listen.IOCounters = &rio
	l, err := Listen("127.0.0.1:0", listen)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	overflow := 0
	received := make(chan error, 1)
	go func() {
		for i, obj := range objs {
			got, _, err := l.Accept(ctx)
			if err == nil && !bytes.Equal(got, obj) {
				err = errors.New("not delivered intact")
			}
			if err != nil {
				received <- fmt.Errorf("object %d: %w", i, err)
				return
			}
			overflow += rio.RecvOverflow
			time.Sleep(dawdle) // a receiver in no hurry holds no sender up
		}
		received <- nil
	}()
	var sum core.SenderStats
	for i, obj := range objs {
		st, err := Send(ctx, l.Addr(), obj, core.Config{PacketSize: ps, Transfer: uint32(100 * (i + 1))}, send)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		sum.PacketsSent += st.PacketsSent
		sum.PacketsNeeded += st.PacketsNeeded
	}
	if err := <-received; err != nil {
		t.Fatal(err)
	}
	rio.RecvOverflow = overflow
	return sum, rio
}

// TestWindowKeepsSmallBufferFromOverflowing: a receiver whose socket buffer
// is an eighth of the object (per flow: each flow's window is counted as two
// acknowledgement intervals at the least, whatever its share), and a sender on
// the same host that can fill it in a fraction of a millisecond. Nothing is
// dropped at the socket, on either socket path, one flow or four.
func TestWindowKeepsSmallBufferFromOverflowing(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket bulk transfer skipped in -short mode")
	}
	objs := [][]byte{makeObj(4 << 20), makeObj(4<<20 + 1), makeObj(4<<20 + 2)}
	for i := range objs {
		objs[i][0] = byte(i)
	}
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		for _, streams := range []int{1, 4} {
			listen := Options{ReadBuffer: streams << 19, NoFastPath: noFastPath}
			st, rio := pushThrough(t, listen, Options{Streams: streams, NoFastPath: noFastPath}, objs, 1024, 5*time.Millisecond)
			t.Logf("streams %d: sent %d for %d (waste %.1f%%), %d dropped at the socket",
				streams, st.PacketsSent, st.PacketsNeeded, 100*st.Waste(), rio.RecvOverflow)
			// Under the race detector a receive loop falls silent for longer
			// than any round trip the sender has probed, and a window is now
			// and then written off that was only late: bounded there, exact
			// everywhere else.
			drops, waste := 0, 0.25
			if raceEnabled {
				drops, waste = st.PacketsNeeded/20, 3
			}
			if rio.RecvOverflow > drops {
				t.Errorf("streams %d: %d dropped at the receiver's socket", streams, rio.RecvOverflow)
			}
			if st.Waste() > waste {
				t.Errorf("streams %d: sent %d packets for %d", streams, st.PacketsSent, st.PacketsNeeded)
			}
		}
	})
}

// TestOverflowIsCounted: the counter the test above relies on does count — a
// push into a small buffer with no window advertised overruns it, and the
// endpoint says so. Vectored path only: the scalar path does not read the
// count. A receive loop with a core to itself can keep up with a sender for a
// while, so the push gets a few tries.
func TestOverflowIsCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket bulk transfer skipped in -short mode")
	}
	if !FastPathAvailable() {
		t.Skip("vectored fast path not available in this build")
	}
	objs := [][]byte{makeObj(8 << 20)}
	for try := 1; ; try++ {
		st, rio := pushThrough(t, Options{ReadBuffer: 64 << 10, testNoWindow: true}, Options{}, objs, 1024, 0)
		t.Logf("try %d: sent %d for %d, %d dropped at the socket", try, st.PacketsSent, st.PacketsNeeded, rio.RecvOverflow)
		if rio.RecvOverflow > 0 {
			return
		}
		if try == 5 {
			t.Fatal("an 8 MiB push into a 64 KiB buffer with no flow control dropped nothing, or nothing was counted")
		}
	}
}

// TestWindowDoesNotCapLongFatPath: 50 ms on the way there and a 256 KiB
// buffer make a window per round trip 2.6 MB/s. The window is for the
// receiver's buffer, not for the wire: the transfer must run well above that.
func TestWindowDoesNotCapLongFatPath(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	const (
		delay  = 50 * time.Millisecond
		buffer = 256 << 10
		size   = 4 << 20
	)
	l, err := Listen("127.0.0.1:0", Options{ReadBuffer: buffer})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if granted, _ := l.ReadBuffer(); granted != buffer {
		t.Skipf("kernel granted %d of %d", granted, buffer)
	}
	proxy, err := faultnet.NewProxy(l.Addr(), faultnet.New(faultnet.Policy{Seed: 5, Delay: 1, DelayBy: delay}))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(size)
	var got []byte
	var rerr error
	accepted := make(chan struct{})
	go func() { defer close(accepted); got, _, rerr = l.Accept(ctx) }()
	start := time.Now()
	st, err := Send(ctx, proxy.Addr(), obj, core.Config{PacketSize: 1024}, Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	<-accepted
	if rerr != nil || !bytes.Equal(got, obj) {
		t.Fatalf("receive: err=%v, intact=%v", rerr, bytes.Equal(got, obj))
	}
	window := l.window(1).Bytes()
	capped := time.Duration(float64(size) / float64(window) * float64(delay)) // one window per (one-way) round trip
	t.Logf("%d bytes in %v (a window of %d per %v would take %v); sent %d for %d",
		size, elapsed, window, delay, capped, st.PacketsSent, st.PacketsNeeded)
	if elapsed > capped/2 {
		t.Fatalf("transfer took %v: held to a window per round trip (%v)", elapsed, capped)
	}
}

// TestWindowWaitsForgiveAndStallStillFires: the path dies in mid-transfer
// with the window full. The waits run out and write off what is outstanding —
// the sender goes on probing, a window per wait, not a turn — and the stall
// watchdog ends it on time.
func TestWindowWaitsForgiveAndStallStillFires(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		const (
			buffer   = 256 << 10
			stall    = 400 * time.Millisecond
			idlePoll = 20 * time.Millisecond
			packets  = 16 << 10
		)
		l, err := Listen("127.0.0.1:0", Options{ReadBuffer: buffer, NoFastPath: noFastPath})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		proxy, err := faultnet.NewProxy(l.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		go l.Accept(ctx)

		// The path dies once a tenth of the object has gone out.
		var emitted, atDeath, diedAt atomic.Int64
		opts := Options{StallTimeout: stall, IdlePoll: idlePoll, NoFastPath: noFastPath}
		opts.testFlushHook = func(k, m int) {
			if n := emitted.Add(int64(m)); n >= packets/10 && atDeath.CompareAndSwap(0, n) {
				proxy.SetBlackhole(true)
				diedAt.Store(time.Now().UnixNano())
			}
		}
		st, err := Send(ctx, proxy.Addr(), makeObj(packets<<10), core.Config{PacketSize: 1024}, opts)
		if !errors.Is(err, ErrStalled) || st.Stalls != 1 {
			t.Fatalf("err = %v, Stalls = %d; want ErrStalled and 1", err, st.Stalls)
		}
		// The last acknowledgement came shortly before the path died, or —
		// what was in flight then — shortly after.
		if silent := time.Since(time.Unix(0, diedAt.Load())); silent < stall-stall/4 || silent > stall+stall/2+10*idlePoll {
			t.Fatalf("watchdog fired %v after the path died, want %v and a few waits of %v", silent, stall, idlePoll)
		}
		window := max(l.window(1).Bytes()>>10, 2*core.DefaultAckFrequency)
		after := int(emitted.Load() - atDeath.Load())
		t.Logf("%d packets went out after the path died, a window being %d", after, window)
		if after < 3*window {
			t.Fatalf("%d packets after the path died: the full window wedged the sender (window %d)", after, window)
		}
		// A wait per IdlePoll, a window (and what was in flight when the path
		// died) per wait.
		if limit := (int(stall/idlePoll) + 4) * 2 * window; after > limit {
			t.Fatalf("%d packets after the path died, want at most %d", after, limit)
		}
	})
}
