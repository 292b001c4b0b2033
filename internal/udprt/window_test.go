package udprt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/stats"
)

// The receive window on real sockets, where the queue is the kernel's and
// SO_RXQ_OVFL does the counting. The sender's account itself, and a greedy and
// a windowed sender against one slow receiver on a deterministic clock, are
// tested where they live: internal/core (flow_test.go) and internal/simrun.

// grantedFor binds an endpoint asking for that receive buffer and returns
// what it says the kernel granted.
func grantedFor(t *testing.T, request int) int {
	t.Helper()
	ep := listen(t, byAccept, Options{readBuffer: request})
	defer ep.close()
	granted, requested := ep.l.ReadBuffer()
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
	l := listen(t, byAccept, Options{readBuffer: 256 << 10}).l
	if w := l.window(1).Bytes(); w != 128<<10 {
		t.Fatalf("window of one flow into 256 KiB: %d bytes, want half", w)
	}
	if w := l.window(4).Bytes(); w != 32<<10 {
		t.Fatalf("window of each of four flows into 256 KiB: %d bytes, want an eighth", w)
	}
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
			var rio stats.IOCounters
			ep := listen(t, byAccept, Options{readBuffer: streams << 19, NoFastPath: noFastPath, IOCounters: &rio})
			var st core.SenderStats
			dropped := 0
			for i, obj := range objs {
				p := ep.pushOK(obj, core.Config{PacketSize: 1024, Transfer: uint32(100 * (i + 1))}, Options{Streams: streams, NoFastPath: noFastPath})
				st.PacketsSent += p.sst.PacketsSent
				st.PacketsNeeded += p.sst.PacketsNeeded
				dropped += rio.RecvOverflow
				time.Sleep(5 * time.Millisecond) // scenario: a receiver in no hurry holds no sender up
			}
			ep.close()
			t.Logf("streams %d: sent %d for %d (waste %.1f%%), %d dropped at the socket",
				streams, st.PacketsSent, st.PacketsNeeded, 100*st.Waste(), dropped)
			// Under the race detector a receive loop falls silent for longer
			// than any round trip the sender has probed, and a window is now
			// and then written off that was only late: bounded there, exact
			// everywhere else.
			drops, waste := 0, 0.25
			if raceEnabled {
				drops, waste = st.PacketsNeeded/20, 3
			}
			if dropped > drops {
				t.Errorf("streams %d: %d dropped at the receiver's socket", streams, dropped)
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
	obj := makeObj(8 << 20)
	for try := 1; ; try++ {
		var rio stats.IOCounters
		st := push(t, obj, core.Config{PacketSize: 1024, Transfer: 100}, Options{},
			Options{readBuffer: 64 << 10, testNoWindow: true, IOCounters: &rio}).sst
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
	ep := listen(t, byAccept, Options{readBuffer: buffer})
	if granted, _ := ep.l.ReadBuffer(); granted != buffer {
		t.Skipf("kernel granted %d of %d", granted, buffer)
	}
	ep.front(faultnet.New(faultnet.Policy{Seed: 5, Delay: 1, DelayBy: delay}))
	obj := makeObj(size)
	ep.recv(1)
	start := time.Now()
	st, err := Send(ep.ctx, ep.addr(), obj, core.Config{PacketSize: 1024}, Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	ep.delivered(obj)
	window := ep.l.window(1).Bytes()
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
		ep := listen(t, byAccept, Options{readBuffer: buffer, NoFastPath: noFastPath})
		proxy := ep.front(nil)
		ep.recv(1)

		// The path dies once a tenth of the object has gone out. The sender's
		// last acknowledgement is stamped as it is processed.
		var emitted, atDeath, diedAt, lastAck atomic.Int64
		opts := Options{StallTimeout: stall, idlePoll: idlePoll, NoFastPath: noFastPath,
			Progress: func(int, int) { lastAck.Store(time.Now().UnixNano()) }}
		opts.testFlushHook = func(k, m int) {
			if n := emitted.Add(int64(m)); n >= packets/10 && atDeath.CompareAndSwap(0, n) {
				proxy.SetBlackhole(true)
				diedAt.Store(time.Now().UnixNano())
			}
		}
		st, err := Send(ep.ctx, proxy.Addr(), makeObj(packets<<10), core.Config{PacketSize: 1024}, opts)
		if !errors.Is(err, ErrStalled) || st.Stalls != 1 {
			t.Fatalf("err = %v, Stalls = %d; want ErrStalled and 1", err, st.Stalls)
		}
		// The watchdog counts from the last acknowledgement: shortly before
		// the path died, or — what was in flight then — shortly after, or,
		// on a busy host whose receiver fell behind, a while before.
		if silent := time.Since(time.Unix(0, lastAck.Load())); silent < stall-stall/4 || silent > stall+stall/2+10*idlePoll {
			t.Fatalf("watchdog fired %v after the last acknowledgement (%v after the path died), want %v and a few waits of %v",
				silent, time.Since(time.Unix(0, diedAt.Load())), stall, idlePoll)
		}
		window := max(ep.l.window(1).Bytes()>>10, 2*core.DefaultAckFrequency)
		after := int(emitted.Load() - atDeath.Load())
		t.Logf("%d packets went out after the path died, a window being %d", after, window)
		if after < 3*window {
			t.Fatalf("%d packets after the path died: the full window wedged the sender (window %d)", after, window)
		}
		// A wait per idle poll, a window (and what was in flight when the path
		// died) per wait.
		if limit := (int(stall/idlePoll) + 4) * 2 * window; after > limit {
			t.Fatalf("%d packets after the path died, want at most %d", after, limit)
		}
	})
}
