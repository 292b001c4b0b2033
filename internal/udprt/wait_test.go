package udprt

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// The sender's wait discipline: after one full turn of the circular buffer
// without an acknowledgement the engine blocks on its ack socket until news,
// the verdict, ctx or the idle poll. Every scenario runs on both socket
// paths. The tests set the idle poll far above a loopback round trip, so a wake
// that only the timeout delivered shows up as a missed deadline.

// TestSenderSilentAfterFullTurn: with every acknowledgement black-holed the
// sender puts each packet on the wire once, then once more per idle poll —
// not once per trip round its loop.
func TestSenderSilentAfterFullTurn(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		const (
			packets  = 64
			idlePoll = 10 * time.Millisecond
			window   = 50 * time.Millisecond
		)
		ep := listen(t, byAccept, Options{NoFastPath: noFastPath})
		proxy := ep.front(nil)
		proxy.SetBlackhole(true)
		obj := makeObj(packets << 10)
		ep.recv(1)

		var emitted atomic.Int64
		opts := Options{idlePoll: idlePoll, NoFastPath: noFastPath}
		opts.testFlushHook = func(k, m int) { emitted.Add(int64(m)) }
		sent := make(chan error, 1)
		start := time.Now()
		go func() {
			_, err := Send(ep.ctx, proxy.Addr(), obj, core.Config{PacketSize: 1024}, opts)
			sent <- err
		}()
		time.Sleep(window) // scenario: the window the emitted packets are counted over
		inWindow, elapsed := emitted.Load(), time.Since(start)
		proxy.SetBlackhole(false)

		if err := <-sent; err != nil {
			t.Fatalf("send: %v", err)
		}
		ep.delivered(obj)
		if inWindow < packets {
			t.Fatalf("only %d packets emitted in %v: the window missed the first turn", inWindow, elapsed)
		}
		if limit := int64(packets) * int64(elapsed/idlePoll+2); inWindow > limit {
			t.Fatalf("%d packets emitted in %v without an acknowledgement, want at most %d (one turn of %d per %v)",
				inWindow, elapsed, limit, packets, idlePoll)
		}
	})
}

// TestWaitWokenByAckAndVerdict drives a sender by hand: after its first turn
// it is blocked with a one-second idle poll, and an acknowledgement, then the
// COMPLETE, must each get it moving in a fraction of that. An acknowledgement
// too long for the ring slot is not news.
func TestWaitWokenByAckAndVerdict(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		const (
			packets = 64
			prompt  = 200 * time.Millisecond
		)
		fake := newFakeReceiver(t, true)
		go fake.acceptHandshake()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		obj := makeObj(packets << 10)
		sent := make(chan error, 1)
		go func() {
			_, err := Send(ctx, fake.addr(), obj, core.Config{PacketSize: 1024, Transfer: 3},
				Options{idlePoll: time.Second, NoFastPath: noFastPath})
			sent <- err
		}()
		from, err := fake.readData(packets, 5*time.Second)
		if err != nil {
			t.Fatalf("first turn: %v", err)
		}
		if _, err := fake.readData(1, prompt/2); !isTimeout(err) {
			t.Fatalf("sender kept sending after a full turn (err=%v)", err)
		}

		// Claims everything received, in more words than any ack for this
		// transfer may carry: truncated by the slot, it must fail to decode.
		oversized := wire.AppendAck(nil, &wire.Ack{Transfer: 3, AckSeq: 1, Received: packets,
			Frag: bitmap.Fragment{Words: make([]uint64, 200)}})
		if _, err := fake.udp.WriteToUDPAddrPort(oversized, from); err != nil {
			t.Fatal(err)
		}
		if _, err := fake.readData(1, prompt/2); !isTimeout(err) {
			t.Fatalf("an acknowledgement longer than its slot moved the sender (err=%v)", err)
		}

		half := wire.AppendAck(nil, &wire.Ack{Transfer: 3, AckSeq: 1, Received: 32, Delta: 32,
			Frag: bitmap.Fragment{Words: []uint64{1<<32 - 1}}})
		if _, err := fake.udp.WriteToUDPAddrPort(half, from); err != nil {
			t.Fatal(err)
		}
		if _, err := fake.readData(packets-32, prompt); err != nil {
			t.Fatalf("second turn did not follow the acknowledgement within %v: %v", prompt, err)
		}
		if _, err := fake.readData(1, prompt/2); !isTimeout(err) {
			t.Fatalf("sender sent more than the unacknowledged half (err=%v)", err)
		}

		<-fake.done
		verdictAt := time.Now()
		// The stub's COMPLETE carries the tag of the identity the CHECK
		// announced.
		answered := recvPlan{base: 3, objectSize: uint64(len(obj)), checkDigest: core.ContentID(obj)}
		if err := writeControl(fake.ctl, completeFrame(answered)); err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("send: %v", err)
		}
		if took := time.Since(verdictAt); took > prompt {
			t.Fatalf("Send returned %v after COMPLETE, want under %v", took, prompt)
		}
	})
}

// TestWaitWokenByCancel: cancellation reaches a blocked engine at once, and
// is announced on the control channel.
func TestWaitWokenByCancel(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		fake := newFakeReceiver(t, true)
		go fake.acceptHandshake()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sent := make(chan error, 1)
		go func() {
			_, err := Send(ctx, fake.addr(), makeObj(64<<10), core.Config{PacketSize: 1024},
				Options{idlePoll: 5 * time.Second, NoFastPath: noFastPath})
			sent <- err
		}()
		if _, err := fake.readData(64, 5*time.Second); err != nil {
			t.Fatalf("first turn: %v", err)
		}
		cancelledAt := time.Now()
		cancel()
		select {
		case err := <-sent:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cancellation did not wake the blocked sender")
		}
		if took := time.Since(cancelledAt); took > 200*time.Millisecond {
			t.Fatalf("Send returned %v after cancellation", took)
		}
		fake.expectAbort(wire.AbortCancelled)
	})
}

// TestLoopbackSendDoesNotWaitOutIdlePoll: end to end, the completion ack and
// the COMPLETE end a transfer long before a coarse idle poll would.
func TestLoopbackSendDoesNotWaitOutIdlePoll(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		obj := makeObj(64 << 10)
		start := time.Now()
		opts := Options{idlePoll: time.Second, NoFastPath: noFastPath}
		sst := push(t, obj, core.Config{PacketSize: 1024}, opts, opts).sst
		if took := time.Since(start); took > 200*time.Millisecond {
			t.Fatalf("64 KiB loopback transfer took %v under a 1s idle poll", took)
		}
		if sst.PacketsSent > 2*sst.PacketsNeeded {
			t.Fatalf("sent %d packets for an object of %d", sst.PacketsSent, sst.PacketsNeeded)
		}
	})
}

// readDeadlinePassed reports whether c carries a read deadline in the past:
// a raw read is refused before it reaches the socket exactly then.
func readDeadlinePassed(t *testing.T, c *net.UDPConn) bool {
	t.Helper()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	return rc.Read(func(uintptr) bool { return true }) != nil
}

// TestSessionSocketsReusableAfterKickedWait: the verdict's wake-up is a read
// deadline on the session's long-lived data sockets, and must not outlive
// the Send that it ended.
func TestSessionSocketsReusableAfterKickedWait(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		ep := listen(t, bySession, Options{NoFastPath: noFastPath})
		const objects = 3
		ep.recv(objects)
		s, err := OpenSession(ep.ctx, ep.l.Addr(), Options{idlePoll: time.Second, Streams: 2, NoFastPath: noFastPath})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < objects; i++ {
			obj := makeObj(64<<10 + i)
			obj[0] = byte(i) // distinct content: a dedup hit would skip the data phase
			start := time.Now()
			if _, err := s.Send(ep.ctx, obj, core.Config{PacketSize: 1024}); err != nil {
				t.Fatalf("object %d: %v", i, err)
			}
			if took := time.Since(start); took > 200*time.Millisecond {
				t.Fatalf("object %d took %v under a 1s idle poll", i, took)
			}
			for j, c := range s.conns {
				if readDeadlinePassed(t, c) {
					t.Fatalf("object %d: data socket %d came back with a read deadline in the past", i, j)
				}
			}
			ep.delivered(obj)
		}
	})
}

// TestStallWatchdogBetweenWaits: a silent receiver still trips the watchdog
// at StallTimeout when the engine spends its time blocked, checking between
// waits.
func TestStallWatchdogBetweenWaits(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		fake := newFakeReceiver(t, true)
		go fake.acceptHandshake()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		const (
			stall    = 300 * time.Millisecond
			idlePoll = 50 * time.Millisecond
		)
		start := time.Now()
		sst, err := Send(ctx, fake.addr(), makeObj(64<<10), core.Config{PacketSize: 1024},
			Options{StallTimeout: stall, idlePoll: idlePoll, NoFastPath: noFastPath})
		elapsed := time.Since(start)
		if !errors.Is(err, ErrStalled) || sst.Stalls != 1 {
			t.Fatalf("err = %v, Stalls = %d; want ErrStalled and 1", err, sst.Stalls)
		}
		if elapsed < stall || elapsed > stall+10*idlePoll {
			t.Fatalf("watchdog fired after %v, want %v plus at most a few waits of %v", elapsed, stall, idlePoll)
		}
		if turns := int(stall/idlePoll) + 2; sst.PacketsSent > turns*sst.PacketsNeeded {
			t.Fatalf("sent %d packets to a silent receiver, want at most %d turns of %d",
				sst.PacketsSent, turns, sst.PacketsNeeded)
		}
		fake.expectAbort(wire.AbortStalled)
	})
}

// TestSenderModelsTheReceiversAckCadence: every socket receiver acknowledges
// every core.DefaultAckFrequency packets, whatever the sender was configured
// with, so a sender told AckFrequency 8 still keeps its window at no less
// than two of the receiver's intervals: against a one-packet window and no
// acknowledgement it sends 2 × DefaultAckFrequency packets and waits — not
// 2 × 8, the floor of a cadence that never arrives.
func TestSenderModelsTheReceiversAckCadence(t *testing.T) {
	eachIOPath(t, func(t *testing.T, noFastPath bool) {
		fake := newFakeReceiver(t, true)
		fake.window = wire.WindowOf(1024) // one packet
		go fake.acceptHandshake()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var emitted atomic.Int64
		// Waits far longer than the test: nothing is written off.
		opts := Options{idlePoll: time.Second, NoFastPath: noFastPath}
		opts.testFlushHook = func(k, m int) { emitted.Add(int64(m)) }
		sent := make(chan error, 1)
		go func() {
			_, err := Send(ctx, fake.addr(), makeObj(1<<20), core.Config{PacketSize: 1024, AckFrequency: 8}, opts)
			sent <- err
		}()
		floor := int64(2 * core.DefaultAckFrequency)
		waitUntil(t, 5*time.Second, lazy(func() string {
			return fmt.Sprintf("%d packets of a window floor of %d", emitted.Load(), floor)
		}), func() bool { return emitted.Load() >= floor })
		time.Sleep(20 * time.Millisecond) // scenario: the sender is now waiting, and stays silent
		if n := emitted.Load(); n != floor {
			t.Fatalf("%d packets went out against a one-packet window, want the floor of %d", n, floor)
		}
		cancel()
		<-sent
	})
}
