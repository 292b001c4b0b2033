package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/bitmap"
	"github.com/hpcnet/fobs/internal/wire"
)

// The flow account: the half of the send decision that says whether a look
// may send at all. A greedy and a windowed sender against one slow receiver,
// and the account forgiving loss but not slowness over a whole transfer, run
// on the simulator (internal/simrun); the window on real sockets is
// internal/udprt's window_test.go.

// flowSender builds a sender of a packets-long object of 1 KiB packets with a
// flow of windowBytes installed, its waits lasting idle.
func flowSender(packets, windowBytes int, idle time.Duration) *Sender {
	s := NewSender(makeObject(packets<<10), Config{PacketSize: 1024, Transfer: 9})
	s.SetFlow(windowBytes, idle)
	return s
}

// TestWindowFloorAndShare: the window is the advertised bytes in packets, and
// never counted as less than two acknowledgement intervals — below that the
// acknowledgement that would reopen it might never be sent.
func TestWindowFloorAndShare(t *testing.T) {
	for _, c := range []struct{ bytes, pkts, room int }{
		{0, 0, 1 << 20}, {2, 1, 2 * DefaultAckFrequency}, {64 << 10, 64, 2 * DefaultAckFrequency}, {1 << 20, 1024, 1024},
	} {
		fw := &flowSender(1, c.bytes, 0).flow
		if got := fw.room(SenderStats{}, 1<<20); fw.pkts != c.pkts || got != c.room {
			t.Errorf("window of %d bytes: %d packets with room for %d, want %d and %d", c.bytes, fw.pkts, got, c.pkts, c.room)
		}
	}
}

// TestWindowForgivesLossNotSlowness: a path that dies outright keeps being
// probed a window at a time rather than once: the waits that run out on the
// first sends lost on it write them off. The same rule on a lossy path and
// against a receiver that is only slow runs over whole transfers in
// internal/simrun.
func TestWindowForgivesLossNotSlowness(t *testing.T) {
	const packets, window = 4096, 256
	t.Run("dead", func(t *testing.T) {
		snd := flowSender(packets, window<<10, 2*time.Millisecond)
		fw := &snd.flow
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
}

// TestWindowDoesNotChargeTheWire: the window is widened by the packets the
// receiver reported over the latest minimum round trip — in flight, in no
// buffer — so a long fat path is not held to a window per round trip.
func TestWindowDoesNotChargeTheWire(t *testing.T) {
	fw := &flowSender(1, 256<<10, 0).flow
	t0 := 100 * time.Second
	fw.rtt(30 * time.Millisecond)
	fw.rtt(10 * time.Millisecond)
	if fw.minRTT != 10*time.Millisecond || fw.lastRTT != 15*time.Millisecond {
		t.Fatalf("after probes of 30 and 10 ms: shortest %v, latest %v; want 10 ms and half of 30", fw.minRTT, fw.lastRTT)
	}
	fw.rtt(50 * time.Millisecond)
	fw.news(t0) // opens the measuring stretch
	fw.ack(600)
	fw.news(t0 + 5*time.Millisecond) // shorter than a round trip: not yet
	if fw.onWire != 0 {
		t.Fatalf("allowance %d after half a round trip", fw.onWire)
	}
	fw.ack(1000)
	fw.news(t0 + 20*time.Millisecond)
	// 1000 packets in 20 ms is 500 per 10 ms round trip, less the interval
	// the probe's acknowledgement waited out in the receiver.
	if want := 500 - DefaultAckFrequency; fw.onWire != want {
		t.Fatalf("allowance %d packets, want %d", fw.onWire, want)
	}
	sent := SenderStats{PacketsSent: 1000 + 256 + 400 - DefaultAckFrequency}
	if got := fw.room(sent, 1000); got != 100 {
		t.Fatalf("room for %d packets with %d outstanding, want 100 (256 and what is on the wire)", got, sent.PacketsSent-1000)
	}
	// Forgiveness taken back: the receiver reports more than was charged.
	fw.quiet(sent, time.Second)
	fw.ack(sent.PacketsSent)
	if got, want := fw.room(sent, 1000), 256+500-DefaultAckFrequency; got != want || fw.forgiven != 0 {
		t.Fatalf("room %d, forgiven %d after a late report; want %d and 0", got, fw.forgiven, want)
	}
}

// TestWindowAccountAllocatesNothing: the account rides the sender's hot loop,
// fed and asked through the calls the engine and the simulator make.
func TestWindowAccountAllocatesNothing(t *testing.T) {
	snd := flowSender(1<<14, 1<<20, time.Millisecond)
	var now time.Duration
	serial := uint32(0)
	if n := testing.AllocsPerRun(100, func() {
		now += time.Millisecond
		snd.planRound(now)
		for i := 0; i < 64; i++ {
			snd.NextPacket()
		}
		serial++
		snd.HandleAck(wire.Ack{Transfer: 9, AckSeq: serial, Received: uint32(snd.Stats().PacketsSent - 100),
			Frag: bitmap.Fragment{Start: 0}})
		snd.look(now, 32)
		snd.quiet(now + time.Millisecond)
	}); n != 0 {
		t.Fatalf("%v allocations per look", n)
	}
}

// sendSequence runs a transfer of 2048 packets through an in-memory network
// that loses one packet in ten and returns each acknowledgement one look
// later, and returns the sequence numbers sent and the looks that waited
// instead, in one sequence (a wait is ^0), and how many waits ran out. Each
// look may send what the
// sender's look allows — with a window-0 flow installed — or, with none, what
// the turn-over rule alone allows, counted here: once as many packets have
// gone out since the last acknowledgement as are not known received, the look
// waits, and a wait with no acknowledgement on its way runs out and starts a
// new turn.
func sendSequence(t *testing.T, flowed bool) (seqs []uint32, quiet int) {
	t.Helper()
	const ring = 32
	obj := makeObject(2048 * 64)
	snd := NewSender(obj, Config{PacketSize: 64, AckPacketSize: 1024, Transfer: 9})
	rcv := NewReceiver(int64(len(obj)), snd.Config())
	if flowed {
		snd.SetFlow(wire.Window(0).Bytes(), time.Millisecond)
	}
	drops := rand.New(rand.NewSource(7))
	var inFlight []wire.Ack
	turn := 0
	for now := time.Duration(0); !snd.KnownComplete(); now += time.Millisecond {
		if now > time.Hour {
			t.Fatalf("transfer did not complete: %+v", snd.Stats())
		}
		arrived := inFlight
		inFlight = nil
		for _, a := range arrived {
			if err := snd.HandleAck(a); err != nil {
				t.Fatal(err)
			}
			turn = 0
		}
		room := snd.look(now, ring)
		if !flowed {
			room = min(ring, snd.NumPackets()-snd.Stats().KnownReceived-turn)
		}
		if room <= 0 {
			seqs = append(seqs, ^uint32(0))
			if len(arrived) == 0 {
				snd.quiet(now)
				turn = 0
				quiet++
			}
			continue
		}
		for i := 0; i < room; i++ {
			pkt, ok := snd.NextPacket()
			if !ok {
				break
			}
			seqs = append(seqs, pkt.Seq)
			turn++
			if drops.Intn(10) == 0 {
				continue
			}
			due, err := rcv.HandleData(pkt)
			if err != nil {
				t.Fatal(err)
			}
			if due {
				a := rcv.BuildAck()
				a.Frag.Words = slices.Clone(a.Frag.Words) // the next BuildAck reuses them
				inFlight = append(inFlight, a)
			}
		}
	}
	return seqs, quiet
}

// TestNoWindowAdvertisedIsTheOldSender: a receiver that advertises nothing —
// one that predates the window — is sent to packet for packet as the
// turn-over rule alone would send to it.
func TestNoWindowAdvertisedIsTheOldSender(t *testing.T) {
	before, quietBefore := sendSequence(t, false)
	after, quietAfter := sendSequence(t, true)
	if !slices.Equal(before, after) || quietBefore != quietAfter {
		t.Fatalf("send sequences differ: %d packets and waits, %d run out, by the turn-over rule; %d and %d with no window advertised",
			len(before), quietBefore, len(after), quietAfter)
	}
	if quietBefore == 0 {
		t.Fatal("no wait ever ran out: no turn ended, and the test shows nothing")
	}
}
