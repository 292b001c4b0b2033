package simrun

import (
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/netsim"
	"github.com/hpcnet/fobs/internal/wire"
)

// Flow control on the simulator: the sender the socket runtime runs — the
// receive window and the turn-over rule installed (Sender().SetFlow) — against
// a receiver host slower than its sender, next to the paper's sender, which
// finds the receiver's rate by overflowing its socket buffer.

const (
	// slowWindow is the window the slow receiver advertises, in packets: half
	// of what its socket buffer holds, as a real endpoint advertises half its
	// buffer.
	slowWindow = 256
	// slowIdle is the sender's wait for news, the socket runtime's IdlePoll.
	slowIdle = 2 * time.Millisecond
	// slowAckBuild is what building one acknowledgement costs the receiver.
	slowAckBuild = time.Microsecond
)

// slowReceiverPath builds a short 10 Gb/s path, two hops through a router,
// from a sender that puts a 1 KiB packet out in 1 µs to a receiver host that
// takes perPacket to read one, and whose socket buffer holds twice slowWindow
// of them.
func slowReceiverPath(perPacket time.Duration) *netsim.Path {
	wireSize := core.DefaultPacketSize + wire.DataHeaderLen + wire.UDPIPOverhead
	hop := netsim.LinkConfig{Rate: 10e9, Delay: 5 * time.Microsecond, QueueBytes: 4 << 20}
	return netsim.BuildPath(1, netsim.PathSpec{
		Name:  "slow-receiver",
		HostA: netsim.HostConfig{SendProcPerPacket: time.Microsecond},
		HostB: netsim.HostConfig{RXBufBytes: 2 * slowWindow * wireSize, ProcPerPacket: perPacket},
		Links: []netsim.LinkConfig{hop, hop},
	})
}

// loseEveryThird sends r's data packets by way of a relay beside the path's
// router that passes two of every three on to the receiver: a third of
// everything is lost on the wire, before it reaches the receiver's buffer.
func loseEveryThird(r *FOBSRun) {
	n := r.path.Net
	relay := n.NewHost("relay", netsim.HostConfig{RXBufBytes: 64 << 20})
	n.Connect(relay, r.path.Routers[0], r.path.Forward[0].Config())
	n.ComputeRoutes()
	dst, seen := r.dataAddr, 0
	var sock *netsim.UDPSocket
	sock = relay.OpenUDP(dst.Port, func(p *netsim.Packet) {
		if seen++; seen%3 != 0 {
			sock.SendTo(dst, p.Size, p.Payload)
		}
	})
	r.dataAddr = relay.Addr(dst.Port)
}

// slowReceiverRun wires a transfer of obj in 1 KiB packets over p, with
// acknowledgements long enough that one bitmap fragment covers the object
// whole, and the receive window installed when windowed.
func slowReceiverRun(p *netsim.Path, obj []byte, windowed bool) *FOBSRun {
	r := NewFOBS(p, obj, core.Config{AckPacketSize: 4096, Discard: true},
		Options{AckBuildTime: slowAckBuild, IdlePoll: slowIdle})
	if windowed {
		r.Sender().SetFlow(slowWindow*core.DefaultPacketSize, slowIdle)
	}
	return r
}

// TestWindowHoldsSenderToReceiver: a receiver half as fast as its sender.
// Told nothing, the paper's sender overruns its socket buffer and sends much
// of the object twice; told the window, the same sender overflows nothing,
// sends next to nothing twice, and keeps the receiver busy throughout.
func TestWindowHoldsSenderToReceiver(t *testing.T) {
	const packets = 16384
	obj := makeObj(packets << 10)
	greedy := slowReceiverRun(slowReceiverPath(2*time.Microsecond), obj, false).Run()
	if !greedy.Completed || greedy.Extra["drops_rxbuf"] == 0 || greedy.Waste() < 0.2 {
		t.Fatalf("with no window: completed %v, %v dropped at the receiver, waste %.1f%% — this receiver cannot be overrun, and the test below shows nothing",
			greedy.Completed, greedy.Extra["drops_rxbuf"], 100*greedy.Waste())
	}
	res := slowReceiverRun(slowReceiverPath(2*time.Microsecond), obj, true).Run()
	if !res.Completed {
		t.Fatalf("windowed transfer incomplete: %+v", res)
	}
	if res.Extra["drops_rxbuf"] != 0 || res.Waste() > 0.05 {
		t.Fatalf("with the window: %v dropped at the receiver, waste %.1f%%; want none and at most 5%%",
			res.Extra["drops_rxbuf"], 100*res.Waste())
	}
	if res.Extra["waits_out"] > 1 {
		t.Fatalf("%v waits ran out on a lossless path: the sender is not ack-clocked", res.Extra["waits_out"])
	}
	// The receiver is the bottleneck and must never have run dry.
	floor := packets*2*time.Microsecond + packets/core.DefaultAckFrequency*slowAckBuild
	if res.Elapsed > floor+floor/10 {
		t.Fatalf("took %v, the receiver alone needs %v", res.Elapsed, floor)
	}
	t.Logf("greedy: waste %.1f%%, %v dropped, %v; windowed: waste %.1f%%, %v dropped, %v; the receiver alone %v",
		100*greedy.Waste(), greedy.Extra["drops_rxbuf"], greedy.Elapsed, 100*res.Waste(), res.Extra["drops_rxbuf"], res.Elapsed, floor)
}

// TestWindowForgivesLossNotSlowness: first sends lost on the wire are never
// reported received; the waits that run out on them write them off, so a
// lossy path completes. A receiver that is only slow — its acknowledgements
// further apart than the sender's wait — is not forgiven the queue it has yet
// to drain. (A path that dies outright is internal/core's half of this test.)
func TestWindowForgivesLossNotSlowness(t *testing.T) {
	const packets = 4096
	obj := makeObj(packets << 10)
	t.Run("lossy", func(t *testing.T) {
		r := slowReceiverRun(slowReceiverPath(2*time.Microsecond), obj, true)
		loseEveryThird(r)
		res := r.Run()
		if !res.Completed || res.Extra["drops_rxbuf"] != 0 {
			t.Fatalf("complete %v, %v packets found the receiver's buffer full", res.Completed, res.Extra["drops_rxbuf"])
		}
		// Every window's worth of lost first sends costs one wait; more
		// than that and losses are closing the window for good.
		if limit := packets/3/slowWindow + packets/slowWindow; res.Extra["waits_out"] > float64(limit) {
			t.Fatalf("%v waits ran out, want at most %d", res.Extra["waits_out"], limit)
		}
		if res.Waste() > 0.8 {
			t.Fatalf("waste %.0f%% at 33%% loss", 100*res.Waste())
		}
		t.Logf("waste %.1f%%, %v waits ran out, %v first sends written off, %v",
			100*res.Waste(), res.Extra["waits_out"], res.Extra["written_off"], res.Elapsed)
	})
	t.Run("slow", func(t *testing.T) {
		// Sixty-four packets take 3.2 ms: every wait for the next
		// acknowledgement runs out first, the one for the first
		// acknowledgement included.
		res := slowReceiverRun(slowReceiverPath(50*time.Microsecond), obj, true).Run()
		if !res.Completed {
			t.Fatalf("transfer incomplete: %+v", res)
		}
		if res.Extra["waits_out"] < packets/64/2 {
			t.Fatalf("only %v waits ran out: the receiver is not slower than the wait, and the test shows nothing", res.Extra["waits_out"])
		}
		// Retransmissions are not the window's business: once everything
		// has gone out once, each wait that runs out starts another turn.
		if res.Extra["drops_rxbuf"] != 0 || res.Extra["written_off"] != 0 {
			t.Fatalf("%v packets found the receiver's buffer full, %v written off; want none of either",
				res.Extra["drops_rxbuf"], res.Extra["written_off"])
		}
		t.Logf("waste %.1f%%, %v waits ran out, %v", 100*res.Waste(), res.Extra["waits_out"], res.Elapsed)
	})
}
