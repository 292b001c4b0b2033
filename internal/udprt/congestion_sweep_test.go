package udprt

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/wire"
)

// startCrossTraffic blasts well-formed data datagrams carrying a foreign
// transfer tag at the receiver's data port through the same fault proxy as
// the transfer under test — competing load that the receiver's demux drops
// without touching its idle watchdog, exactly like stragglers of another
// transfer sharing the path. Returns a stop function that waits for the
// blaster to exit.
func startCrossTraffic(t *testing.T, addr string) func() {
	t.Helper()
	conn := dialData(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		payload := make([]byte, 512)
		var buf []byte
		seq := uint32(0)
		for ctx.Err() == nil {
			buf = wire.AppendData(buf[:0], &wire.Data{
				Transfer: 0xC0551234, // no real transfer uses this tag
				Seq:      seq % 4096,
				Total:    4096,
				Payload:  payload,
			})
			conn.Write(buf) // best effort; the path may drop it
			seq++
			time.Sleep(50 * time.Microsecond) // scenario: the cross-traffic's spacing
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// TestCongestionWasteSweep is the policies' end-to-end evidence: every
// policy in core's table crosses a seeded faultnet path at each loss rate, with and
// without competing cross-traffic, on both IO paths, and must deliver the
// object bit-exact. The per-run wasted-bandwidth fraction
// (core.SenderStats.Waste — packets beyond the minimum over the minimum,
// the paper's ~3% metric) is logged as the curve recorded in
// EXPERIMENTS.md. Waste is asserted only loosely (finite, and small on the
// clean path): policies differ in how much waste they trade for
// friendliness, and that difference is the experiment, not a pass/fail
// line.
func TestCongestionWasteSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("congestion sweep skipped in -short mode")
	}
	losses := []float64{0, 0.03, 0.10}
	type result struct {
		policy string
		loss   float64
		cross  bool
		fast   bool
		waste  float64
		sent   int
	}
	var mu sync.Mutex
	var results []result

	for pi, policy := range CongestionPolicies() {
		policy := policy
		t.Run("cc="+policy, func(t *testing.T) {
			for li, loss := range losses {
				for ci, cross := range []bool{false, true} {
					loss, cross := loss, cross
					seed := int64(1000 + 100*pi + 10*li + ci)
					t.Run(fmt.Sprintf("loss=%d%%/cross=%v", int(loss*100), cross), func(t *testing.T) {
						eachIOPath(t, func(t *testing.T, noFastPath bool) {
							ep := listen(t, byAccept, Options{NoFastPath: noFastPath})
							var faults *faultnet.Faults
							if loss > 0 {
								faults = faultnet.New(faultnet.Policy{
									Seed:    seed,
									Drop:    loss,
									Reorder: 0.02,
									Delay:   0.02,
									DelayBy: 500 * time.Microsecond,
								})
							}
							proxy := ep.front(faults)
							if cross {
								defer startCrossTraffic(t, proxy.Addr())()
							}

							// Big enough that the greedy sender's first circular
							// wrap happens with acks already flowing; a tiny
							// object makes every policy look maximally wasteful
							// (whole-object resends before the first ack lands).
							obj := makeObj(1<<20 + 7)
							// The paper's greedy sender runs at a configured
							// rate matched to the path (here: what the proxy
							// forwards without drowning), and so do its two §7
							// responses, which are that sender until loss has
							// lasted; the policies that discover their rate
							// get only a token base pace. Both are the
							// per-packet intervals a sender that paid pacing
							// as a sleep-rounded debt achieved on this path at
							// 15 µs and 5 µs, the paces this curve was first
							// recorded at (its data phase, 12% to 90% of the
							// object confirmed, ran at 22–23.5 µs and
							// 9.5–9.7 µs a packet), and a paced sender keeps
							// to the gap it is given.
							pace := 22 * time.Microsecond
							if policy == CCAIMD || policy == CCSABUL {
								pace = 10 * time.Microsecond
							}
							sst := ep.pushOK(obj, core.Config{AckFrequency: 32}, Options{
								Congestion: policy,
								Pace:       pace,
								NoFastPath: noFastPath,
							}).sst
							// Conservation: every completed transfer sent each
							// packet at least once, so the overshoot is exactly
							// the retransmit-classified count the controllers
							// keyed off.
							if sst.PacketsSent != sst.PacketsNeeded+sst.Retransmits {
								t.Fatalf("retransmit conservation: sent=%d needed=%d retx=%d",
									sst.PacketsSent, sst.PacketsNeeded, sst.Retransmits)
							}
							w := sst.Waste()
							if w < 0 || w > 5 {
								t.Fatalf("waste %.3f outside any sane range", w)
							}
							if loss == 0 && !cross && w > 0.5 {
								t.Fatalf("clean-path waste %.3f; expected near the paper's few percent", w)
							}
							t.Logf("policy=%s loss=%.2f cross=%v fast=%v: sent=%d needed=%d retx=%d waste=%.2f%%",
								policy, loss, cross, !noFastPath,
								sst.PacketsSent, sst.PacketsNeeded, sst.Retransmits, 100*w)
							mu.Lock()
							results = append(results, result{policy, loss, cross, !noFastPath, w, sst.PacketsSent})
							mu.Unlock()
						})
					})
				}
			}
		})
	}
	// The assembled curve, one line per scenario, for EXPERIMENTS.md.
	for _, r := range results {
		t.Logf("waste-curve: policy=%-5s loss=%.2f cross=%-5v fast=%-5v waste=%.2f%%",
			r.policy, r.loss, r.cross, r.fast, 100*r.waste)
	}
}
