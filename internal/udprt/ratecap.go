// Aggregate rate caps over the pluggable congestion controllers: a
// RateCap is a shared token schedule ("virtual clock") that bounds the
// combined on-the-wire bit rate of every flow holding a reference to it —
// the per-tenant ceiling a transfer-orchestration daemon imposes so one
// tenant's queue cannot monopolize the uplink. The cap composes with the
// selected Options.Congestion policy rather than replacing it: each
// sender's controller is wrapped (slowedController, congestion.go) so that
// every observation reaches the inner policy and, per round, the stricter of
// the policy's pacing and the cap's wins — an AIMD flow under a cap still
// halves on loss, it just also never exceeds its tenant's ceiling even when
// the network would let it.
//
// The cap is deliberately a pacing device, not an admission controller:
// the engine contract guarantees every flow at least one packet per
// MaxControllerGap, so a cap set below flows/MaxControllerGap packets
// per second cannot be fully honoured — the documented starvation floor
// wins (a capped flow must still trip the stall watchdog, never freeze).
package udprt

import (
	"fmt"
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/core"
)

// capMaxBacklog bounds how far ahead of real time the shared schedule may
// run. Once flows have reserved this much future wire time the cap stops
// charging new rounds and just holds every flow at the starvation floor —
// charging further would grow an unbounded debt the flows can never sleep
// off (each is already pacing as slowly as the engine contract allows).
const capMaxBacklog = time.Second

// RateCap bounds the aggregate send rate of every transfer whose Options
// carry it. One RateCap may be shared by any number of concurrent Sends
// (and by every stripe within them); the combined on-the-wire rate —
// payload plus UDP/IP header overhead, matching the SABUL controller's
// accounting — stays at or under the configured bits per second. All
// methods are safe for concurrent use.
type RateCap struct {
	bps float64

	mu sync.Mutex
	// next is when the schedule's next bit may be placed on the wire;
	// reservations push it forward, real time drags it back.
	next time.Time
}

// NewRateCap builds a shared cap of bitsPerSecond on-the-wire bits per
// second. bitsPerSecond must be positive.
func NewRateCap(bitsPerSecond float64) (*RateCap, error) {
	if !(bitsPerSecond > 0) {
		return nil, fmt.Errorf("udprt: rate cap %v b/s is not positive", bitsPerSecond)
	}
	return &RateCap{bps: bitsPerSecond}, nil
}

// Limit returns the configured cap in bits per second.
func (c *RateCap) Limit() float64 { return c.bps }

// grant reserves up to want packets of bitsPerPkt on-the-wire bits each
// against the shared schedule, returning how many the round may send and
// the per-packet pacing gap that spreads them (plus any backlog other
// flows reserved first) under the engine's MaxControllerGap bound. The
// batch shrinks before the gap clamps, so the aggregate rate holds even
// when many flows share one cap; only the starvation floor (one packet
// per MaxControllerGap per flow) is allowed to leak past it.
func (c *RateCap) grant(want int, bitsPerPkt float64) (n int, gap time.Duration) {
	if want < 1 {
		want = 1
	}
	perPkt := time.Duration(bitsPerPkt / c.bps * float64(time.Second))
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if c.next.Before(now) {
		c.next = now
	}
	backlog := c.next.Sub(now)
	if backlog >= capMaxBacklog || perPkt > core.MaxControllerGap {
		// Far behind (or the cap is below one flow's floor): hold the flow
		// at the starvation floor without charging the schedule further.
		return 1, core.MaxControllerGap
	}
	n = want
	for n > 1 && (backlog+time.Duration(n)*perPkt)/time.Duration(n) > core.MaxControllerGap {
		n--
	}
	c.next = c.next.Add(time.Duration(n) * perPkt)
	gap = (backlog + time.Duration(n)*perPkt) / time.Duration(n)
	if gap > core.MaxControllerGap {
		gap = core.MaxControllerGap
	}
	return n, gap
}
