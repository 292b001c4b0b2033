package core

import (
	"fmt"
	"sync"
	"time"
)

// A driver is told to wait for the pacing clock only once the clock is
// paceGrain ahead, since operating system timers cannot wait more briefly; a
// clock fallen more than PaceBurst behind is clamped, so an idle spell banks
// one burst at most.
const paceGrain, PaceBurst = time.Millisecond, time.Millisecond

// pacer is the sender loop's pacing clock: the instant before which nothing
// more may go out. Each paced round moves it on by gap × packets sent from
// where it stood, not from when the round left, so what a wait oversleeps is
// repaid by the rounds after it and the wire carries the rate asked for. It
// reads no clock; Step passes now, on the driver's clock. Zero is a clock
// never charged, which the first charge clamps like any other fallen behind.
type pacer struct{ next time.Duration }

// charge books sent packets at gap each, at now, and returns the instant the
// driver must wait for before the next round: zero when it need not wait.
func (p *pacer) charge(now, gap time.Duration, sent int) time.Duration {
	if gap <= 0 || sent <= 0 {
		return 0
	}
	if floor := now - PaceBurst; p.next < floor || p.next == 0 {
		p.next = floor
	}
	p.next += gap * time.Duration(sent)
	if p.next-now < paceGrain {
		return 0
	}
	return p.next
}

// capMaxBacklog bounds how far ahead of now a RateCap's schedule may run.
// Once flows have reserved this much future wire time the cap stops charging
// new rounds and holds every flow at the starvation floor: charging further
// would grow a debt the flows can never sleep off, each already pacing as
// slowly as the controller contract allows.
const capMaxBacklog = time.Second

// RateCap is a pacing clock several senders share (SetPace): it bounds their
// combined on-the-wire bit rate, payload plus UDP/IP overhead as SABUL counts
// it, to a limit — the per-tenant ceiling an orchestrator imposes so one
// tenant's transfers cannot monopolise the uplink. One flow alone paces at
// the cap; flows sharing it queue behind each other. It composes with each
// sender's controller rather than replacing it: a round takes the stricter of
// the policy's verdict and the cap's, so an AIMD flow under a cap still
// halves on loss and never exceeds the ceiling even where the network would
// let it.
//
// Like the pacer it reads no clock and runs on the senders' time.Duration
// clock, each sender's reading offset to the cap's, and banks PaceBurst of a
// schedule that fell behind. It is a pacing device, not an admission
// controller: the controller contract grants every flow at least one packet
// per MaxControllerGap, so a cap below flows/MaxControllerGap packets a second
// cannot be honoured — the starvation floor wins, and a capped flow still
// trips its stall watchdog rather than freezing. Its methods are safe for
// concurrent use.
type RateCap struct {
	bps float64

	mu sync.Mutex
	// next is where the schedule's next bit may be placed on the wire;
	// reservations push it on, a schedule fallen behind is clamped.
	next time.Duration
}

// NewRateCap builds a shared cap of bitsPerSecond on-the-wire bits per
// second, whose clock reads zero now. bitsPerSecond must be positive.
func NewRateCap(bitsPerSecond float64) (*RateCap, error) {
	if !(bitsPerSecond > 0) {
		return nil, fmt.Errorf("core: rate cap %v b/s is not positive", bitsPerSecond)
	}
	return &RateCap{bps: bitsPerSecond}, nil
}

// Limit returns the configured cap in bits per second.
func (c *RateCap) Limit() float64 { return c.bps }

// grant reserves up to want packets of bitsPerPkt on-the-wire bits each at
// the head of the schedule, at now on the cap's clock, for a flow whose last
// reservation ended at end. It returns how many the round may send, the
// per-packet gap that spreads them, and where this reservation ends. The gap
// covers the schedule from end to the new head — the flow's own packets plus
// what other flows reserved in between, never its own earlier reservations
// again — under MaxControllerGap. The batch shrinks before the gap clamps, so
// the aggregate rate holds however many flows share the cap; only the
// starvation floor, one packet per MaxControllerGap per flow, leaks past it.
func (c *RateCap) grant(now time.Duration, want int, bitsPerPkt float64, end time.Duration) (n int, gap, next time.Duration) {
	want = max(want, 1)
	perPkt := time.Duration(bitsPerPkt / c.bps * float64(time.Second))
	c.mu.Lock()
	defer c.mu.Unlock()
	floor := now - PaceBurst
	c.next = max(c.next, floor)
	if c.next-now >= capMaxBacklog || perPkt > MaxControllerGap {
		// Far ahead, or the cap is below one flow's floor: hold the flow at
		// the starvation floor without charging the schedule further.
		return 1, MaxControllerGap, end
	}
	// end was once the schedule's head, which never moves back: queued ≥ 0.
	queued := c.next - max(end, floor)
	n = want
	for n > 1 && (queued+time.Duration(n)*perPkt)/time.Duration(n) > MaxControllerGap {
		n--
	}
	c.next += time.Duration(n) * perPkt
	return n, min((queued+time.Duration(n)*perPkt)/time.Duration(n), MaxControllerGap), c.next
}
