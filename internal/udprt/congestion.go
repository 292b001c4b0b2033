// Congestion control on sockets. The policies — the Controller interface, its
// five implementations and the one table that names them — live in
// internal/core, and the core.Sender every engine drives is what feeds them
// and plans each round (Sender.PlanRound): nothing here observes an
// acknowledgement or counts a retransmission on a controller's behalf. What
// is this package's own is what only a socket runtime has: the name a caller
// selects a policy by (Options.Congestion), and the two ways a deployment
// slows every policy down from outside — the fixed Options.Pace and the
// shared Options.RateCap — which wrap whichever controller was built.
package udprt

import (
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// Controller policy names, the values Options.Congestion and the CLIs' -cc
// flag accept, out of core's table; CongestionPolicies lists all of them.
const (
	// CCFixed is the paper's greedy sender: no batch cap, no pacing beyond
	// Options.Pace. The default.
	CCFixed = core.CCFixed
	// CCAIMD is the TCP-friendly additive-increase/multiplicative-decrease
	// window policy.
	CCAIMD = core.CCAIMD
	// CCSABUL is SABUL-style multiplicative rate probing.
	CCSABUL = core.CCSABUL
)

// CongestionPolicies lists every accepted Options.Congestion value, in the
// order the benches sweep them.
func CongestionPolicies() []string { return core.Policies() }

// newController builds one stripe's controller for one attempt — always a
// fresh one, so no two senders share a policy's state — failing on a name
// the table does not have. Options.Pace and Options.RateCap, when set, wrap
// it.
func newController(opts Options, packetSize int) (core.Controller, error) {
	cc, err := core.NewController(opts.Congestion, packetSize)
	if err != nil || (opts.Pace == 0 && opts.RateCap == nil) {
		return cc, err
	}
	return &slowedController{
		Controller: cc, pace: opts.Pace, cap: opts.RateCap,
		bitsPerPkt: float64(8 * (packetSize + wire.UDPIPOverhead)),
	}, nil
}

// slowedController post-processes a policy's directive: Options.Pace is added
// to the gap, and the shared RateCap, when there is one, then takes the
// stricter of the two verdicts — smaller batch, longer gap. Observations pass
// through untouched. Like every controller it is driven from its sender's
// single goroutine and allocates nothing per round; the state behind the cap
// is a mutex-guarded timestamp, touched once per batch round, never per
// packet.
type slowedController struct {
	core.Controller
	pace       time.Duration
	cap        *RateCap
	bitsPerPkt float64
	capEnd     time.Time // where this stripe's last reservation on the cap ends
}

func (c *slowedController) Tick(max int) core.Directive {
	d := c.Controller.Tick(max)
	d.Gap += c.pace
	if c.cap == nil {
		return d
	}
	n, gap, end := c.cap.grant(min(max, d.Batch), c.bitsPerPkt, c.capEnd)
	c.capEnd = end
	if d.Gap > gap {
		gap = d.Gap
	}
	return core.Directive{Batch: n, Gap: gap}
}
