// Congestion control on sockets. The policies — the Controller interface, its
// five implementations and the one table that names them — live in
// internal/core, and so does what slows every policy down from outside: the
// core.Sender every engine drives feeds its controller, adds a fixed pace to
// each round's gap and charges a shared rate cap (Sender.SetPace), so nothing
// here observes an acknowledgement or sets a gap on a controller's behalf.
// What is this package's own is what only a socket runtime has: the name a
// caller selects a policy by (Options.Congestion), and the wall clock the
// shared cap's is converted from.
package udprt

import (
	"time"

	"github.com/hpcnet/fobs/internal/core"
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

// RateCap bounds the aggregate send rate of every transfer whose Options
// carry it: core's shared pacing clock (core.RateCap), with the instant its
// clock reads zero on this runtime's. One RateCap may be shared by any number
// of concurrent Sends and by every stripe within them; its methods are safe
// for concurrent use.
type RateCap struct {
	*core.RateCap
	epoch time.Time
}

// NewRateCap builds a shared cap of bitsPerSecond on-the-wire bits per
// second. bitsPerSecond must be positive.
func NewRateCap(bitsPerSecond float64) (*RateCap, error) {
	c, err := core.NewRateCap(bitsPerSecond)
	if err != nil {
		return nil, err
	}
	return &RateCap{RateCap: c, epoch: time.Now()}, nil
}

// slow hands a stripe's sender what slows it from outside its policy:
// o.Pace, and o.RateCap with the engine's clock converted once — start, the
// instant the sender's step clock reads zero, on the cap's.
func (o Options) slow(snd *core.Sender, start time.Time) {
	if c := o.RateCap; c != nil {
		snd.SetPace(o.Pace, c.RateCap, start.Sub(c.epoch))
	} else {
		snd.SetPace(o.Pace, nil, 0)
	}
}
