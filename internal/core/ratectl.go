package core

import (
	"fmt"
	"math"
	"time"

	"github.com/hpcnet/fobs/internal/wire"
)

// Controller is the sender's pluggable rate-control policy: the paper's
// greedy protocol, the two §7 future-work responses ("decrease the
// greediness", "switch to a high-performance TCP algorithm") and the related
// work FOBS positions itself against (a TCP-friendly window, SABUL's
// loss-means-congestion rate loop) behind one interface. A Sender feeds its
// controller and plans every round through it (Step), so each policy
// runs unchanged over the simulator (internal/simrun) and over sockets
// (internal/udprt).
//
// Contract (the conformance harness in ratectl_test.go holds all five to
// it): a controller belongs to one Sender and is driven from that sender's
// one goroutine — no locking, never shared; no method allocates or reads a
// clock; Tick(max) with max >= 1 returns a batch in [1, max] and a gap in
// [0, MaxControllerGap]; and no controller paces a flow to a standstill —
// once a loss burst clears, clean acknowledgement intervals restore a
// positive sending rate.
type Controller interface {
	// OnAck observes one fresh acknowledgement interval.
	OnAck(AckEvent)
	// OnLoss observes retransmit-classified losses, always before the
	// OnAck or Tick that follows the sends they were counted in.
	OnLoss(LossEvent)
	// OnRTT observes one measured round trip (a probed data packet's
	// send-to-acknowledgement time). Samples are sparse — one probe is in
	// flight at a time — and absent until acknowledgements flow.
	OnRTT(sample time.Duration)
	// Tick returns the directive for the next batch round; max is the batch
	// policy's ask (always >= 1).
	Tick(max int) Directive
	// Name is the policy's display name.
	Name() string
}

// AckEvent is one fresh acknowledgement interval: the receiver advanced its
// ack serial and reported Acked packets newly received, against the Sent
// packets the sender selected since the previous fresh acknowledgement.
// Stale (reordered) acknowledgements are not reported — their bitmap still
// merges, but they carry no fresh rate signal.
type AckEvent struct {
	Sent  int
	Acked int
}

// LossEvent reports retransmit-classified losses: how many packets sent
// since the last report had already been transmitted before. Under the
// circular schedule a packet is re-sent only once every unacknowledged packet
// has had its turn, so a retransmission means the first copy was either lost
// or its acknowledgement is still in flight — the only loss signal an
// unacknowledged UDP flow has.
type LossEvent struct {
	Retransmits int
}

// Directive is a controller's command for the next batch round.
type Directive struct {
	// Batch caps the number of packets in the round; the sender clamps it to
	// [1, the batch policy's ask].
	Batch int
	// Gap is the pacing delay per packet sent this round, non-negative and
	// at most MaxControllerGap.
	Gap time.Duration
}

// MaxControllerGap bounds the per-packet pacing gap any controller may
// dictate: one packet per 50 ms is the contract's starvation floor (a
// stalled-looking flow must be the driver's stall watchdog's call, never a
// controller's).
const MaxControllerGap = 50 * time.Millisecond

// Policy names: what udprt's Options.Congestion, every CLI's -cc flag and
// fobs-sim's -rate accept. "greedy" is a second spelling of CCFixed.
const (
	CCFixed   = "fixed"
	CCAIMD    = "aimd"
	CCSABUL   = "sabul"
	CCBackoff = "backoff"
	CCHybrid  = "hybrid"
)

// policies is the one name table. Every entry builds a fresh controller:
// no two senders ever hold one.
var policies = []struct {
	name  string
	build func(packetSize int) Controller
}{
	{CCFixed, func(int) Controller { return Greedy{} }},
	{CCAIMD, func(int) Controller { return NewAIMD() }},
	{CCSABUL, func(ps int) Controller { return NewSABUL(0, float64(8*(ps+wire.UDPIPOverhead))) }},
	{CCBackoff, func(int) Controller { return &Backoff{} }},
	{CCHybrid, func(int) Controller { return &Hybrid{} }},
}

// Policies lists the selectable policy names, CCFixed first.
func Policies() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// NewController builds a fresh controller of the named policy for a flow of
// packetSize-byte packets. The empty name and "greedy" select CCFixed.
func NewController(name string, packetSize int) (Controller, error) {
	if name == "" || name == "greedy" {
		name = CCFixed
	}
	if packetSize <= 0 {
		packetSize = DefaultPacketSize
	}
	for _, p := range policies {
		if p.name == name {
			return p.build(packetSize), nil
		}
	}
	return nil, fmt.Errorf("core: unknown congestion controller %q (have %v)", name, Policies())
}

// Greedy is the paper's protocol, and CCFixed: full batches, no gap, rely on
// the circular retransmission schedule to repair whatever is lost.
type Greedy struct{}

func (Greedy) OnAck(AckEvent)         {}
func (Greedy) OnLoss(LossEvent)       {}
func (Greedy) OnRTT(time.Duration)    {}
func (Greedy) Tick(max int) Directive { return Directive{Batch: max} }
func (Greedy) Name() string           { return "greedy" }

// lossThreshold is the smoothed loss fraction above which Backoff backs off
// and Hybrid counts an interval toward TCP mode.
const lossThreshold = 0.05

// lossEstimate turns one ack interval into a smoothed loss fraction.
type lossEstimate struct {
	smoothed float64
	primed   bool
}

func (l *lossEstimate) add(sent, received int) {
	if sent <= 0 {
		return
	}
	loss := 1 - float64(received)/float64(sent)
	if loss < 0 {
		loss = 0 // receiver drained a backlog; not a congestion signal
	}
	if !l.primed {
		l.smoothed = loss
		l.primed = true
		return
	}
	l.smoothed = 0.875*l.smoothed + 0.125*loss
}

// Backoff is the "decrease the greediness" extension: multiplicative
// increase of the inter-packet gap while sustained loss exceeds
// lossThreshold, additive decay back toward full greed once it clears.
type Backoff struct {
	// MaxGap bounds the pacing gap (default 1 ms — roughly a 8 Mb/s
	// floor at 1 KB packets).
	MaxGap time.Duration
	// Step is the gap increment applied per lossy ack interval
	// (default 10 µs).
	Step time.Duration

	est lossEstimate
	gap time.Duration
}

// OnAck implements Controller.
func (b *Backoff) OnAck(ev AckEvent) {
	if b.MaxGap == 0 {
		b.MaxGap = time.Millisecond
	}
	if b.Step == 0 {
		b.Step = 10 * time.Microsecond
	}
	b.est.add(ev.Sent, ev.Acked)
	if b.est.smoothed > lossThreshold {
		if b.gap == 0 {
			b.gap = b.Step
		} else {
			b.gap *= 2
		}
		b.gap = min(b.gap, b.MaxGap, MaxControllerGap)
	} else {
		b.gap = max(b.gap-b.Step, 0)
	}
}

func (b *Backoff) OnLoss(LossEvent)       {}
func (b *Backoff) OnRTT(time.Duration)    {}
func (b *Backoff) Tick(max int) Directive { return Directive{Batch: max, Gap: b.gap} }
func (b *Backoff) Name() string           { return CCBackoff }

// Hybrid emulates the "switch to a high-performance TCP algorithm"
// extension: while sustained loss exceeds lossThreshold for Patience
// consecutive ack intervals, the sender paces itself to the TCP-friendly
// rate given by the Mathis throughput model
//
//	rate ≈ PacketSize · C / (RTT · √p)
//
// (the steady-state throughput the TCP flow it would hand off to could
// sustain), and snaps back to greed once loss stays below the threshold
// for the same number of intervals.
type Hybrid struct {
	// RTT, when set, is the path round trip the Mathis model uses. Unset,
	// it is the smoothed mean of the probed round trips, 50 ms before the
	// first.
	RTT time.Duration
	// Patience is how many consecutive ack intervals the signal must
	// persist before switching either way — the paper's "more than
	// temporary duration" (default 8).
	Patience int

	est      lossEstimate
	srtt     time.Duration
	overFor  int
	underFor int
	inTCP    bool
}

// OnAck implements Controller.
func (h *Hybrid) OnAck(ev AckEvent) {
	if h.Patience == 0 {
		h.Patience = 8
	}
	h.est.add(ev.Sent, ev.Acked)
	if h.est.smoothed > lossThreshold {
		h.overFor++
		h.underFor = 0
		if h.overFor >= h.Patience {
			h.inTCP = true
		}
	} else {
		h.underFor++
		h.overFor = 0
		if h.underFor >= h.Patience {
			h.inTCP = false
		}
	}
}

func (h *Hybrid) OnLoss(LossEvent)           {}
func (h *Hybrid) OnRTT(sample time.Duration) { h.srtt = smoothRTT(h.srtt, sample) }
func (h *Hybrid) Name() string               { return CCHybrid }

// smoothRTT folds one probed round trip into an exponentially weighted mean
// (weight 1/8, TCP's); the first sample stands for itself.
func smoothRTT(srtt, sample time.Duration) time.Duration {
	if sample <= 0 {
		return srtt
	}
	if srtt == 0 {
		return sample
	}
	return srtt - srtt/8 + sample/8
}

// InTCPMode reports whether the controller has handed off to the
// TCP-friendly rate.
func (h *Hybrid) InTCPMode() bool { return h.inTCP }

// Tick implements Controller.
func (h *Hybrid) Tick(max int) Directive {
	if !h.inTCP {
		return Directive{Batch: max}
	}
	rtt := 50 * time.Millisecond
	if h.RTT > 0 {
		rtt = h.RTT
	} else if h.srtt > 0 {
		rtt = h.srtt
	}
	// Mathis et al.: throughput = MSS/RTT · C/√p with C ≈ 1.22.
	pktPerSec := 1.22 / (rtt.Seconds() * math.Sqrt(math.Max(h.est.smoothed, 1e-4)))
	return Directive{Batch: max, Gap: min(time.Duration(float64(time.Second)/pktPerSec), MaxControllerGap)}
}

// AIMD is textbook TCP-friendly additive-increase/multiplicative-decrease
// over a congestion window measured in packets: the window grows by one
// packet per window of acknowledged data (+1 per round trip), and halves
// once per loss epoch. An epoch opens on the first retransmit-classified
// loss and closes after a window's worth of packets is acknowledged, so the
// burst of retransmissions one loss event produces triggers exactly one
// halving — TCP's once-per-RTT reaction. Pacing spreads the window over the
// measured round trip (gap = RTT/window), bounded by aimdMaxGap so the flow
// can never starve.
type AIMD struct {
	cwnd     float64       // congestion window, packets
	rtt      time.Duration // smoothed probed round trip
	blackout float64       // acked packets until the loss epoch closes
	epochs   int           // halvings
}

const (
	// aimdInitWindow is the starting congestion window in packets —
	// deliberately modest, like TCP's initial window scaled for a
	// high-bandwidth-delay path.
	aimdInitWindow = 16
	// aimdMinWindow floors the window so progress never stops.
	aimdMinWindow = 1
	// aimdMaxWindow caps the window (2^20 packets ≈ 1 GiB in flight at
	// the default packet size; past that the gap is zero anyway).
	aimdMaxWindow = 1 << 20
	// aimdInitRTT seeds pacing before the first probe resolves: 500 µs is
	// between loopback and LAN, and the mean converges within a few
	// probes either way.
	aimdInitRTT = 500 * time.Microsecond
	// aimdMaxGap bounds the per-packet gap: even a fully collapsed window
	// keeps sending at 1/aimdMaxGap packets per second.
	aimdMaxGap = 5 * time.Millisecond
)

// NewAIMD returns an AIMD controller at its initial window.
func NewAIMD() *AIMD { return &AIMD{cwnd: aimdInitWindow, rtt: aimdInitRTT} }

// OnAck implements Controller.
func (c *AIMD) OnAck(ev AckEvent) {
	if ev.Acked <= 0 {
		return
	}
	if c.blackout > 0 {
		c.blackout -= float64(ev.Acked)
		if c.blackout > 0 {
			return
		}
		c.blackout = 0
	}
	c.cwnd = min(c.cwnd+float64(ev.Acked)/c.cwnd, aimdMaxWindow)
}

// OnLoss implements Controller.
func (c *AIMD) OnLoss(ev LossEvent) {
	if ev.Retransmits <= 0 || c.blackout > 0 {
		return
	}
	c.cwnd = max(c.cwnd/2, aimdMinWindow)
	c.blackout = c.cwnd
	c.epochs++
}

func (c *AIMD) OnRTT(sample time.Duration) { c.rtt = smoothRTT(c.rtt, sample) }
func (c *AIMD) Name() string               { return CCAIMD }

// Window returns the current congestion window in packets.
func (c *AIMD) Window() float64 { return c.cwnd }

// Epochs reports how many loss epochs (halvings) the controller has
// reacted to.
func (c *AIMD) Epochs() int { return c.epochs }

// Tick implements Controller.
func (c *AIMD) Tick(max int) Directive {
	return Directive{
		Batch: min(max, int(c.cwnd)),
		Gap:   min(time.Duration(float64(c.rtt)/c.cwnd), aimdMaxGap),
	}
}

// SABUL is the rate loop of the SABUL protocol (internal/sabul runs it under
// its own NAK reports; as a policy here every fresh acknowledgement interval
// plays the report): the flow is purely rate-paced — no window, the batch
// policy's ask passes through — and an interval that saw loss multiplies the
// rate by sabulDecrease, a clean one that delivered data by sabulIncrease,
// capped at the initial rate. SABUL "makes the assumption that packet loss
// implies congestion" and probes back up only gently.
type SABUL struct {
	rate, initRate float64 // bits per second on the wire
	bitsPerPkt     float64
	lossy          bool // loss seen since the last interval
	drops, rises   int
}

const (
	// SABULInitialRate is the rate a SABUL flow starts from, and its
	// ceiling, unless told otherwise: 100 Mb/s on the wire.
	SABULInitialRate = 100e6
	// SABULMinRate floors the rate loop (1 Mb/s).
	SABULMinRate  = 1e6
	sabulDecrease = 0.875
	sabulIncrease = 1.05
)

// NewSABUL returns a SABUL controller that starts at, and never exceeds,
// initialRate bits per second (zero: SABULInitialRate), charging
// bitsPerPacket on-the-wire bits for every packet.
func NewSABUL(initialRate, bitsPerPacket float64) *SABUL {
	if initialRate == 0 {
		initialRate = SABULInitialRate
	}
	return &SABUL{rate: initialRate, initRate: initialRate, bitsPerPkt: bitsPerPacket}
}

// OnAck implements Controller.
func (c *SABUL) OnAck(ev AckEvent) {
	if c.lossy {
		c.rate = max(c.rate*sabulDecrease, SABULMinRate)
		c.drops++
	} else if ev.Acked > 0 {
		c.rate = min(c.rate*sabulIncrease, c.initRate)
		c.rises++
	}
	c.lossy = false
}

// OnLoss implements Controller.
func (c *SABUL) OnLoss(ev LossEvent) {
	if ev.Retransmits > 0 {
		c.lossy = true
	}
}

func (c *SABUL) OnRTT(time.Duration) {}
func (c *SABUL) Name() string        { return CCSABUL }

// Rate returns the current rate in bits per second; Drops and Rises count
// the intervals that lowered and raised it.
func (c *SABUL) Rate() float64 { return c.rate }
func (c *SABUL) Drops() int    { return c.drops }
func (c *SABUL) Rises() int    { return c.rises }

// Tick implements Controller.
func (c *SABUL) Tick(max int) Directive {
	gap := time.Duration(c.bitsPerPkt / c.rate * float64(time.Second))
	return Directive{Batch: max, Gap: min(gap, MaxControllerGap)}
}
