package udprt

import "time"

// The engine waits for its pacing clock only once the clock is paceGrain
// ahead, since operating system timers cannot wait more briefly; a clock
// fallen more than paceBurst behind is clamped, so an idle spell banks one
// burst at most.
const paceGrain, paceBurst = time.Millisecond, time.Millisecond

// pacer is a sender engine's pacing clock: the instant before which nothing
// more may go out. Each paced round moves it on by gap × packets sent from
// where it stood, not from when the round left, so what a wait oversleeps is
// repaid by the rounds after it and the wire carries the rate asked for. It
// reads no clock; the engine passes now.
type pacer struct{ next time.Time }

// charge books sent packets at gap each, at now, and returns the instant the
// engine must wait for before the next round: zero when it need not wait.
func (p *pacer) charge(now time.Time, gap time.Duration, sent int) time.Time {
	if gap <= 0 || sent <= 0 {
		return time.Time{}
	}
	if floor := now.Add(-paceBurst); p.next.Before(floor) {
		p.next = floor
	}
	p.next = p.next.Add(gap * time.Duration(sent))
	if p.next.Sub(now) < paceGrain {
		return time.Time{}
	}
	return p.next
}
