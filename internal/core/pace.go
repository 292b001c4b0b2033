package core

import "time"

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
