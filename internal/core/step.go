package core

import (
	"time"

	"github.com/hpcnet/fobs/internal/wire"
)

// Vector is a driver's half of a look: the slots a step fills and the wire
// they are flushed to — the socket engine's ring, the simulator's NIC. Its
// methods may read the sender but must not drive it.
type Vector interface {
	// Len is the most packets one flush carries and one look sends; a step
	// reads it once.
	Len() int
	// Round hears of each round planned: its batch and per-packet gap.
	Round(batch int, gap time.Duration)
	// Put frames pkt into slot i; idx is its place in its round.
	Put(i int, pkt wire.Data, idx int)
	// Flush puts slots [0, k) on the wire and returns how many it took; ok
	// false, a short or failed write, ends the look.
	Flush(k int) (sent int, ok bool)
}

// Wait is what a step leaves its driver waiting for, until the instant Step
// returns with it.
type Wait uint8

const (
	// Poll: nothing; look again as soon as the driver can.
	Poll Wait = iota
	// News: an acknowledgement, the verdict, or the idle poll's end
	// (SetFlow's idle after the step; at once with no flow). A step at or
	// after it that found no acknowledgement takes the wait for run out.
	News
	// Pace: the pacing instant. Acknowledgements are taken as they land; a
	// step before it sends nothing.
	Pace
)

// loop is what Step keeps between looks: the pacing clock, and what the last
// step said to wait for, until when.
type loop struct {
	pace pacer
	wait Wait
	at   time.Duration
}

// Step is one look of the sender loop both drivers run, at now on the
// driver's clock (zero when the data phase began), after HandleAck took the
// acknowledgements the look found. It decides whether to wait for news, wait
// for the pacing instant, or send through v. Rounds are planned one at a
// time and put one behind another into v, which is flushed when it is full,
// when the look's room is used up, and after a round that carries a gap:
// such a round goes out alone, whole, and ends the look, and the pacing clock
// moves on by its gap for every packet the wire took.
func (s *Sender) Step(now time.Duration, v Vector) (Wait, time.Duration) {
	l := &s.loop
	if l.wait == News && !s.flow.fresh && now >= l.at {
		s.quiet(now)
	}
	size := v.Len()
	room := s.look(now, size)
	if l.wait == Pace && now < l.at {
		return Pace, l.at
	}
	l.wait, l.at = Poll, 0
	var gap time.Duration // of the last round planned
	fill, sent, gapFrom, ok := 0, 0, 0, room > 0
	flush := func() {
		m, more := v.Flush(fill)
		ok, fill, sent = more, 0, sent+m
	}
	for ok && fill < room {
		var batch int
		batch, gap = s.planRound(now)
		v.Round(batch, gap)
		if gap == 0 {
			batch = min(batch, room-fill)
		} else if fill > 0 {
			flush() // what is queued leaves ahead of a paced round
		}
		gapFrom = sent
		n := 0
		for ; ok && n < batch; n++ {
			if fill == size {
				if flush(); !ok {
					break
				}
			}
			pkt, more := s.NextPacket()
			if !more {
				break
			}
			v.Put(fill, pkt, n)
			fill++
		}
		if n == 0 || gap > 0 {
			break
		}
	}
	if ok && fill > 0 {
		flush()
	}
	if sent == 0 { // no room, nothing to send, or the write failed
		l.wait, l.at = News, now+s.flow.idle
	} else if l.at = l.pace.charge(now, gap, sent-gapFrom); l.at > 0 {
		l.wait = Pace
	}
	return l.wait, l.at
}
