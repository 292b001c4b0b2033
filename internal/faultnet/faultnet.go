// Package faultnet injects deterministic, seeded faults into real network
// traffic so the runtime's failure handling can be exercised on genuine
// sockets: datagram drop, duplication, reordering and delay, plus severing
// of a TCP control connection mid-transfer.
//
// The paper evaluates FOBS on real WANs where loss simply happens; CI has
// loopback, where it never does. faultnet recreates the hostile network on
// loopback with a fixed seed, so a test that survives 12% loss today
// survives exactly the same 12% loss on every future run.
package faultnet

import (
	"math/rand"
	"sync"
	"time"
)

// Policy selects fault probabilities. All probabilities are in [0, 1] and
// independent; a zero Policy forwards everything untouched.
type Policy struct {
	// Seed fixes the random decision stream. The same seed and the same
	// packet sequence produce the same faults, run after run.
	Seed int64
	// Drop is the probability a datagram is silently discarded.
	Drop float64
	// Dup is the probability a datagram is delivered twice.
	Dup float64
	// Reorder is the probability a datagram is held back and delivered
	// after its successor (a one-packet swap, the common reordering shape
	// on multipath routes).
	Reorder float64
	// Delay is the probability a datagram is delivered late, after
	// DelayBy.
	Delay float64
	// DelayBy is the added latency for delayed datagrams (default 2ms).
	DelayBy time.Duration
	// Corrupt is the probability a forwarded datagram has one bit flipped
	// — corruption the network stack's checksums failed to catch, the
	// fault that end-to-end content digests exist for. Corruption draws
	// from its own seeded stream (derived from Seed), so turning the knob
	// does not reshuffle the drop/dup/reorder/delay fates.
	Corrupt float64
	// CorruptOffset is the first byte index eligible for a bit flip.
	// Tests aiming at payload corruption set it past the data header, so
	// the flip lands in object bytes (a flipped header field is just a
	// rejected packet, a different — already covered — failure mode).
	// Datagrams no longer than the offset pass untouched.
	CorruptOffset int
	// CorruptIf, when non-nil, decides corruption in place of the Corrupt
	// probability: every forwarded datagram it accepts has one bit flipped.
	// For tests that must place the damage — "whichever packet carries
	// byte N of the object", on every retransmission too.
	CorruptIf func(pkt []byte) bool
}

// Stats counts what the injector did. Retrieve a snapshot with
// Faults.Stats.
type Stats struct {
	Forwarded  int64 // datagrams passed through (including dup originals)
	Dropped    int64
	Duplicated int64
	Reordered  int64
	Delayed    int64
	Corrupted  int64
}

// Faults applies a Policy to a stream of datagrams. Safe for concurrent
// use; the decision stream is serialized under an internal lock.
type Faults struct {
	policy Policy

	mu    sync.Mutex
	rng   *rand.Rand
	crng  *rand.Rand // corruption's own stream; see Policy.Corrupt
	stats Stats
	// held is the packet withheld for reordering, waiting for a successor
	// (or the safety timer) to release it.
	held      []byte
	heldSend  func([]byte)
	heldTimer *time.Timer
}

// New builds an injector for the given policy.
func New(p Policy) *Faults {
	if p.DelayBy == 0 {
		p.DelayBy = 2 * time.Millisecond
	}
	return &Faults{
		policy: p,
		rng:    rand.New(rand.NewSource(p.Seed)),
		crng:   rand.New(rand.NewSource(p.Seed ^ 0x636f7272757074)), // "corrupt"
	}
}

// Stats returns a snapshot of the fault counters.
func (f *Faults) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// decision is one datagram's fate.
type decision struct {
	drop, dup, reorder, delay bool
}

// judge draws the datagram's fate. It always consumes exactly four values
// from the random stream, so the sequence of decisions for packet N is a
// function of the seed and N alone, not of which probabilities are zero —
// changing one knob in a test does not reshuffle every other fault.
func (f *Faults) judge() decision {
	d := decision{
		drop:    f.rng.Float64() < f.policy.Drop,
		dup:     f.rng.Float64() < f.policy.Dup,
		reorder: f.rng.Float64() < f.policy.Reorder,
		delay:   f.rng.Float64() < f.policy.Delay,
	}
	return d
}

// Apply routes one datagram through the fault model. send delivers a
// datagram onward and may be called zero, one or two times, synchronously
// or later (from a timer goroutine for delayed/held packets); it must be
// safe for that. pkt is not retained — Apply copies when it must hold a
// packet past the call.
func (f *Faults) Apply(pkt []byte, send func([]byte)) {
	f.mu.Lock()
	d := f.judge()

	if d.drop {
		f.stats.Dropped++
		f.mu.Unlock()
		return
	}

	if d.reorder && f.held == nil {
		// Withhold this packet until the next one passes (a one-packet
		// swap). The safety timer bounds the hold in case no successor
		// ever comes — the held packet might be the transfer's last.
		f.stats.Reordered++
		f.held = append([]byte(nil), pkt...)
		f.heldSend = send
		f.heldTimer = time.AfterFunc(10*time.Millisecond, f.flushHeld)
		f.mu.Unlock()
		return
	}

	f.stats.Forwarded++
	if d.dup {
		f.stats.Duplicated++
	}
	if d.delay {
		f.stats.Delayed++
	}
	pkt = f.maybeCorruptLocked(pkt)
	released, releasedSend := f.takeHeldLocked()
	f.mu.Unlock()

	if d.delay {
		cp := append([]byte(nil), pkt...)
		time.AfterFunc(f.policy.DelayBy, func() {
			send(cp)
			if d.dup {
				send(cp)
			}
		})
	} else {
		send(pkt)
		if d.dup {
			send(pkt)
		}
	}
	if released != nil {
		releasedSend(released)
	}
}

// maybeCorruptLocked flips one bit of a copy of pkt when the corruption
// stream says so, at a position past Policy.CorruptOffset. It returns the
// (possibly replaced) packet; the caller's buffer is never mutated.
// Caller holds f.mu.
func (f *Faults) maybeCorruptLocked(pkt []byte) []byte {
	if f.policy.CorruptIf != nil {
		if !f.policy.CorruptIf(pkt) {
			return pkt
		}
	} else if f.policy.Corrupt <= 0 || f.crng.Float64() >= f.policy.Corrupt {
		return pkt
	}
	if len(pkt) <= f.policy.CorruptOffset {
		return pkt
	}
	cp := append([]byte(nil), pkt...)
	idx := f.policy.CorruptOffset + f.crng.Intn(len(cp)-f.policy.CorruptOffset)
	cp[idx] ^= 1 << uint(f.crng.Intn(8))
	f.stats.Corrupted++
	return cp
}

// Flush releases any packet still withheld for reordering. Call when the
// stream ends.
func (f *Faults) Flush() {
	f.flushHeld()
}

func (f *Faults) flushHeld() {
	f.mu.Lock()
	pkt, send := f.takeHeldLocked()
	f.mu.Unlock()
	if pkt != nil {
		send(pkt)
	}
}

// takeHeldLocked claims the held packet (if any), stopping its safety
// timer. Caller holds f.mu and must invoke the returned send outside it.
func (f *Faults) takeHeldLocked() ([]byte, func([]byte)) {
	pkt, send := f.held, f.heldSend
	if pkt != nil {
		f.stats.Forwarded++
		f.heldTimer.Stop()
		f.held, f.heldSend, f.heldTimer = nil, nil, nil
	}
	return pkt, send
}
