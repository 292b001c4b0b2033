// Package core implements FOBS (Fast Object-Based data transfer System),
// the user-level communication protocol of Dickens & Gropp (HPDC 2002), as
// a pair of IO-free state machines.
//
// An object-based transfer assumes the user-level buffer spans the whole
// object, so both the send window and the selective-acknowledgement window
// are effectively infinite: every fixed-size packet in the object is
// numbered, the receiver tracks per-packet received/not-received status in
// a bitmap, and acknowledgement packets carry fragments of that bitmap at a
// user-chosen frequency.
//
// The sender loops over the paper's three phases:
//
//  1. batch-send: place a policy-chosen number of packets on the wire
//     without blocking (NextPacket, repeated BatchSize times);
//  2. poll — never block — for an acknowledgement (HandleAck when the
//     driver has one);
//  3. choose the next packet among the unacknowledged ones (the circular
//     schedule the paper found best, or an ablation alternative).
//
// The state machines perform no IO and never read a clock, which is what
// lets the same code run over the netsim substrate (internal/simrun) and
// over real UDP sockets (internal/udprt), and makes them directly
// property-testable.
package core

import (
	"fmt"
	"math/rand"
)

// Defaults mirroring the paper's experimental setup.
const (
	// DefaultPacketSize is the paper's 1024-byte data packet payload.
	DefaultPacketSize = 1024
	// DefaultBatch is the batch-send size the paper found best ("two
	// packets per batch-send operation provided the best performance").
	DefaultBatch = 2
	// DefaultAckFrequency is a mid-range acknowledgement frequency
	// (packets received between acks); Figures 1 and 2 sweep this.
	DefaultAckFrequency = 64
)

// BatchPolicy decides how many packets the sender places on the network
// before next looking for an acknowledgement (paper §3.1, phase one).
type BatchPolicy interface {
	// Next returns the size of the next batch-send. lastDelta is the
	// number of packets the receiver reported newly received in the most
	// recent acknowledgement interval (zero before the first ack);
	// unacked is the number of packets not yet known to be received.
	Next(lastDelta, unacked int) int
	Name() string
}

// FixedBatch always returns its value; FixedBatch(2) is the paper's tuned
// sender.
type FixedBatch int

// Next implements BatchPolicy.
func (b FixedBatch) Next(lastDelta, unacked int) int { return int(b) }

// Name implements BatchPolicy.
func (b FixedBatch) Name() string { return fmt.Sprintf("fixed(%d)", int(b)) }

// AdaptiveBatch sizes each batch by the receiver's recently observed
// delivery rate, clamped to [Min, Max] — the paper's suggestion that the
// inter-ack delivery count "can then be used to determine the number of
// packets to send in the next batch-send operation".
type AdaptiveBatch struct {
	Min, Max int
}

// Next implements BatchPolicy.
func (b AdaptiveBatch) Next(lastDelta, unacked int) int {
	n := lastDelta
	if n < b.Min {
		n = b.Min
	}
	if n > b.Max {
		n = b.Max
	}
	if n > unacked {
		n = unacked
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Name implements BatchPolicy.
func (b AdaptiveBatch) Name() string { return fmt.Sprintf("adaptive(%d..%d)", b.Min, b.Max) }

// Schedule selects which packet, out of all unacknowledged packets, is
// transmitted next (paper §3.1, phase three).
type Schedule int

const (
	// Circular treats the object as a circular buffer: a packet is
	// retransmitted for the n+1-st time only when every other
	// unacknowledged packet has been retransmitted n times, and nothing
	// is retransmitted while any packet was never sent. The paper found
	// this best "by far".
	Circular Schedule = iota
	// Restart always retransmits the lowest-numbered unacknowledged
	// packet (an ablation the paper tried and rejected; it hammers the
	// head of the object with duplicates).
	Restart
	// RandomUnacked picks uniformly among unacknowledged packets (a
	// second ablation baseline).
	RandomUnacked
)

func (s Schedule) String() string {
	switch s {
	case Circular:
		return "circular"
	case Restart:
		return "restart"
	case RandomUnacked:
		return "random"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Config parameterizes both endpoints of a transfer. The zero value plus
// withDefaults reproduces the paper's tuned configuration.
type Config struct {
	// PacketSize is the data packet payload size in bytes (default 1024,
	// swept by Figure 3).
	PacketSize int
	// AckFrequency is the number of newly received packets between
	// acknowledgement packets (default 64, swept by Figures 1 and 2).
	AckFrequency int
	// AckPacketSize bounds the acknowledgement packet, which determines
	// how many bitmap words each ack carries (default: PacketSize).
	AckPacketSize int
	// Batch chooses the batch-send policy (default FixedBatch(2)).
	Batch BatchPolicy
	// Schedule chooses the next-packet policy (default Circular).
	Schedule Schedule
	// Transfer tags packets so concurrent transfers do not mix.
	Transfer uint32
	// Checksum adds a CRC-32C over each data packet's payload, detecting
	// corruption that UDP's 16-bit checksum misses on very large
	// transfers.
	Checksum bool
	// Discard makes the receiver track status only, without assembling
	// the object — for large benchmark sweeps.
	Discard bool
	// Rand seeds the RandomUnacked schedule; unused otherwise. Nil means
	// a fixed-seed source (determinism by default), built only for that
	// schedule: seeding one costs more than setting up a small transfer.
	Rand *rand.Rand
}

func (c Config) withDefaults() Config {
	if c.PacketSize == 0 {
		c.PacketSize = DefaultPacketSize
	}
	if c.AckFrequency == 0 {
		c.AckFrequency = DefaultAckFrequency
	}
	if c.AckPacketSize == 0 {
		c.AckPacketSize = c.PacketSize
	}
	if c.Batch == nil {
		c.Batch = FixedBatch(DefaultBatch)
	}
	if c.Rand == nil && c.Schedule == RandomUnacked {
		c.Rand = rand.New(rand.NewSource(1))
	}
	if c.PacketSize < 1 {
		panic(fmt.Sprintf("core: packet size %d must be positive", c.PacketSize))
	}
	if c.AckFrequency < 1 {
		panic(fmt.Sprintf("core: ack frequency %d must be positive", c.AckFrequency))
	}
	return c
}

// NumPackets returns how many packets an object of size bytes occupies at
// the given packet size.
func NumPackets(size int64, packetSize int) int {
	return int((size + int64(packetSize) - 1) / int64(packetSize))
}
