// Package rudp implements Reliable Blast UDP (Leigh et al., the RUDP of
// the FOBS paper's related work §2): the sender blasts the entire object
// over UDP with no feedback at all, announces the end of the blast on a
// reliable control channel, receives the receiver's list of missing
// packets, retransmits exactly those, and repeats until nothing is missing.
//
// The contrast with FOBS is structural: RUDP synchronizes once per blast
// round (designed for QoS-enabled networks with near-zero loss), while FOBS
// interleaves acknowledgement processing with transmission continuously.
package rudp

import (
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/event"
	"github.com/hpcnet/fobs/internal/netsim"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

const (
	portData = 7201
	portCtl  = 7203
)

// Config parameterizes a RUDP transfer.
type Config struct {
	// PacketSize is the UDP payload per data packet (default 1024).
	PacketSize int
	// CtlRTO is the control channel retransmission timeout
	// (default 250 ms).
	CtlRTO time.Duration
	// Limit aborts the run (default 10 min).
	Limit time.Duration
	// Transfer tags packets.
	Transfer uint32
}

func (c Config) withDefaults() Config {
	if c.PacketSize == 0 {
		c.PacketSize = core.DefaultPacketSize
	}
	if c.CtlRTO == 0 {
		c.CtlRTO = 250 * time.Millisecond
	}
	if c.Limit == 0 {
		c.Limit = 10 * time.Minute
	}
	return c
}

// blastDone is the sender→receiver control message ending a round.
type blastDone struct{ round int }

// missingList is the receiver→sender reply: packets still absent.
type missingList struct {
	round   int
	missing []uint32
	done    bool
}

// Run transfers obj from path.A to path.B and returns the result.
func Run(p *netsim.Path, obj []byte, cfg Config) stats.TransferResult {
	cfg = cfg.withDefaults()
	n := core.NumPackets(int64(len(obj)), cfg.PacketSize)

	rcv := core.NewReceiver(int64(len(obj)), core.Config{
		PacketSize: cfg.PacketSize, Transfer: cfg.Transfer,
		// RUDP sends no per-packet acks; AckFrequency is irrelevant but
		// must be valid.
		AckFrequency: 1 << 30,
	})

	ctlSnd, ctlRcv := netsim.NewPipe(p.A, portCtl, p.B, portCtl, cfg.CtlRTO)

	sndSock := p.A.OpenUDP(portData, nil)
	p.B.OpenUDP(portData, func(pk *netsim.Packet) {
		if d, ok := pk.Payload.(wire.Data); ok {
			rcv.HandleData(d)
		}
	})

	sent := 0
	rounds := 0
	done := false
	start := p.Net.Now()
	var end event.Time

	// blast sends every packet in seqs back to back (paced by the NIC via
	// the event queue — each SendTo enqueues, the link serializes).
	dst := p.B.Addr(portData)
	var blast func(seqs []uint32)
	blast = func(seqs []uint32) {
		rounds++
		i := 0
		var step func()
		step = func() {
			if done {
				return
			}
			if i >= len(seqs) {
				ctlSnd.Send(blastDone{round: rounds}, 16)
				return
			}
			seq := seqs[i]
			i++
			lo := int(seq) * cfg.PacketSize
			hi := lo + cfg.PacketSize
			if hi > len(obj) {
				hi = len(obj)
			}
			sent++
			res := sndSock.SendTo(dst, wire.DataHeaderLen+(hi-lo)+wire.UDPIPOverhead, wire.Data{
				Transfer: cfg.Transfer, Seq: seq, Total: uint32(n), Payload: obj[lo:hi],
			})
			now := p.Net.Now()
			next := res.NICFreeAt
			if cpu := p.A.CPUFreeAt(); cpu > next {
				next = cpu
			}
			if next <= now {
				// Guarantee virtual progress even if the NIC dropped the
				// packet (policer, full queue).
				next = now.Add(time.Microsecond)
			}
			p.Net.Sim.At(next, step)
		}
		step()
	}

	// Receiver: on blast-done, reply with the missing list.
	ctlRcv.OnMessage = func(m any) {
		bd, ok := m.(blastDone)
		if !ok {
			return
		}
		if rcv.Complete() {
			ctlRcv.Send(missingList{round: bd.round, done: true}, 16)
			return
		}
		missing := rcv.MissingSeqs(nil)
		ctlRcv.Send(missingList{round: bd.round, missing: missing, done: false},
			16+4*len(missing))
	}

	// Sender: on missing list, retransmit those packets (or finish).
	ctlSnd.OnMessage = func(m any) {
		ml, ok := m.(missingList)
		if !ok {
			return
		}
		if ml.done {
			done = true
			end = p.Net.Now()
			return
		}
		blast(ml.missing)
	}

	// Round 1: everything.
	all := make([]uint32, n)
	for q := range all {
		all[q] = uint32(q)
	}
	blast(all)

	deadline := start.Add(cfg.Limit)
	for !done && p.Net.Sim.Now() < deadline && p.Net.Sim.Pending() > 0 {
		p.Net.Sim.RunUntil(deadline)
	}
	if !done {
		end = p.Net.Now()
	}
	res := stats.TransferResult{
		Protocol:      "rudp",
		Bytes:         int64(len(obj)),
		Elapsed:       end.Sub(start),
		Completed:     done,
		PacketsSent:   sent,
		PacketsNeeded: n,
		Duplicates:    rcv.Stats().Duplicates,
	}
	res = res.WithExtra("rounds", float64(rounds))
	return res
}
