// Package sabul implements a SABUL-style baseline (Sivakumar, Mazzucco,
// Zhang & Grossman — the second related-work protocol of the FOBS paper):
// a single rate-paced UDP data stream plus a reliable control channel
// carrying periodic state reports.
//
// The defining difference from FOBS, as the paper puts it, is the
// interpretation of packet loss: SABUL "makes the assumption that packet
// loss implies congestion, and, similar to TCP, reduces the sending rate to
// accommodate such perceived congestion", while FOBS assumes some loss is
// inevitable and tolerable. Here that appears as multiplicative rate
// decrease on every lossy report and gentle increase on clean ones: the rate
// loop is core.SABUL, the same controller a FOBS sender runs under the
// "sabul" policy, driven here by SABUL's own NAK reports instead of FOBS
// acknowledgements.
package sabul

import (
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/event"
	"github.com/hpcnet/fobs/internal/netsim"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

const (
	portData = 7301
	portCtl  = 7303
)

// Config parameterizes a SABUL transfer.
type Config struct {
	// PacketSize is the UDP payload per data packet (default 1024).
	PacketSize int
	// InitialRate is the starting send rate, and its ceiling, in bits per
	// second (default core.SABULInitialRate, 100 Mb/s).
	InitialRate float64
	// SynInterval is the receiver's reporting period (default 10 ms, as
	// in SABUL's SYN interval).
	SynInterval time.Duration
	// CtlRTO is the control channel retransmission timeout (default 250 ms).
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
	if c.SynInterval == 0 {
		c.SynInterval = 10 * time.Millisecond
	}
	if c.CtlRTO == 0 {
		c.CtlRTO = 250 * time.Millisecond
	}
	if c.Limit == 0 {
		c.Limit = 10 * time.Minute
	}
	return c
}

// report is the receiver's periodic control message: how many new packets
// arrived this interval and (a window of) currently missing packets.
type report struct {
	newPackets int
	missing    []uint32
	done       bool
}

// maxMissingPerReport bounds the missing window a single report carries.
const maxMissingPerReport = 256

// debugSend, when non-nil, observes each data transmission (tests only).
var debugSend func(at float64, seq int)

// Run transfers obj from path.A to path.B under SABUL's rate control.
func Run(p *netsim.Path, obj []byte, cfg Config) stats.TransferResult {
	cfg = cfg.withDefaults()
	n := core.NumPackets(int64(len(obj)), cfg.PacketSize)

	rcv := core.NewReceiver(int64(len(obj)), core.Config{
		PacketSize: cfg.PacketSize, Transfer: cfg.Transfer, AckFrequency: 1 << 30,
	})
	ctlSnd, ctlRcv := netsim.NewPipe(p.A, portCtl, p.B, portCtl, cfg.CtlRTO)
	sndSock := p.A.OpenUDP(portData, nil)
	p.B.OpenUDP(portData, func(pk *netsim.Packet) {
		if d, ok := pk.Payload.(wire.Data); ok {
			rcv.HandleData(d)
		}
	})

	var (
		// rate charges every packet its framing and UDP/IP headers too.
		rate      = core.NewSABUL(cfg.InitialRate, float64((cfg.PacketSize+wire.DataHeaderLen+wire.UDPIPOverhead)*8))
		sent      = 0
		nextNew   = 0 // next never-sent packet
		rtxQueue  []uint32
		lastRtx   = map[uint32]int{} // seq -> report index of last queueing
		reportIdx = 0
		done      bool
		start     = p.Net.Now()
		end       event.Time
		lastRept  = 0
	)

	dst := p.B.Addr(portData)

	var sendLoop func()
	sendLoop = func() {
		if done {
			return
		}
		seq := -1
		// Retransmissions take priority (SABUL behaviour).
		if len(rtxQueue) > 0 {
			seq = int(rtxQueue[0])
			rtxQueue = rtxQueue[1:]
		}
		if seq < 0 {
			if nextNew < n {
				seq = nextNew
				nextNew++
			} else {
				// Nothing to send until the next report; poll.
				p.Net.Sim.After(cfg.SynInterval, sendLoop)
				return
			}
		}
		lo := seq * cfg.PacketSize
		hi := lo + cfg.PacketSize
		if hi > len(obj) {
			hi = len(obj)
		}
		sent++
		if debugSend != nil {
			debugSend(p.Net.Now().Seconds(), seq)
		}
		res := sndSock.SendTo(dst, wire.DataHeaderLen+(hi-lo)+wire.UDPIPOverhead, wire.Data{
			Transfer: cfg.Transfer, Seq: uint32(seq), Total: uint32(n), Payload: obj[lo:hi],
		})
		now := p.Net.Now()
		// Rate pacing: the next departure happens when the NIC has
		// drained, the host CPU has finished the send-side work, and the
		// rate controller's inter-packet gap has elapsed since this send.
		next := res.NICFreeAt
		if cpu := p.A.CPUFreeAt(); cpu > next {
			next = cpu
		}
		if paced := now.Add(rate.Tick(1).Gap); paced > next {
			next = paced
		}
		if next <= now {
			next = now.Add(time.Microsecond) // progress even on NIC drops
		}
		p.Net.Sim.At(next, sendLoop)
	}

	// Receiver: periodic SYN report.
	var reportLoop func()
	reportLoop = func() {
		if done {
			return
		}
		if ctlRcv.Pending() && !rcv.Complete() {
			// The previous report is still in flight on the stop-and-wait
			// control channel; sending another would only build a stale
			// backlog (SABUL's SYN reports are state snapshots, not a
			// log).
			p.Net.Sim.After(cfg.SynInterval, reportLoop)
			return
		}
		recvd := rcv.Stats().Received
		r := report{newPackets: recvd - lastRept}
		lastRept = recvd
		if rcv.Complete() {
			r.done = true
			ctlRcv.Send(r, 16)
			return
		}
		// Gap-based NAKs: only packets below the highest received can be
		// declared missing (data is sent in ascending order, so a gap
		// below the frontier means loss, not lateness).
		all := rcv.MissingSeqs(nil)
		missing := all[:0]
		for _, seq := range all {
			if int(seq) < rcv.HighestReceived() {
				missing = append(missing, seq)
			}
		}
		if len(missing) > maxMissingPerReport {
			missing = missing[:maxMissingPerReport]
		}
		r.missing = missing
		ctlRcv.Send(r, 16+4*len(missing))
		p.Net.Sim.After(cfg.SynInterval, reportLoop)
	}

	ctlSnd.OnMessage = func(m any) {
		rep, ok := m.(report)
		if !ok {
			return
		}
		if rep.done {
			done = true
			end = p.Net.Now()
			return
		}
		// Loss ⇒ congestion ⇒ slow down; clean interval ⇒ speed up.
		// A sequence is (re)queued when first reported missing, or again
		// when it stays missing long enough that the retransmission
		// itself must have been lost.
		reportIdx++
		lossy := 0
		for _, seq := range rep.missing {
			if int(seq) >= nextNew {
				continue // not sent yet; absence is expected
			}
			last, seen := lastRtx[seq]
			if !seen || reportIdx-last >= 3 {
				rtxQueue = append(rtxQueue, seq)
				lastRtx[seq] = reportIdx
				lossy++
			}
		}
		rate.OnLoss(core.LossEvent{Retransmits: lossy})
		rate.OnAck(core.AckEvent{Acked: rep.newPackets})
	}

	sendLoop()
	reportLoop()

	deadline := start.Add(cfg.Limit)
	for !done && p.Net.Sim.Now() < deadline && p.Net.Sim.Pending() > 0 {
		p.Net.Sim.RunUntil(deadline)
	}
	if !done {
		end = p.Net.Now()
	}
	res := stats.TransferResult{
		Protocol:      "sabul",
		Bytes:         int64(len(obj)),
		Elapsed:       end.Sub(start),
		Completed:     done,
		PacketsSent:   sent,
		PacketsNeeded: n,
		Duplicates:    rcv.Stats().Duplicates,
	}
	res = res.WithExtra("rate_drops", float64(rate.Drops()))
	res.Extra["rate_rises"] = float64(rate.Rises())
	res.Extra["final_rate"] = rate.Rate()
	return res
}
