package udprt

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/wire"
)

// plannedRound is one round of a socketless schedule as the sender planned
// it: the batch policy's ask, and the clamped directive.
type plannedRound struct {
	ask, batch int
	gap        time.Duration
}

// scheduleVector is a socketless wire for core.Sender.Step: it carries each
// flushed packet to a core.Receiver (nil: to nowhere) through a seeded drop
// process whose rate loss names round by round, holds the acknowledgements
// that come back for the driver, and transcribes the rounds as the step plans
// them: per round the batch, every sequence number sent, and the pacing gap
// charged. Its length is the batch policy's ask: one round per look, the
// paper's one send operation.
type scheduleVector struct {
	t     *testing.T
	snd   *core.Sender
	rcv   *core.Receiver
	drops *rand.Rand
	loss  func(round int) float64

	slots   []wire.Data
	rounds  []plannedRound
	pending []wire.Ack
	sb      strings.Builder
	open    bool          // a round's line awaits its sent= and gap=
	sent    int           // packets the open round put on the wire
	charged time.Duration // the pacing gap charged by the look so far
}

func (v *scheduleVector) Len() int { return v.snd.BatchSize() }

func (v *scheduleVector) Round(batch int, gap time.Duration) {
	v.close()
	v.rounds = append(v.rounds, plannedRound{v.snd.BatchSize(), batch, gap})
	fmt.Fprintf(&v.sb, "round %d: batch=%d seqs=", len(v.rounds), batch)
	v.open, v.sent = true, 0
}

func (v *scheduleVector) Put(i int, pkt wire.Data, idx int) {
	if idx > 0 {
		v.sb.WriteByte(',')
	}
	fmt.Fprintf(&v.sb, "%d", pkt.Seq)
	v.slots = append(v.slots[:i], pkt)
	v.sent++
}

func (v *scheduleVector) Flush(k int) (int, bool) {
	for _, pkt := range v.slots[:k] {
		if v.rcv == nil || v.drops.Float64() < v.loss(len(v.rounds)) {
			continue
		}
		if ackDue, err := v.rcv.HandleData(pkt); err != nil {
			v.t.Fatalf("round %d: receiver: %v", len(v.rounds), err)
		} else if ackDue {
			v.pending = append(v.pending, v.rcv.BuildAck())
		}
	}
	return k, true
}

// close ends the open round's line with what it sent and the gap charged.
func (v *scheduleVector) close() {
	if !v.open {
		return
	}
	gap := v.rounds[len(v.rounds)-1].gap * time.Duration(v.sent)
	v.charged += gap
	fmt.Fprintf(&v.sb, " sent=%d gap=%d\n", v.sent, gap)
	v.open = false
}

// runSchedule drives one deterministic socketless transfer — the
// core.Sender newSenderPlan builds for (cfg, opts), controller, pace and rate
// cap installed the way Send installs them, and a core.Receiver acknowledging every
// cfg.AckFrequency packets, joined by a scheduleVector; acknowledgements
// delivered one look later exactly as the engine's poll-at-loop-top does —
// and returns the vector's transcript of the complete packet schedule. Each
// look is the engine's own step (core.Sender.Step, with no flow installed:
// the paper's sender) on a virtual clock that moves 50 µs a look and on by
// the gap each round charged: the sender's own loop, not a copy of it.
func runSchedule(t *testing.T, obj []byte, cfg core.Config, opts Options, loss func(round int) float64) (string, []plannedRound) {
	t.Helper()
	plan, err := newSenderPlan(obj, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	snd := plan.snds[0]
	opts.slow(snd, time.Now()) // as the engine does when the data phase starts
	rcfg := plan.cfg
	rcfg.AckFrequency = cfg.AckFrequency
	v := &scheduleVector{t: t, snd: snd, rcv: core.NewReceiver(int64(len(obj)), rcfg),
		drops: rand.New(rand.NewSource(1234)), loss: loss}
	var now time.Duration
	for look := 1; ; look++ {
		if look > 100000 {
			t.Fatal("schedule did not complete in 100000 rounds")
		}
		// Poll-ack phase: the previous look's acknowledgements arrive.
		for _, a := range v.pending {
			if err := snd.HandleAck(a); err != nil {
				t.Fatalf("round %d: %v", len(v.rounds), err)
			}
		}
		v.pending = v.pending[:0]
		if snd.KnownComplete() {
			break
		}
		now += 50 * time.Microsecond
		before := snd.Stats().PacketsSent
		snd.Step(now, v)
		v.close()
		now, v.charged = now+v.charged, 0
		if snd.Stats().PacketsSent == before && len(v.pending) == 0 {
			t.Fatalf("round %d: schedule stalled with %d packets missing", len(v.rounds), v.rcv.Missing())
		}
	}
	st := snd.Stats()
	fmt.Fprintf(&v.sb, "done: sent=%d needed=%d retransmits=%d waste=%.4f\n",
		st.PacketsSent, st.PacketsNeeded, st.Retransmits, st.Waste())
	return v.sb.String(), v.rounds
}

// TestFixedPolicyGoldenSchedule pins the schedule of a paced, state-carrying
// sender against the transcript committed when the engine's round logic was
// still inline (PR 6): the batch policy's ask passed straight through and the
// gap charged after a round's sends was
//
//	cfg.Rate.Gap()*time.Duration(sent) + opts.Pace*time.Duration(sent)
//
// with a live core.Backoff as cfg.Rate. Config.Rate is gone — what it did on
// sockets is Options{Congestion: "backoff"} — and the same schedule now comes
// out of the sender loop itself, Sender.Step, whose round planning adds
// Options.Pace to the policy's gap: the golden file has not changed since. Regenerate it with
// UPDATE_CC_GOLDEN=1 only if the sender is meant to behave differently.
func TestFixedPolicyGoldenSchedule(t *testing.T) {
	obj := make([]byte, 8<<10)
	for i := range obj {
		obj[i] = byte(i * 131)
	}
	got, _ := runSchedule(t, obj,
		core.Config{PacketSize: 64, AckFrequency: 8, Transfer: 77},
		Options{Congestion: core.CCBackoff, Pace: 3 * time.Microsecond},
		func(int) float64 { return 0.15 }) // retransmission rounds and a moving Backoff gap
	golden := filepath.Join("testdata", "fixed_schedule.golden")
	if os.Getenv("UPDATE_CC_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_CC_GOLDEN=1 to create): %v", err)
	}
	if string(want) != got {
		t.Fatalf("schedule drifted from the committed golden:\n%s",
			firstScheduleDiff(string(want), got))
	}
}

// firstScheduleDiff renders the first differing line of two schedule
// transcripts, with a little context.
func firstScheduleDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var av, bv string
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, av, bv)
		}
	}
	return "transcripts equal?!"
}
