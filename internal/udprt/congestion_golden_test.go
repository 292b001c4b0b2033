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

// runSchedule drives one deterministic socketless transfer — the
// core.Sender newSenderPlan builds for (cfg, opts), controller installed the
// way Send installs it, and a core.Receiver, joined by a seeded drop process
// whose rate loss names round by round; acknowledgements delivered with one
// round of latency exactly as the engine's poll-at-loop-top does — and
// transcribes the complete packet schedule: per round, the batch, every
// sequence number sent, and the pacing gap charged. Rounds are planned by
// the call the engine makes (Sender.PlanRound) on a virtual clock, the
// round-trip probe resolved by the call it makes (Sender.Look, with no flow
// installed: the paper's sender): the sender's own feed, not a copy of it.
func runSchedule(t *testing.T, obj []byte, cfg core.Config, opts Options, loss func(round int) float64) (string, []plannedRound) {
	t.Helper()
	plan, err := newSenderPlan(obj, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	snd := plan.snds[0]
	rcv := core.NewReceiver(int64(len(obj)), plan.cfg)
	drops := rand.New(rand.NewSource(1234))

	var sb strings.Builder
	var rounds []plannedRound
	var pending []wire.Ack
	var now time.Duration
	for round := 1; ; round++ {
		if round > 100000 {
			t.Fatal("schedule did not complete in 100000 rounds")
		}
		// Poll-ack phase: the previous round's acknowledgements arrive.
		for _, a := range pending {
			if err := snd.HandleAck(a); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		pending = pending[:0]
		if snd.KnownComplete() {
			break
		}
		// Plan + send phase.
		now += 50 * time.Microsecond
		ask := snd.BatchSize()
		snd.Look(now, ask)
		batch, gapPer := snd.PlanRound(now)
		rounds = append(rounds, plannedRound{ask, batch, gapPer})
		fmt.Fprintf(&sb, "round %d: batch=%d seqs=", round, batch)
		sent := 0
		for sent < batch {
			pkt, ok := snd.NextPacket()
			if !ok {
				break
			}
			if sent > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", pkt.Seq)
			sent++
			if drops.Float64() < loss(round) {
				continue
			}
			if ackDue, err := rcv.HandleData(pkt); err != nil {
				t.Fatalf("round %d: receiver: %v", round, err)
			} else if ackDue {
				pending = append(pending, rcv.BuildAck())
			}
		}
		// Pacing phase: the exact gap the engine would charge.
		gap := gapPer * time.Duration(sent)
		now += gap
		fmt.Fprintf(&sb, " sent=%d gap=%d\n", sent, gap)
		if sent == 0 && len(pending) == 0 {
			t.Fatalf("round %d: schedule stalled with %d packets missing", round, rcv.Missing())
		}
	}
	st := snd.Stats()
	fmt.Fprintf(&sb, "done: sent=%d needed=%d retransmits=%d waste=%.4f\n",
		st.PacketsSent, st.PacketsNeeded, st.Retransmits, st.Waste())
	return sb.String(), rounds
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
// out of one call, Sender.PlanRound, through the one wrapper that adds
// Options.Pace: the golden file has not changed since. Regenerate it with
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
