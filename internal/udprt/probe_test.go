package udprt

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
	"github.com/hpcnet/fobs/internal/wire"
)

// TestZeroProbeInert: with every instrument off the engines and lifecycles
// hold zero probes and call every method on them all the same, so each must
// be a no-op that does not panic — nor allocate, a failed finish aside (the
// error's mapping to a wire reason does) — including the constructors, which
// with nil registries must hand back the zero probe.
func TestZeroProbeInert(t *testing.T) {
	snd := core.NewSender(makeObj(4096), core.Config{PacketSize: 1024})
	p := Options{}.startSpan(obs.NewTraceID(), 1, obs.RoleSender).sender(nil, nil, snd, 4096)
	if p != (probe{}) {
		t.Fatalf("instruments off, yet the sender probe is %+v", p)
	}
	if q := p.span().receiver(nil, nil, 1, 4, 4096, 1024); q != (probe{}) {
		t.Fatalf("instruments off, yet the receiver probe is %+v", q)
	}
	if q := (Options{}).supervisor(obs.NewTraceID(), 1); q != (probe{}) {
		t.Fatalf("instruments off, yet the supervisor probe is %+v", q)
	}
	var mu sync.Mutex
	every := func() {
		p.event(obs.KindDial, 0)
		p.event(obs.KindHandshake, 0)
		p.event(obs.KindResume, 3)
		p.dataSent(0, 1024, 0)
		p.OnAck(1, 1, false)
		p.OnPacketAcked(0)
		p.batchSize(8)
		p.publish(snd)
		p.event(obs.KindStall, 0)
		stripes{p, p}.event(obs.KindRounds, 0)
		p.stripe().event(obs.KindSkip, 4)
		p.dataReceived(0, 1024, core.ReceiverStats{}, core.ReceiverStats{Received: 1})
		p.dataReceived(0, 1024, core.ReceiverStats{}, core.ReceiverStats{Duplicates: 1})
		p.dataReceived(0, 1024, core.ReceiverStats{}, core.ReceiverStats{Rejected: 1})
		p.ackSent(1, 1, 40)
		p.follow(&mu, nil)
		p.event(obs.KindIdle, 0)
		p.io(stats.IOCounters{SendCalls: 1})
		p.span().finish(nil)
		p.finish(nil)
		p.seal()
	}
	every()
	p.finish(ErrStalled)
	p.span().finish(context.Canceled)
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, every); allocs > 0 {
			t.Errorf("the zero probe allocates %.1f times over its methods, want 0", allocs)
		}
	}
}

// TestProbeFinishFirstOutcomeWins: the stripes of a transfer finish one after
// another with outcomes of their own — the one that failed, then the siblings
// reaped for it — and every instrument keeps the first it was given: each
// stripe's counters and recording its own, the span recorder they share the
// first overall, once. A transfer-wide outcome stamped through span() ahead of
// the stripes is therefore the span's.
func TestProbeFinishFirstOutcomeWins(t *testing.T) {
	reg := metrics.New()
	var frec, spans bytes.Buffer
	rec, trace := flight.NewLog(&frec), obs.NewLog(&spans)
	opts := Options{Metrics: reg, Record: rec, Trace: trace}
	const stripes = 3
	span := opts.startSpan(obs.NewTraceID(), 10, obs.RoleReceiver)
	probes := make([]probe, stripes)
	for i := range probes {
		probes[i] = span.receiver(reg, rec, uint32(10+i), 4, 4096, 1024)
		if probes[i].or != span.or || probes[i].tm == nil || probes[i].fr == nil {
			t.Fatalf("stripe %d's probe %+v does not carry its own instruments and the shared span", i, probes[i])
		}
	}
	outcomes := []error{
		fmt.Errorf("stripe 0: %w", ErrIdle),
		context.Canceled,
		nil,
	}
	span.span().finish(fmt.Errorf("the transfer's: %w", ErrDigestMismatch))
	for round := 0; round < 2; round++ { // the second round changes nothing
		for i, p := range probes {
			p.finish(outcomes[(i+round)%stripes])
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}

	wantReason := []wire.AbortReason{wire.AbortIdleTimeout, wire.AbortCancelled, 0}
	snap := reg.Snapshot()
	eps, err := flight.Read(&frec)
	if err != nil || len(eps) != stripes {
		t.Fatalf("flight.Read: %d endpoints, %v", len(eps), err)
	}
	for i := 0; i < stripes; i++ {
		ts, ok := snap.Find(uint32(10+i), obs.RoleReceiver)
		wantOutcome := metrics.OutcomeAborted
		if outcomes[i] == nil {
			wantOutcome = metrics.OutcomeCompleted
		}
		if !ok || ts.Outcome != wantOutcome || ts.AbortReason != uint32(wantReason[i]) {
			t.Errorf("stripe %d metrics: outcome %v reason %d, want %v reason %d", i, ts.Outcome, ts.AbortReason, wantOutcome, wantReason[i])
		}
		var phases []flight.Record
		for _, r := range eps[i].Records {
			if r.Kind == flight.KindEvent && obs.Kind(r.Seq).Terminal() {
				phases = append(phases, r)
			}
		}
		wantPhase := flight.Record{Kind: flight.KindEvent, Seq: uint32(obs.KindAbort), Aux: uint32(wantReason[i])}
		if outcomes[i] == nil {
			wantPhase = flight.Record{Kind: flight.KindEvent, Seq: uint32(obs.KindComplete)}
		}
		if len(phases) != 1 || phases[0].Seq != wantPhase.Seq || phases[0].Aux != wantPhase.Aux {
			t.Errorf("stripe %d recording: terminal phases %+v, want one %+v", i, phases, wantPhase)
		}
		if !eps[i].Ended || eps[i].Snapshot == nil || eps[i].Snapshot.Outcome != wantOutcome {
			t.Errorf("stripe %d recording: ended=%v trailer snapshot %+v, want its own outcome %v", i, eps[i].Ended, eps[i].Snapshot, wantOutcome)
		}
	}
	evs, err := obs.ReadEvents(&spans)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []obs.Kind
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
	}
	if len(evs) != 2 || evs[0].Kind != obs.KindVerify || evs[0].Arg != 0 ||
		evs[1].Kind != obs.KindAbort || evs[1].Arg != uint64(wire.AbortDigestMismatch) {
		t.Fatalf("span log holds %v, want the transfer's outcome alone: a failed verify, then abort(%d)", kinds, wire.AbortDigestMismatch)
	}
}
