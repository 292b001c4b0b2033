package udprt

import (
	"bytes"
	"errors"
	"testing"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/wire"
)

// tracedOpts builds endpoint options with a span log writing into buf.
func tracedOpts(buf *bytes.Buffer) (Options, *obs.Log) {
	log := obs.NewLog(buf)
	return Options{Trace: log}, log
}

// TestTracedLoopbackJoin is the acceptance test for cross-host trace
// correlation: a loopback transfer with span logging on both endpoints,
// whose two logs — sender's and receiver's, as they would be collected
// from two hosts — join on the propagated trace id into one waterfall
// with the full ordered phase sequence visible from each side.
func TestTracedLoopbackJoin(t *testing.T) {
	var sbuf, rbuf bytes.Buffer
	sopts, slog := tracedOpts(&sbuf)
	ropts, rlog := tracedOpts(&rbuf)
	tid := obs.NewTraceID()
	sopts.TraceID = tid

	push(t, makeObj(256<<10), core.Config{Transfer: 7}, sopts, ropts)
	if err := slog.Close(); err != nil {
		t.Fatalf("sender log close: %v", err)
	}
	if err := rlog.Close(); err != nil {
		t.Fatalf("receiver log close: %v", err)
	}

	sev, err := obs.ReadEvents(&sbuf)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := obs.ReadEvents(&rbuf)
	if err != nil {
		t.Fatal(err)
	}
	traces := obs.Join(sev, rev)
	tls, ok := traces[tid.String()]
	if !ok {
		t.Fatalf("trace id %s not found in joined logs (have %d traces)", tid, len(traces))
	}
	if len(tls) != 2 {
		t.Fatalf("joined %d timelines, want 2 (sender + receiver)", len(tls))
	}
	if tls[0].Role != obs.RoleSender || tls[1].Role != obs.RoleReceiver {
		t.Fatalf("timeline roles = %s, %s; want sender, receiver", tls[0].Role, tls[1].Role)
	}
	for _, tl := range tls {
		if tl.Transfer != 7 {
			t.Errorf("%s timeline tagged transfer %d, want 7", tl.Role, tl.Transfer)
		}
	}
	// Every announcement opens with the CHECK, so both timelines record the
	// answered (missed) content query between dial and handshake.
	wantSender := []obs.Kind{obs.KindDial, obs.KindCheck, obs.KindHandshake,
		obs.KindRounds, obs.KindDrain, obs.KindVerify, obs.KindComplete}
	wantReceiver := []obs.Kind{obs.KindCheck, obs.KindHandshake, obs.KindRounds,
		obs.KindDrain, obs.KindVerify, obs.KindComplete}
	checkOrder(t, "sender", obs.PhaseOrder(tls[0]), wantSender)
	checkOrder(t, "receiver", obs.PhaseOrder(tls[1]), wantReceiver)
	// The waterfall must be well-formed: spans abut and never run backwards.
	for _, tl := range tls {
		spans := obs.Waterfall(tl)
		for i, sp := range spans {
			if sp.End < sp.Start {
				t.Errorf("%s span %d (%s) runs backwards: %v..%v", tl.Role, i, sp.Kind, sp.Start, sp.End)
			}
			if i > 0 && sp.Start != spans[i-1].End {
				t.Errorf("%s span %d (%s) does not abut its predecessor", tl.Role, i, sp.Kind)
			}
		}
	}
}

// TestTracedStripedTransferReportsEachMomentOnce: a striped transfer's
// transfer-level moments reach its span log once, however many stripes it
// has, while every stripe's own counters hear each of them.
func TestTracedStripedTransferReportsEachMomentOnce(t *testing.T) {
	const streams = 3
	var buf bytes.Buffer
	opts, log := tracedOpts(&buf) // both ends, one log: the join parts them by role
	reg := metrics.New()
	opts.Metrics, opts.Streams = reg, streams
	push(t, makeObj(512<<10), core.Config{Transfer: 20}, opts, opts)
	log.Close()
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var tls []obs.Timeline
	for _, byTrace := range obs.Join(evs) {
		tls = append(tls, byTrace...)
	}
	if len(tls) != 2 || tls[0].Role != obs.RoleSender || tls[1].Role != obs.RoleReceiver {
		t.Fatalf("joined %d timelines, want the sender's and the receiver's under one trace", len(tls))
	}
	checkOrder(t, "sender", obs.PhaseOrder(tls[0]), []obs.Kind{obs.KindDial, obs.KindCheck,
		obs.KindHandshake, obs.KindRounds, obs.KindDrain, obs.KindVerify, obs.KindComplete})
	checkOrder(t, "receiver", obs.PhaseOrder(tls[1]), []obs.Kind{obs.KindCheck, obs.KindHandshake,
		obs.KindRounds, obs.KindDrain, obs.KindVerify, obs.KindComplete})
	heard := map[obs.Role]map[uint32]int{obs.RoleSender: {}, obs.RoleReceiver: {}}
	for _, ev := range reg.Snapshot().Events {
		if ev.Kind == obs.KindHandshake || ev.Kind == obs.KindRounds || ev.Kind == obs.KindDrain {
			heard[ev.Role][ev.Transfer]++
		}
	}
	for role, byStripe := range heard {
		for i := uint32(20); i < 20+streams; i++ {
			if byStripe[i] != 3 {
				t.Errorf("%v stripe %d heard %d of handshake, rounds and drain, want 3", role, i, byStripe[i])
			}
		}
	}
}

func checkOrder(t *testing.T, who string, got, want []obs.Kind) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s phases = %v, want %v", who, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s phases = %v, want %v", who, got, want)
		}
	}
}

// TestTracedAutoIDPropagates runs a traced transfer without a pinned
// TraceID: the sender mints one per transfer, and both endpoints' logs
// must still land under the same id.
func TestTracedAutoIDPropagates(t *testing.T) {
	var sbuf, rbuf bytes.Buffer
	sopts, slog := tracedOpts(&sbuf)
	ropts, rlog := tracedOpts(&rbuf)
	push(t, makeObj(64<<10), core.Config{}, sopts, ropts)
	slog.Close()
	rlog.Close()
	sev, _ := obs.ReadEvents(&sbuf)
	rev, _ := obs.ReadEvents(&rbuf)
	if len(sev) == 0 || len(rev) == 0 {
		t.Fatalf("empty span logs: sender %d events, receiver %d", len(sev), len(rev))
	}
	if sev[0].Trace != rev[0].Trace {
		t.Fatalf("trace id did not propagate: sender %s, receiver %s", sev[0].Trace, rev[0].Trace)
	}
	if joined := obs.Join(sev, rev); len(joined[sev[0].Trace]) != 2 {
		t.Fatalf("joined %d timelines under %s, want 2", len(joined[sev[0].Trace]), sev[0].Trace)
	}
}

// TestFutureTraceVersionAborted pins the receive-side refusal of the retired
// TRACE prelude: ahead of an otherwise valid announcement, at the version
// earlier builds spoke or a future one, it is answered with ABORT (bad
// hello) — never a hang, never a data blast.
func TestFutureTraceVersionAborted(t *testing.T) {
	for _, version := range []uint8{1, 2} {
		ep := listen(t, byAccept, Options{})
		ep.recv(1)
		frame := legacyTrace(version, [16]byte{1})
		dialRaw(t, ep.l.Addr(), append(frame, announceFor(1, makeObj(64), 64)...)).refused(wire.AbortBadHello)
		if r, _ := ep.result(true); !errors.Is(r.err, wire.ErrBadType) {
			t.Fatalf("version %d: Accept err = %v, want wire.ErrBadType", version, r.err)
		}
	}
}
