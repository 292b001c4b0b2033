package udprt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
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

	l, err := Listen("127.0.0.1:0", ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	obj := makeObj(256 << 10)
	done := make(chan struct{})
	var got []byte
	var rerr error
	go func() { defer close(done); got, _, rerr = l.Accept(ctx) }()
	if _, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 7}, sopts); err != nil {
		t.Fatalf("Send: %v", err)
	}
	<-done
	if rerr != nil {
		t.Fatalf("Accept: %v", rerr)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
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
	// Default options send the CHECK prelude, so both timelines record the
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
	l, err := Listen("127.0.0.1:0", ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); l.Accept(ctx) }()
	if _, err := Send(ctx, l.Addr(), makeObj(64<<10), core.Config{}, sopts); err != nil {
		t.Fatalf("Send: %v", err)
	}
	<-done
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

// TestTracePreludeDegradesOnAbort covers negotiate-down against a peer
// that rejects the TRACE prelude with a reasoned ABORT (how a receiver
// that speaks an older protocol revision, or rejects a future TRACE
// version, answers): the handshake must retry untraced and succeed
// without consuming the retry budget.
func TestTracePreludeDegradesOnAbort(t *testing.T) {
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	const transfer = 42
	srv := make(chan error, 1)
	go func() {
		srv <- func() error {
			// First connection: choke on the prelude like a TRACE-unaware
			// peer's entry point does.
			c1, err := tl.Accept()
			if err != nil {
				return err
			}
			defer c1.Close()
			buf := make([]byte, wire.TraceLen)
			if _, err := io.ReadFull(c1, buf); err != nil {
				return err
			}
			if typ, _ := wire.PeekType(buf); typ != wire.TypeTrace {
				return errors.New("first frame was not the TRACE prelude")
			}
			c1.Write(wire.AppendAbort(nil, &wire.Abort{Reason: wire.AbortUnsupported}))
			// Second connection: the announcement must arrive with no
			// prelude — its CHECK, then the HELLO.
			c2, err := tl.Accept()
			if err != nil {
				return err
			}
			defer c2.Close()
			if f, err := readControlFrame(c2); err != nil || f.typ != wire.TypeCheck {
				return fmt.Errorf("degraded handshake led with type %d (%v), want the CHECK", f.typ, err)
			}
			f, err := readControlFrame(c2)
			if err != nil || f.typ != wire.TypeHello {
				return fmt.Errorf("CHECK followed by type %d (%v), want the HELLO", f.typ, err)
			}
			if f.hello.Transfer != transfer {
				return errors.New("degraded HELLO changed the transfer id")
			}
			answer := wire.AppendHave(nil, &wire.Have{Transfer: transfer, Words: []uint64{0}})
			_, err = c2.Write(wire.AppendHelloAck(answer, &wire.HelloAck{Transfer: transfer}))
			return err
		}()
	}()

	opts := Options{HandshakeRetries: 1, HandshakeTimeout: 5 * time.Second}.withDefaults()
	opts.HandshakeRetries = 1 // even a no-retry budget must degrade cleanly
	plan, err := newSenderPlan(makeObj(1024), core.Config{Transfer: transfer, PacketSize: 512}, opts)
	if err != nil {
		t.Fatal(err)
	}
	prelude := tracePrelude(obs.NewTraceID())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ctl, _, err := dialHandshake(ctx, tl.Addr().String(), prelude, plan.announcement(opts), transfer, plan.totalPackets(), opts)
	if err != nil {
		t.Fatalf("traced handshake did not degrade: %v", err)
	}
	ctl.Close()
	if err := <-srv; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

// TestFutureTraceVersionAborted pins the receive-side version gate: a
// TRACE prelude from a future protocol revision is answered with
// ABORT (unsupported), exactly like future HELLOX and CHECK revisions —
// never a hang, never a data blast.
func TestFutureTraceVersionAborted(t *testing.T) {
	l, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	accErr := make(chan error, 1)
	go func() { _, _, err := l.Accept(ctx); accErr <- err }()

	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := wire.AppendTrace(nil, &wire.Trace{ID: [16]byte{1}})
	frame[3] = wire.TraceVersion + 1
	frame = wire.AppendHello(frame, &wire.Hello{Transfer: 1, ObjectSize: 64, PacketSize: 64})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := readControlFrame(conn)
	if err != nil {
		t.Fatalf("no answer to future-version TRACE: %v", err)
	}
	if f.typ != wire.TypeAbort || f.abort.Reason != wire.AbortUnsupported {
		t.Fatalf("answer = type %d reason %v, want ABORT unsupported", f.typ, f.abort.Reason)
	}
	if err := <-accErr; !errors.Is(err, wire.ErrTraceVersion) {
		t.Fatalf("Accept err = %v, want ErrTraceVersion", err)
	}
}
