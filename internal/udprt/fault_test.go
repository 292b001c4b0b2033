package udprt

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/wire"
)

// instruments is one endpoint's three instruments, all on: live metrics, a
// flight recording and a span log, the last two into memory.
type instruments struct {
	reg          *metrics.Registry
	rec          *flight.Log
	trace        *obs.Log
	frec, events bytes.Buffer
}

func newInstruments() *instruments {
	in := &instruments{reg: metrics.New()}
	in.rec, in.trace = flight.NewLog(&in.frec), obs.NewLog(&in.events)
	return in
}

// on returns o with every instrument switched on.
func (in *instruments) on(o Options) Options {
	o.Metrics, o.Record, o.Trace = in.reg, in.rec, in.trace
	return o
}

// expectWatchdog closes the logs and requires each instrument to hold, for
// the role's endpoint, the watchdog's firing (kind) ahead of an abort that
// carries reason: the metrics ring, the flight records and the span log
// tell the same story.
func (in *instruments) expectWatchdog(t *testing.T, role obs.Role, kind obs.Kind, reason wire.AbortReason) {
	t.Helper()
	if err := in.rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.trace.Close(); err != nil {
		t.Fatal(err)
	}
	type moment struct { // exported fields, so a failure prints kind names
		Kind obs.Kind
		Arg  uint64
	}
	seen := map[string][]moment{}
	for _, ev := range in.reg.Snapshot().Events {
		if ev.Role == role {
			seen["metrics ring"] = append(seen["metrics ring"], moment{ev.Kind, ev.Arg})
		}
	}
	eps, err := flight.Read(&in.frec)
	if err != nil {
		t.Fatalf("flight.Read: %v", err)
	}
	for _, ep := range eps {
		for _, r := range ep.Records {
			if ep.Meta.Role == role && r.Kind == flight.KindEvent {
				seen["flight records"] = append(seen["flight records"], moment{obs.Kind(r.Seq), uint64(r.Aux)})
			}
		}
	}
	evs, err := obs.ReadEvents(&in.events)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Role == role {
			seen["span log"] = append(seen["span log"], moment{ev.Kind, ev.Arg})
		}
	}
	for _, where := range []string{"metrics ring", "flight records", "span log"} {
		got := seen[where]
		fired := slices.IndexFunc(got, func(m moment) bool { return m.Kind == kind })
		if fired < 0 || !slices.Contains(got[fired:], moment{obs.KindAbort, uint64(reason)}) {
			t.Errorf("%s holds %v for the %v, want %v and then abort(%d)", where, got, role, kind, reason)
		}
	}
}

// TestTransferCompletesUnderLoss drives a real transfer through a seeded
// fault proxy dropping, duplicating, reordering and delaying data
// datagrams: the protocol's whole reason to exist. The digest in the
// COMPLETE frame (verified inside Send) proves end-to-end integrity.
func TestTransferCompletesUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	ep := listen(t, byAccept, Options{})
	proxy := ep.front(faultnet.New(faultnet.Policy{
		Seed:    42,
		Drop:    0.12,
		Dup:     0.04,
		Reorder: 0.04,
		Delay:   0.04,
		DelayBy: time.Millisecond,
	}))
	sst := ep.pushOK(makeObj(1<<20+13), core.Config{}, Options{Pace: 2 * time.Microsecond}).sst
	st := proxy.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("faults never fired: %+v", st)
	}
	if sst.PacketsSent <= sst.PacketsNeeded {
		t.Fatalf("no retransmissions under %d drops?! sent %d of %d",
			st.Dropped, sst.PacketsSent, sst.PacketsNeeded)
	}
	t.Logf("loss run: %+v, sender sent %d/%d (waste %.1f%%)",
		st, sst.PacketsSent, sst.PacketsNeeded, 100*sst.Waste())
}

// TestSenderStallsWhenReceiverVanishes is the regression test for the
// paper's unhandled failure: a receiver that handshakes and then never
// acknowledges. The sender must return within StallTimeout (not hang
// forever blasting UDP), count the stall, and tell the peer why it left.
func TestSenderStallsWhenReceiverVanishes(t *testing.T) {
	fake := newFakeReceiver(t, true)
	go fake.acceptHandshake()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const stall = 400 * time.Millisecond
	inst := newInstruments()
	start := time.Now()
	sst, err := Send(ctx, fake.addr(), makeObj(64<<10), core.Config{},
		inst.on(Options{StallTimeout: stall, Pace: 20 * time.Microsecond}))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if elapsed < stall {
		t.Fatalf("returned after %v, before the %v stall window", elapsed, stall)
	}
	if elapsed > 10*stall {
		t.Fatalf("took %v to notice a %v stall", elapsed, stall)
	}
	if sst.Stalls != 1 {
		t.Fatalf("stats.Stalls = %d, want 1", sst.Stalls)
	}
	fake.expectAbort(wire.AbortStalled)
	inst.expectWatchdog(t, obs.RoleSender, obs.KindStall, wire.AbortStalled)
}

// TestSenderStallMidTransferViaBlackhole kills the network path — not the
// peer — once the transfer is demonstrably making progress, and expects the
// stall watchdog to end it.
func TestSenderStallMidTransferViaBlackhole(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	ep := listen(t, byAccept, Options{IdleTimeout: 30 * time.Second})
	proxy := ep.front(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ep.recv(1)

	var cut atomic.Bool
	opts := Options{
		StallTimeout: 500 * time.Millisecond,
		Pace:         10 * time.Microsecond,
		Progress: func(done, total int) {
			if done > total/10 && cut.CompareAndSwap(false, true) {
				proxy.SetBlackhole(true)
			}
		},
	}
	_, err := Send(ctx, proxy.Addr(), makeObj(4<<20), core.Config{AckFrequency: 16}, opts)
	if !cut.Load() {
		t.Fatal("transfer finished before the blackhole engaged; enlarge the object")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	// The sender's ABORT travels over the (still connected) control
	// channel, so the receiver learns of the failure promptly instead of
	// idling out.
	var abort *AbortError
	if r, _ := ep.result(true); !errors.As(r.err, &abort) || abort.Reason != wire.AbortStalled {
		t.Fatalf("receiver error = %v, want stall abort", r.err)
	}
}

// TestDuplicateTransferIDAborted checks the server rejects a colliding
// transfer id with a prompt reasoned ABORT, rather than the old silent
// drop that left the second sender hanging until some timeout.
func TestDuplicateTransferIDAborted(t *testing.T) {
	ep := listen(t, byServe, Options{})
	ep.recv(1)
	// A squatter handshakes for transfer 9 and sits on it.
	dialRaw(t, ep.l.Addr(), announceFor(9, makeObj(1<<20), 1024)).accepted()

	start := time.Now()
	_, err := Send(ep.ctx, ep.l.Addr(), makeObj(32<<10), core.Config{Transfer: 9}, Options{})
	elapsed := time.Since(start)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want AbortError", err)
	}
	if abort.Reason != wire.AbortDuplicateTransfer || abort.Transfer != 9 {
		t.Fatalf("abort = %+v", abort)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("duplicate rejection took %v; must be prompt, not a timeout", elapsed)
	}
}

// TestReceiverIdleAbortsAndInformsSender starves a live receiver of data
// and expects its idle watchdog to end the transfer with a reasoned ABORT
// back to the (silent but connected) sender.
func TestReceiverIdleAbortsAndInformsSender(t *testing.T) {
	inst := newInstruments()
	ep := listen(t, byAccept, inst.on(Options{IdleTimeout: 300 * time.Millisecond}))
	ep.recv(1)
	// A raw sender that handshakes and then never sends a byte of data.
	peer := dialRaw(t, ep.l.Addr(), announceFor(3, makeObj(1<<20), 1024))
	peer.accepted()
	r, _ := ep.result(true)
	if !errors.Is(r.err, ErrIdle) {
		t.Fatalf("receiver error = %v, want ErrIdle", r.err)
	}
	if r.st.IdleTimeouts != 1 {
		t.Fatalf("stats.IdleTimeouts = %d, want 1", r.st.IdleTimeouts)
	}
	peer.refused(wire.AbortIdleTimeout)
	inst.expectWatchdog(t, obs.RoleReceiver, obs.KindIdle, wire.AbortIdleTimeout)
}

// TestAcceptDeadlineNotPoisoned is the regression test for the deadline
// leak: a deadline-bounded Accept that expires used to leave the deadline
// set on the listening socket, poisoning every later Accept.
func TestAcceptDeadlineNotPoisoned(t *testing.T) {
	ep := listen(t, byAccept, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, _, err := ep.l.Accept(ctx); err == nil {
		t.Fatal("Accept returned without a sender")
	}
	// The listener must still work for a patient caller.
	ep.pushOK(makeObj(64<<10), core.Config{}, Options{})
}

// TestSeverControlMidTransfer cuts the TCP control connection while data
// is flowing. Both endpoints must notice and return errors promptly — long
// before their generous liveness watchdogs.
func TestSeverControlMidTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	ep := listen(t, byAccept, Options{IdleTimeout: 60 * time.Second})
	proxy := ep.front(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ep.recv(1)

	var cut atomic.Bool
	opts := Options{
		StallTimeout: 60 * time.Second,
		Pace:         10 * time.Microsecond,
		Progress: func(done, total int) {
			if done > total/10 && cut.CompareAndSwap(false, true) {
				proxy.SeverControl()
			}
		},
	}
	start := time.Now()
	_, err := Send(ctx, proxy.Addr(), makeObj(4<<20), core.Config{AckFrequency: 16}, opts)
	if !cut.Load() {
		t.Fatal("transfer finished before the control cut; enlarge the object")
	}
	if err == nil {
		t.Fatal("sender succeeded across a severed control connection")
	}
	if e := time.Since(start); e > 15*time.Second {
		t.Fatalf("sender took %v to notice the severed control connection", e)
	}
	if r, _ := ep.result(true); r.err == nil {
		t.Fatal("receiver succeeded across a severed control connection")
	}
}

// TestSenderSurfacesPersistentWriteError handshakes against a peer with no
// UDP socket at all, so every data write eventually fails with
// ECONNREFUSED. The old loop swallowed the error and span until some
// timeout; now it must surface well before the (deliberately huge)
// StallTimeout.
func TestSenderSurfacesPersistentWriteError(t *testing.T) {
	fake := newFakeReceiver(t, false) // no UDP socket: data writes refused
	go fake.acceptHandshake()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err := Send(ctx, fake.addr(), makeObj(256<<10), core.Config{},
		Options{StallTimeout: 5 * time.Minute})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("send against a closed data port succeeded")
	}
	if errors.Is(err, ErrStalled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("write error reached a watchdog instead of surfacing: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("took %v to surface a persistent write error", elapsed)
	}
}

// TestServerConcurrentTransfersWithCollisions mixes good transfers and
// duplicate-id collisions under -race: collisions must fail fast with the
// right reason and never corrupt the transfers sharing the data socket.
func TestServerConcurrentTransfersWithCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	ep := listen(t, byServe, Options{})
	ep.recv(1)
	const n = 4
	objs := make([][]byte, n)
	var wg sync.WaitGroup
	var completed atomic.Int32
	for i := 0; i < n; i++ {
		objs[i] = makeObj(200<<10 + i)
		id := uint32(i + 1)
		// Two senders race for the same id. Whichever HELLO lands second
		// gets a duplicate-transfer ABORT (or, if the first finished
		// already, a clean sequential reuse) — any other failure is a bug.
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := Send(ep.ctx, ep.l.Addr(), objs[i], core.Config{Transfer: id},
					Options{Pace: 5 * time.Microsecond})
				var abort *AbortError
				if err == nil {
					completed.Add(1)
				} else if !errors.As(err, &abort) || abort.Reason != wire.AbortDuplicateTransfer {
					t.Errorf("transfer %d: unexpected error %v", id, err)
				}
			}(i)
		}
	}
	wg.Wait()
	// Every completed Send was delivered to the handler once.
	delivered := ep.byID(int(completed.Load()))
	for i := 0; i < n; i++ {
		id := uint32(i + 1)
		if !bytes.Equal(delivered[id].obj, objs[i]) {
			t.Errorf("transfer %d corrupted or missing", id)
		}
	}
}

// TestCorruptedPayloadFailsDigest is the integrity acceptance test: a
// transfer whose payload bytes are bit-flipped in flight (corruption the
// per-packet CRC never sees — Checksum is off by default) must fail on
// both endpoints with ErrDigestMismatch instead of reporting success,
// because the CHECK's content digest is verified at completion.
func TestCorruptedPayloadFailsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	ep := listen(t, byAccept, Options{})
	proxy := ep.front(faultnet.New(faultnet.Policy{
		Seed:          7,
		Corrupt:       0.05,
		CorruptOffset: wire.DataHeaderLen, // flip object bytes, not headers
	}))
	p := ep.push(makeObj(1<<20), core.Config{}, Options{Pace: 2 * time.Microsecond})
	if st := proxy.Stats(); st.Corrupted == 0 {
		t.Fatalf("corruption never fired: %+v", st)
	}
	if !errors.Is(p.serr, ErrDigestMismatch) {
		t.Fatalf("sender err = %v, want ErrDigestMismatch", p.serr)
	}
	if !errors.Is(p.err, ErrDigestMismatch) {
		t.Fatalf("receiver err = %v, want ErrDigestMismatch", p.err)
	}
	if IsRetryable(p.serr) {
		t.Fatal("content corruption classified retryable")
	}
}
