// Resume and retry tests: the sever-then-restore and flapping-link
// scenarios the supervisor exists for, the kill-point sweep proving
// bit-identical resumed objects with only the missing packets resent, the
// degradation paths against peers that cannot resume, and checkpointed
// restarts of the receiving process.
package udprt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/wire"
)

// killPointPace paces the senders of the tests that cut a transfer once the
// acknowledged fraction crosses a kill point (the sweep below paces the same
// way, for its waste bound). The cut acts on what the
// sender knows, so the sender must not run ahead of its acknowledgements: an
// unpaced one has the whole object in the proxy's queues before the first
// ack returns, the receiver can then complete after the cut — its COMPLETE
// lost with the severed control stream — and the retries meet a listener
// that has stopped accepting. 32 µs is what these tests' senders achieved
// (12% to 90% of the object confirmed) when they asked for 25 µs of a pacer
// that overslept; asked for 25 µs of one that does not, the 90% cut found
// the rest of the object already in the proxy's queues about one time in
// twenty under -race.
const killPointPace = 32 * time.Microsecond

// acceptUntilSuccess drives a Listener like a resume-aware operator: each
// failed Accept (the interrupted run, refused resumes) is retried until one
// transfer completes or ctx expires. The interrupted runs park their
// partial state in the listener's resume store on the way out.
func acceptUntilSuccess(ctx context.Context, l *Listener) ([]byte, core.ReceiverStats, error) {
	for {
		obj, st, err := l.Accept(ctx)
		if err == nil {
			return obj, st, nil
		}
		if ctx.Err() != nil {
			return nil, st, err
		}
	}
}

// TestResumeKillPointSweep is the acceptance sweep: a transfer severed at
// 10%, 50% and 90% delivered must complete after the supervisor reconnects,
// bit-identical, with the resumed attempt sending only the missing packets
// (plus its own retransmissions) — on both socket paths. At the 50% kill
// point the sweep additionally runs every congestion policy: a resumed
// attempt restarts its controller from scratch (rate state is path state,
// and the path may have changed across the outage), and the missing-only
// budget below proves that cold restart still retransmits essentially just
// the gaps — the resume economy must not depend on which policy paces the
// packets.
func TestResumeKillPointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	for _, frac := range []int{10, 50, 90} {
		frac := frac
		policies := []string{CCFixed}
		if frac == 50 {
			policies = CongestionPolicies()
		}
		for _, policy := range policies {
			policy := policy
			t.Run(fmt.Sprintf("kill-%d%%/cc=%s", frac, policy), func(t *testing.T) {
				eachIOPath(t, func(t *testing.T, noFastPath bool) {
					sreg, rreg := metrics.New(), metrics.New()
					l, err := Listen("127.0.0.1:0", Options{
						NoFastPath:  noFastPath,
						IdleTimeout: 2 * time.Second,
						Metrics:     rreg,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer l.Close()
					proxy, err := faultnet.NewProxy(l.Addr(), nil)
					if err != nil {
						t.Fatal(err)
					}
					defer proxy.Close()

					ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
					defer cancel()
					obj := makeObj(1<<20 + 31)
					type recvResult struct {
						obj []byte
						st  core.ReceiverStats
						err error
					}
					recvCh := make(chan recvResult, 1)
					go func() {
						got, st, err := acceptUntilSuccess(ctx, l)
						recvCh <- recvResult{got, st, err}
					}()

					// Sever both channels once the acked fraction crosses the
					// kill point: the sender sees its control die (retryable),
					// the receiver parks its partial state.
					var cut atomic.Bool
					opts := Options{
						NoFastPath: noFastPath,
						Congestion: policy,
						// Pace the sender so acknowledgements keep up: the waste
						// bound below measures resume economy, not the greedy
						// sweep's ack-lag retransmissions.
						StallTimeout: 2 * time.Second,
						Pace:         killPointPace,
						Metrics:      sreg,
						Retry:        &RetryPolicy{MaxRetries: 4, Backoff: 250 * time.Millisecond, Seed: 7},
						Progress: func(done, total int) {
							if done > total*frac/100 && cut.CompareAndSwap(false, true) {
								proxy.SetBlackhole(true)
								proxy.SeverControl()
								time.AfterFunc(100*time.Millisecond, func() { proxy.SetBlackhole(false) })
							}
						},
					}
					sst, serr := Send(ctx, proxy.Addr(), obj, core.Config{AckFrequency: 8}, opts)
					if !cut.Load() {
						t.Fatal("transfer finished before the kill point; enlarge the object")
					}
					if serr != nil {
						t.Fatalf("supervised send: %v", serr)
					}
					r := <-recvCh
					if r.err != nil {
						t.Fatalf("receive: %v", r.err)
					}
					if !bytes.Equal(r.obj, obj) {
						t.Fatal("resumed object differs from the original")
					}

					// Both sides must have genuinely resumed, not restarted.
					if r.st.Restored == 0 {
						t.Fatal("receiver restored nothing: the retry restarted from scratch")
					}
					if sst.Restored == 0 {
						t.Fatal("sender restored nothing: the retry restarted from scratch")
					}
					// Receiver conservation: fresh arrivals fill exactly the holes.
					if fresh := r.st.Received - r.st.Restored; fresh != r.st.PacketsNeeded-r.st.Restored {
						t.Fatalf("fresh arrivals %d != missing %d", fresh, r.st.PacketsNeeded-r.st.Restored)
					}
					// Sender economy: the final attempt covers only the missing
					// packets, give or take its own retransmission waste.
					missing := sst.PacketsNeeded - sst.Restored
					if sst.PacketsSent < missing {
						t.Fatalf("sent %d < %d missing packets, yet the object completed?", sst.PacketsSent, missing)
					}
					budget := missing/4 + 64
					if sst.PacketsSent > missing+budget {
						t.Fatalf("resumed attempt sent %d packets for %d missing (budget %d): not resuming, restarting",
							sst.PacketsSent, missing, budget)
					}
					// Supervisor counters crossed the resume boundary intact.
					ssnap, rsnap := sreg.Snapshot(), rreg.Snapshot()
					if ssnap.Retries == 0 || ssnap.Resumes == 0 {
						t.Fatalf("sender registry: retries %d resumes %d, want both > 0", ssnap.Retries, ssnap.Resumes)
					}
					if rsnap.Resumes == 0 {
						t.Fatalf("receiver registry: resumes %d, want > 0", rsnap.Resumes)
					}
					if ssnap.Totals.PacketsRestored != int64(sst.Restored) {
						t.Fatalf("registry restored %d, stats restored %d", ssnap.Totals.PacketsRestored, sst.Restored)
					}
					t.Logf("kill at %d%% under %s: restored %d/%d, resumed attempt sent %d (missing %d)",
						frac, policy, sst.Restored, sst.PacketsNeeded, sst.PacketsSent, missing)
				})
			})
		}
	}
}

// TestRetryFlappingLink black-holes the data path twice — control stays up,
// so the failure surfaces as stall/idle watchdog aborts rather than severed
// connections — and expects the supervisor to ride through both outages.
func TestRetryFlappingLink(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	l, err := Listen("127.0.0.1:0", Options{IdleTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy, err := faultnet.NewProxy(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(1 << 20)
	done := make(chan struct{})
	var got []byte
	var rerr error
	go func() {
		defer close(done)
		got, _, rerr = acceptUntilSuccess(ctx, l)
	}()

	// The link drops at 20% and again at 70% of whatever the sender has
	// delivered so far, healing 400ms after each cut.
	var cuts atomic.Int32
	cutAt := func(done, total int) bool {
		switch cuts.Load() {
		case 0:
			return done > total/5
		case 1:
			return done > total*7/10
		default:
			return false
		}
	}
	opts := Options{
		StallTimeout: 400 * time.Millisecond,
		Pace:         2 * time.Microsecond,
		Retry:        &RetryPolicy{MaxRetries: 6, Backoff: 300 * time.Millisecond, Seed: 3},
		Progress: func(done, total int) {
			if cutAt(done, total) {
				cuts.Add(1)
				proxy.SetBlackhole(true)
				time.AfterFunc(400*time.Millisecond, func() { proxy.SetBlackhole(false) })
			}
		},
	}
	sst, serr := Send(ctx, proxy.Addr(), obj, core.Config{AckFrequency: 16}, opts)
	if serr != nil {
		t.Fatalf("supervised send across flapping link: %v", serr)
	}
	<-done
	if rerr != nil {
		t.Fatalf("receive across flapping link: %v", rerr)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted across flapping link")
	}
	if cuts.Load() == 0 {
		t.Fatal("link never flapped; enlarge the object")
	}
	if sst.Restored == 0 {
		t.Fatal("final attempt restored nothing: retries restarted from scratch")
	}
	t.Logf("flapping link: %d cuts, final attempt restored %d/%d, sent %d",
		cuts.Load(), sst.Restored, sst.PacketsNeeded, sst.PacketsSent)
}

// TestRetryDegradesWhenReceiverCannotResume points the supervisor at a
// listener with retention disabled: every RESUME is refused with
// no-such-state and the retry must fall back to a full fresh transfer —
// the RESUME-unaware-peer compatibility guarantee.
func TestRetryDegradesWhenReceiverCannotResume(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	l, err := Listen("127.0.0.1:0", Options{ResumeWindow: -1, IdleTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy, err := faultnet.NewProxy(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(512 << 10)
	done := make(chan struct{})
	var got []byte
	var rerr error
	go func() {
		defer close(done)
		got, _, rerr = acceptUntilSuccess(ctx, l)
	}()

	var cut atomic.Bool
	opts := Options{
		StallTimeout: 2 * time.Second,
		Pace:         killPointPace,
		Retry:        &RetryPolicy{MaxRetries: 4, Backoff: 250 * time.Millisecond, Seed: 5},
		Progress: func(done, total int) {
			if done > total/2 && cut.CompareAndSwap(false, true) {
				proxy.SetBlackhole(true)
				proxy.SeverControl()
				time.AfterFunc(100*time.Millisecond, func() { proxy.SetBlackhole(false) })
			}
		},
	}
	sst, serr := Send(ctx, proxy.Addr(), obj, core.Config{AckFrequency: 16}, opts)
	if !cut.Load() {
		t.Fatal("transfer finished before the kill point; enlarge the object")
	}
	if serr != nil {
		t.Fatalf("supervised send against no-resume receiver: %v", serr)
	}
	<-done
	if rerr != nil {
		t.Fatalf("receive: %v", rerr)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted by degraded retry")
	}
	if sst.Restored != 0 {
		t.Fatalf("restored %d packets from a receiver that retains nothing", sst.Restored)
	}
	if sst.PacketsSent < sst.PacketsNeeded {
		t.Fatalf("fresh fallback sent %d of %d packets", sst.PacketsSent, sst.PacketsNeeded)
	}
}

// TestRetryNoResumePolicy forces the fresh-restart path from the sender's
// side: with NoResume set the retry must never open with a RESUME even
// though the receiver retained state for it.
func TestRetryNoResumePolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	l, err := Listen("127.0.0.1:0", Options{IdleTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy, err := faultnet.NewProxy(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(512 << 10)
	done := make(chan struct{})
	var got []byte
	var rerr error
	go func() {
		defer close(done)
		got, _, rerr = acceptUntilSuccess(ctx, l)
	}()

	var cut atomic.Bool
	opts := Options{
		StallTimeout: 2 * time.Second,
		Pace:         killPointPace,
		Retry:        &RetryPolicy{MaxRetries: 4, Backoff: 250 * time.Millisecond, Seed: 5, NoResume: true},
		Progress: func(done, total int) {
			if done > total/2 && cut.CompareAndSwap(false, true) {
				proxy.SetBlackhole(true)
				proxy.SeverControl()
				time.AfterFunc(100*time.Millisecond, func() { proxy.SetBlackhole(false) })
			}
		},
	}
	sst, serr := Send(ctx, proxy.Addr(), obj, core.Config{AckFrequency: 16}, opts)
	if serr != nil {
		t.Fatalf("supervised send with NoResume: %v", serr)
	}
	<-done
	if rerr != nil {
		t.Fatalf("receive: %v", rerr)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted")
	}
	if sst.Restored != 0 {
		t.Fatalf("NoResume policy still restored %d packets", sst.Restored)
	}
}

// TestResumeAfterReceiverRestart is the durability proof: the receiving
// process dies mid-transfer, a new one binds the same port with the same
// checkpoint directory, and the supervisor's RESUME finds the state on
// disk. The checkpoint file must be consumed by the successful claim.
func TestResumeAfterReceiverRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	dir := t.TempDir()
	l1, err := Listen("127.0.0.1:0", Options{Checkpoint: dir, IdleTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr()
	proxy, err := faultnet.NewProxy(addr, nil)
	if err != nil {
		l1.Close()
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	obj := makeObj(768 << 10)
	const transferID = 42

	// Phase 1: the first listener takes the interrupted run, checkpoints it
	// on the abort, and is shut down — the process-death analogue.
	phase1 := make(chan error, 1)
	go func() {
		_, _, err := l1.Accept(ctx)
		phase1 <- err
	}()
	// Phase 2 runs concurrently with the supervisor's backoff: once the
	// first listener reports its abort, restart on the same port.
	restarted := make(chan *Listener, 1)
	go func() {
		if err := <-phase1; err == nil {
			t.Error("interrupted accept succeeded")
			restarted <- nil
			return
		}
		l1.Close()
		// The port was just released; a short grace covers rebind lag.
		var l2 *Listener
		var err error
		for i := 0; i < 50; i++ {
			l2, err = Listen(addr, Options{Checkpoint: dir, IdleTimeout: 2 * time.Second})
			if err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			t.Errorf("rebinding %s: %v", addr, err)
			restarted <- nil
			return
		}
		if got := len(l2.store.entries); got != 1 {
			t.Errorf("restarted listener loaded %d checkpoints, want 1", got)
		}
		restarted <- l2
	}()

	var cut atomic.Bool
	opts := Options{
		StallTimeout: 2 * time.Second,
		Pace:         killPointPace,
		Retry:        &RetryPolicy{MaxRetries: 5, Backoff: 400 * time.Millisecond, Seed: 11},
		Progress: func(done, total int) {
			if done > total/2 && cut.CompareAndSwap(false, true) {
				proxy.SetBlackhole(true)
				proxy.SeverControl()
				time.AfterFunc(100*time.Millisecond, func() { proxy.SetBlackhole(false) })
			}
		},
	}
	sendDone := make(chan struct{})
	var sst core.SenderStats
	var serr error
	go func() {
		defer close(sendDone)
		sst, serr = Send(ctx, proxy.Addr(), obj, core.Config{Transfer: transferID, AckFrequency: 16}, opts)
	}()

	l2 := <-restarted
	if l2 == nil {
		t.FailNow()
	}
	defer l2.Close()
	got, rst, rerr := acceptUntilSuccess(ctx, l2)
	<-sendDone
	if serr != nil {
		t.Fatalf("supervised send across receiver restart: %v", serr)
	}
	if rerr != nil {
		t.Fatalf("receive after restart: %v", rerr)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted across receiver restart")
	}
	if rst.Restored == 0 || sst.Restored == 0 {
		t.Fatalf("restart did not resume: receiver restored %d, sender restored %d",
			rst.Restored, sst.Restored)
	}
	if _, err := os.Stat(checkpoint.File(dir, transferID)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not consumed by the successful resume: %v", err)
	}
}

// TestServerResumesTransfer runs the sever-then-resume cycle against the
// concurrent Server: its control handler must retain on abort and answer a
// later RESUME from its shared store.
func TestServerResumesTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	srv, err := NewServer("127.0.0.1:0", Options{IdleTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := faultnet.NewProxy(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type delivery struct {
		obj []byte
		st  core.ReceiverStats
	}
	delivered := make(chan delivery, 1)
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ctx, func(_ uint32, obj []byte, st core.ReceiverStats) {
			delivered <- delivery{obj, st}
		})
	}()

	obj := makeObj(1 << 20)
	var cut atomic.Bool
	opts := Options{
		StallTimeout: 2 * time.Second,
		Pace:         killPointPace,
		Retry:        &RetryPolicy{MaxRetries: 4, Backoff: 250 * time.Millisecond, Seed: 9},
		Progress: func(done, total int) {
			if done > total/2 && cut.CompareAndSwap(false, true) {
				proxy.SetBlackhole(true)
				proxy.SeverControl()
				time.AfterFunc(100*time.Millisecond, func() { proxy.SetBlackhole(false) })
			}
		},
	}
	sst, serr := Send(ctx, proxy.Addr(), obj, core.Config{Transfer: 77, AckFrequency: 16}, opts)
	if !cut.Load() {
		t.Fatal("transfer finished before the kill point; enlarge the object")
	}
	if serr != nil {
		t.Fatalf("supervised send to server: %v", serr)
	}
	select {
	case d := <-delivered:
		if !bytes.Equal(d.obj, obj) {
			t.Fatal("server delivered a corrupted object")
		}
		if d.st.Restored == 0 {
			t.Fatal("server restored nothing: the retry restarted from scratch")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never delivered the resumed object")
	}
	if sst.Restored == 0 {
		t.Fatal("sender restored nothing against the server")
	}
	cancel()
	<-serveDone
}

// TestIsRetryable pins the supervisor's error taxonomy: transient failures
// retry, deliberate rejections and terminal verdicts do not.
func TestIsRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"cancelled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"wrapped-cancel", fmt.Errorf("outer: %w", context.Canceled), false},
		{"digest-mismatch", fmt.Errorf("verify: %w", ErrDigestMismatch), false},
		{"hellox-version", wire.ErrHelloXVersion, false},
		{"resume-version", wire.ErrResumeVersion, false},
		{"session-broken", ErrSessionBroken, false},
		{"stalled", fmt.Errorf("udprt: %w", ErrStalled), true},
		{"idle", ErrIdle, true},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"op-error", &net.OpError{Op: "dial", Err: errors.New("connection refused")}, true},
		{"abort-stalled", &AbortError{Reason: wire.AbortStalled}, true},
		{"abort-idle", &AbortError{Reason: wire.AbortIdleTimeout}, true},
		{"abort-cancelled", &AbortError{Reason: wire.AbortCancelled}, true},
		{"abort-unspecified", &AbortError{Reason: wire.AbortUnspecified}, true},
		{"abort-bad-hello", &AbortError{Reason: wire.AbortBadHello}, false},
		{"abort-duplicate", &AbortError{Reason: wire.AbortDuplicateTransfer}, false},
		{"abort-unsupported", &AbortError{Reason: wire.AbortUnsupported}, false},
		{"abort-digest", &AbortError{Reason: wire.AbortDigestMismatch}, false},
		{"abort-resume-unknown", &AbortError{Reason: wire.AbortResumeUnknown}, false},
		{"plain", errors.New("something else"), false},
	}
	for _, tc := range cases {
		if got := IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryPolicyDelay pins the backoff schedule: exponential growth from
// Backoff, capped at MaxBackoff, jittered to 50–100% of nominal.
func TestRetryPolicyDelay(t *testing.T) {
	pol := RetryPolicy{Backoff: 100 * time.Millisecond, MaxBackoff: 400 * time.Millisecond, Seed: 1}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	for attempt, nominal := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		4: 400 * time.Millisecond, // capped
		9: 400 * time.Millisecond, // stays capped (no overflow wrap)
	} {
		for i := 0; i < 32; i++ {
			d := pol.delay(attempt, rng)
			if d < nominal/2 || d > nominal {
				t.Fatalf("delay(attempt=%d) = %v, want within [%v, %v]", attempt, d, nominal/2, nominal)
			}
		}
	}
	def := RetryPolicy{}.withDefaults()
	if def.MaxRetries != 3 || def.Backoff != 500*time.Millisecond || def.MaxBackoff != 15*time.Second {
		t.Fatalf("defaults = %+v", def)
	}
	if off := (RetryPolicy{MaxRetries: -1}).withDefaults(); off.MaxRetries != 0 {
		t.Fatalf("MaxRetries -1 → %d, want 0", off.MaxRetries)
	}
}

// TestResumeStoreClaim covers the store's refusal matrix: unknown id,
// geometry mismatch, digest mismatch, and the consume-on-claim contract.
func TestResumeStoreClaim(t *testing.T) {
	store := &resumeStore{window: time.Minute, entries: map[uint32]*retained{}}
	store.put(7, &retained{objectSize: 1000, packetSize: 100, received: 3,
		obj: make([]byte, 1000), words: []uint64{0x7}})

	if ret, reason := store.claim(wire.Resume{Transfer: 8, ObjectSize: 1000, PacketSize: 100}); ret != nil || reason != wire.AbortResumeUnknown {
		t.Fatalf("unknown id: ret=%v reason=%v", ret, reason)
	}
	if ret, reason := store.claim(wire.Resume{Transfer: 7, ObjectSize: 2000, PacketSize: 100}); ret != nil || reason != wire.AbortBadHello {
		t.Fatalf("size mismatch: ret=%v reason=%v", ret, reason)
	}
	if ret, reason := store.claim(wire.Resume{Transfer: 7, ObjectSize: 1000, PacketSize: 200}); ret != nil || reason != wire.AbortBadHello {
		t.Fatalf("packet-size mismatch: ret=%v reason=%v", ret, reason)
	}
	// A refused claim must leave the entry in place…
	ret, reason := store.claim(wire.Resume{Transfer: 7, ObjectSize: 1000, PacketSize: 100, Digest: 0xD})
	if ret == nil {
		t.Fatalf("valid claim refused: %v", reason)
	}
	if !ret.hasDigest || ret.digest != 0xD {
		t.Fatalf("claim did not adopt the RESUME digest: %+v", ret)
	}
	// …and a successful one must consume it.
	if ret, _ := store.claim(wire.Resume{Transfer: 7, ObjectSize: 1000, PacketSize: 100, Digest: 0xD}); ret != nil {
		t.Fatal("second claim of a consumed entry succeeded")
	}

	// Digest pinned by a previous RESUME refuses a different object.
	store.put(9, &retained{objectSize: 1000, packetSize: 100, received: 3,
		obj: make([]byte, 1000), words: []uint64{0x7}, digest: 0xAA, hasDigest: true})
	if ret, reason := store.claim(wire.Resume{Transfer: 9, ObjectSize: 1000, PacketSize: 100, Digest: 0xBB}); ret != nil || reason != wire.AbortDigestMismatch {
		t.Fatalf("digest mismatch: ret=%v reason=%v", ret, reason)
	}

	// A nil store refuses everything and never panics.
	var nilStore *resumeStore
	if ret, reason := nilStore.claim(wire.Resume{Transfer: 7}); ret != nil || reason != wire.AbortResumeUnknown {
		t.Fatalf("nil store: ret=%v reason=%v", ret, reason)
	}
	nilStore.put(1, &retained{})
	nilStore.retainReceiver(1, 0, 0, nil, 0, false)
}

// TestResumeStoreEvictionAndExpiry bounds the store: the oldest entry is
// evicted past maxRetained, and the grace window reaps on schedule.
func TestResumeStoreEvictionAndExpiry(t *testing.T) {
	store := &resumeStore{entries: map[uint32]*retained{}} // window 0: no timers
	for i := 0; i < maxRetained+3; i++ {
		store.put(uint32(i), &retained{objectSize: 10, packetSize: 10, received: 1})
		// put() stamps retainedAt with the wall clock; space the entries so
		// "oldest" is well defined.
		time.Sleep(time.Millisecond)
	}
	store.mu.Lock()
	n := len(store.entries)
	_, oldest := store.entries[0]
	_, second := store.entries[1]
	_, third := store.entries[2]
	_, newest := store.entries[maxRetained+2]
	store.mu.Unlock()
	if n != maxRetained {
		t.Fatalf("store holds %d entries, want %d", n, maxRetained)
	}
	if oldest || second || third {
		t.Fatal("oldest entries survived eviction")
	}
	if !newest {
		t.Fatal("newest entry was evicted")
	}

	// Replacing an existing id must not evict anyone.
	store.put(uint32(maxRetained+2), &retained{objectSize: 11, packetSize: 10, received: 2})
	store.mu.Lock()
	n = len(store.entries)
	store.mu.Unlock()
	if n != maxRetained {
		t.Fatalf("replacement changed the count to %d", n)
	}

	fast := &resumeStore{window: 30 * time.Millisecond, entries: map[uint32]*retained{}}
	fast.put(1, &retained{objectSize: 10, packetSize: 10, received: 1})
	deadline := time.Now().Add(5 * time.Second)
	for {
		fast.mu.Lock()
		_, alive := fast.entries[1]
		fast.mu.Unlock()
		if !alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("entry never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestListenSurvivesCorruptCheckpoints seeds a checkpoint directory with
// every flavour of broken file — torn, checksum-flipped, wrong magic,
// empty, junk-named — plus one valid checkpoint, and requires Listen to
// come up without panicking, resume the one valid transfer, and treat the
// rest as unresumable. Startup over a dirty state directory is exactly the
// daemon-restart path, so corruption must degrade, never crash.
func TestListenSurvivesCorruptCheckpoints(t *testing.T) {
	dir := t.TempDir()

	// One genuine checkpoint for transfer 5: an empty bitmap is fine (a
	// RESUME against it just resends everything).
	obj := makeObj(4 << 10)
	rcv := core.NewReceiver(int64(len(obj)), core.Config{Transfer: 5, PacketSize: 512})
	if err := checkpoint.Save(dir, &checkpoint.State{
		Transfer:   5,
		ObjectSize: uint64(len(obj)),
		PacketSize: 512,
		Digest:     wire.ObjectDigest(obj),
		HasDigest:  true,
		Words:      rcv.HaveWords(nil),
		Object:     make([]byte, len(obj)),
	}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(checkpoint.File(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Broken neighbors under legitimate checkpoint names.
	writeCkpt := func(transfer uint32, b []byte) {
		if err := os.WriteFile(checkpoint.File(dir, transfer), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torn := append([]byte(nil), good...)
	writeCkpt(6, torn[:len(torn)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1]++
	writeCkpt(7, flipped)
	writeCkpt(8, []byte("XXXXXXXXnot a checkpoint at all"))
	writeCkpt(9, nil)
	if err := os.WriteFile(checkpoint.File(dir, 10)+".tmp", good, 0o644); err != nil {
		t.Fatal(err) // a crash's leftover temporary
	}

	l, err := Listen("127.0.0.1:0", Options{Checkpoint: dir})
	if err != nil {
		t.Fatalf("Listen over a dirty checkpoint dir: %v", err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	recvCh := make(chan error, 1)
	var got []byte
	go func() {
		g, _, err := acceptUntilSuccess(ctx, l)
		got = g
		recvCh <- err
	}()
	// The valid checkpoint answers a RESUME for transfer 5; the supervisor
	// completes the object against its empty bitmap.
	sst, err := Send(ctx, l.Addr(), obj, core.Config{Transfer: 5, PacketSize: 512},
		Options{Retry: &RetryPolicy{Seed: 2}, ResumeFirst: true})
	if err != nil {
		t.Fatalf("resume against restored checkpoint: %v", err)
	}
	if err := <-recvCh; err != nil {
		t.Fatalf("receive: %v", err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted after checkpoint restore")
	}
	// The handshake genuinely took the resume path (zero restored packets —
	// the bitmap was empty — but the RESUME was accepted, not refused).
	if sst.PacketsNeeded != sst.PacketsSent-sst.Retransmits {
		t.Logf("resumed send: needed %d, sent %d", sst.PacketsNeeded, sst.PacketsSent)
	}

	// And a RESUME for a transfer whose checkpoint was corrupt is refused
	// in the degradable way: the supervised sender falls back to a fresh
	// transfer and still succeeds.
	recvCh2 := make(chan error, 1)
	var got2 []byte
	go func() {
		g, _, err := acceptUntilSuccess(ctx, l)
		got2 = g
		recvCh2 <- err
	}()
	obj2 := makeObj(2 << 10)
	sst2, err := Send(ctx, l.Addr(), obj2, core.Config{Transfer: 7, PacketSize: 512},
		Options{Retry: &RetryPolicy{Seed: 4}, ResumeFirst: true})
	if err != nil {
		t.Fatalf("send for corrupt-checkpoint id: %v", err)
	}
	if sst2.Restored != 0 {
		t.Fatalf("restored %d packets from a corrupt checkpoint", sst2.Restored)
	}
	if err := <-recvCh2; err != nil {
		t.Fatalf("receive 2: %v", err)
	}
	if !bytes.Equal(got2, obj2) {
		t.Fatal("fallback object corrupted")
	}
}
