// Resume and retry tests: the sever-then-restore and flapping-link
// scenarios the supervisor exists for, the kill-point sweep proving
// bit-identical resumed objects with only the missing packets resent, the
// degradation paths against peers that cannot resume, and checkpointed
// restarts of the receiving process.
package udprt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
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
					ep := listen(t, byAccept, Options{
						NoFastPath:  noFastPath,
						IdleTimeout: 2 * time.Second,
						Metrics:     rreg,
					})
					proxy := ep.front(nil)
					obj := makeObj(1<<20 + 31)
					ep.recvUntilSuccess()

					// Sever both channels once the acked fraction crosses the
					// kill point: the sender sees its control die (retryable),
					// the receiver parks its partial state. The receiver must
					// not complete ahead of the cut (beforeEnd).
					var cut atomic.Bool
					sever := func() {
						if cut.CompareAndSwap(false, true) {
							proxy.SetBlackhole(true)
							proxy.SeverControl()
							time.AfterFunc(100*time.Millisecond, func() { proxy.SetBlackhole(false) })
						}
					}
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
							if done > total*frac/100 {
								sever()
							}
						},
					}
					opts.testFlushHook = beforeEnd(core.NumPackets(int64(len(obj)), core.DefaultPacketSize), sever)
					sst, serr := Send(ep.ctx, proxy.Addr(), obj, core.Config{AckFrequency: 8}, opts)
					if !cut.Load() {
						t.Fatal("transfer finished before the kill point; enlarge the object")
					}
					if serr != nil {
						t.Fatalf("supervised send: %v", serr)
					}
					r := ep.delivered(obj)

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
	ep := listen(t, byAccept, Options{IdleTimeout: 30 * time.Second})
	proxy := ep.front(nil)
	obj := makeObj(1 << 20)
	ep.recvUntilSuccess()

	// The link drops at 20% and again at 70% of whatever the sender has
	// delivered so far, healing 400ms after each cut; the first drop comes
	// before the transfer can end (beforeEnd).
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
	flap := func() {
		cuts.Add(1)
		proxy.SetBlackhole(true)
		time.AfterFunc(400*time.Millisecond, func() { proxy.SetBlackhole(false) })
	}
	opts := Options{
		StallTimeout: 400 * time.Millisecond,
		Pace:         2 * time.Microsecond,
		Retry:        &RetryPolicy{MaxRetries: 6, Backoff: 300 * time.Millisecond, Seed: 3},
		Progress: func(done, total int) {
			if cutAt(done, total) {
				flap()
			}
		},
	}
	opts.testFlushHook = beforeEnd(core.NumPackets(int64(len(obj)), core.DefaultPacketSize), func() {
		if cuts.Load() == 0 {
			flap()
		}
	})
	sst, serr := Send(ep.ctx, proxy.Addr(), obj, core.Config{AckFrequency: 16}, opts)
	if serr != nil {
		t.Fatalf("supervised send across flapping link: %v", serr)
	}
	ep.delivered(obj)
	if cuts.Load() == 0 {
		t.Fatal("link never flapped; enlarge the object")
	}
	if sst.Restored == 0 {
		t.Fatal("final attempt restored nothing: retries restarted from scratch")
	}
	t.Logf("flapping link: %d cuts, final attempt restored %d/%d, sent %d",
		cuts.Load(), sst.Restored, sst.PacketsNeeded, sst.PacketsSent)
}

// TestRetryOutlastsALateListener: Options.Retry, Send's one retry ladder,
// covers the dial: a Send whose first dial is refused — nothing listens there
// yet — is re-dialled once a listener is up, and completes.
func TestRetryOutlastsALateListener(t *testing.T) {
	obj := makeObj(64 << 10)
	gone := listen(t, byAccept, Options{}) // a port bound, noted and released
	addr := gone.l.Addr()
	gone.close()
	reg := metrics.New()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sent := make(chan error, 1)
	go func() {
		_, err := Send(ctx, addr, obj, core.Config{Transfer: 5}, Options{Metrics: reg,
			Retry: &RetryPolicy{MaxRetries: 8, Backoff: 100 * time.Millisecond, Seed: 5}})
		sent <- err
	}()
	waitUntil(t, 10*time.Second, "the first dial refused", func() bool { return reg.Snapshot().Retries > 0 })
	ep := listenAt(t, addr, byAccept, Options{})
	ep.recv(1)
	if err := <-sent; err != nil {
		t.Fatalf("a supervised Send against a late listener: %v", err)
	}
	ep.delivered(obj)
}

// TestSendWithoutRetryDialsOnce: without Options.Retry, Send makes exactly
// one attempt. A peer that accepts the control connection and drops it —
// a failure the supervisor would retry — sees one connection.
func TestSendWithoutRetryDialsOnce(t *testing.T) {
	stub := newFakeReceiver(t, false)
	var conns atomic.Int32
	go func() {
		for {
			c, err := stub.tcp.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			c.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := Send(ctx, stub.addr(), makeObj(1024), core.Config{Transfer: 6, PacketSize: 512}, Options{})
	if err == nil || !IsRetryable(err) {
		t.Fatalf("err = %v, want a failure the supervisor would retry", err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

// TestRetryDegradesWhenReceiverCannotResume points the supervisor at a
// listener with retention disabled: every retry's CHECK is answered a miss,
// and the retry is a full fresh transfer.
func TestRetryDegradesWhenReceiverCannotResume(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	ep := listen(t, byAccept, Options{ResumeWindow: -1, IdleTimeout: 2 * time.Second})
	proxy := ep.front(nil)
	obj := makeObj(512 << 10)
	ep.recvUntilSuccess()

	var cut atomic.Bool
	sever := func() {
		if cut.CompareAndSwap(false, true) {
			proxy.SetBlackhole(true)
			proxy.SeverControl()
			time.AfterFunc(100*time.Millisecond, func() { proxy.SetBlackhole(false) })
		}
	}
	opts := Options{
		StallTimeout: 2 * time.Second,
		Pace:         killPointPace,
		Retry:        &RetryPolicy{MaxRetries: 4, Backoff: 250 * time.Millisecond, Seed: 5},
		Progress: func(done, total int) {
			if done > total/2 {
				sever()
			}
		},
	}
	opts.testFlushHook = beforeEnd(core.NumPackets(int64(len(obj)), core.DefaultPacketSize), sever)
	sst, serr := Send(ep.ctx, proxy.Addr(), obj, core.Config{AckFrequency: 16}, opts)
	if !cut.Load() {
		t.Fatal("transfer finished before the kill point; enlarge the object")
	}
	if serr != nil {
		t.Fatalf("supervised send against no-resume receiver: %v", serr)
	}
	ep.delivered(obj)
	if sst.Restored != 0 {
		t.Fatalf("restored %d packets from a receiver that retains nothing", sst.Restored)
	}
	if sst.PacketsSent < sst.PacketsNeeded {
		t.Fatalf("fresh fallback sent %d of %d packets", sst.PacketsSent, sst.PacketsNeeded)
	}
}

// TestResumeAfterReceiverRestart is the durability proof: the receiving
// process dies mid-transfer, a new one binds the same port with the same
// checkpoint directory, and the supervisor's retry finds the state on disk
// by its content. The checkpoint file must be consumed by the successful
// claim.
func TestResumeAfterReceiverRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	dir := t.TempDir()
	opts := Options{Checkpoint: dir, IdleTimeout: 2 * time.Second}
	first := listen(t, byAccept, opts)
	proxy := first.front(nil)
	obj := makeObj(768 << 10)
	const transferID = 42

	// Phase 1: the first listener takes the interrupted run, checkpoints it
	// on the abort, and is shut down — the process-death analogue.
	first.recv(1)
	var cut atomic.Bool
	sopts := Options{
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
	type sent struct {
		st  core.SenderStats
		err error
	}
	sendDone := make(chan sent, 1)
	go func() {
		st, err := Send(first.ctx, proxy.Addr(), obj, core.Config{Transfer: transferID, AckFrequency: 16}, sopts)
		sendDone <- sent{st, err}
	}()
	if r, _ := first.result(true); r.err == nil {
		t.Fatal("interrupted accept succeeded")
	}

	// Phase 2 runs concurrently with the supervisor's backoff: once the
	// first listener reports its abort, restart on the same port.
	first.l.Close()
	ep := listenAt(t, first.l.Addr(), byAccept, opts)
	if got := len(ep.l.store.entries); got != 1 {
		t.Fatalf("restarted listener loaded %d checkpoints, want 1", got)
	}
	ep.recvUntilSuccess()
	s := <-sendDone
	if s.err != nil {
		t.Fatalf("supervised send across receiver restart: %v", s.err)
	}
	if r := ep.delivered(obj); r.st.Restored == 0 || s.st.Restored == 0 {
		t.Fatalf("restart did not resume: receiver restored %d, sender restored %d",
			r.st.Restored, s.st.Restored)
	}
	if st, err := checkpoint.Load(checkpoint.CacheFile(dir, core.ContentID(obj))); err == nil && len(st.Words) > 0 {
		t.Fatalf("checkpoint not consumed by the successful resume: its file still holds %d of %d packets", st.Received, s.st.PacketsNeeded)
	}
}

// TestServerResumesTransfer runs the sever-then-resume cycle against the
// concurrent Server: its control handler must retain on abort and answer a
// later RESUME from its shared store.
func TestServerResumesTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	ep := listen(t, byServe, Options{IdleTimeout: 2 * time.Second})
	proxy := ep.front(nil)
	ep.recv(1)

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
	sst, serr := Send(ep.ctx, proxy.Addr(), obj, core.Config{Transfer: 77, AckFrequency: 16}, opts)
	if !cut.Load() {
		t.Fatal("transfer finished before the kill point; enlarge the object")
	}
	if serr != nil {
		t.Fatalf("supervised send to server: %v", serr)
	}
	if d := ep.delivered(obj); d.st.Restored == 0 {
		t.Fatal("server restored nothing: the retry restarted from scratch")
	}
	if sst.Restored == 0 {
		t.Fatal("sender restored nothing against the server")
	}
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
		{"check-version", fmt.Errorf("udprt: %w", wire.ErrCheckVersion), false},
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
		{"abort-reserved", &AbortError{Reason: 8}, false},
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

// retainedOf is a partial entry for size bytes of content id, holding its
// first packet of 100 bytes.
func retainedOf(id byte, size uint64) *entry {
	return &entry{content: [32]byte{id}, packetSize: 100, received: 1, obj: make([]byte, size), words: []uint64{1}}
}

// claim is what a single-flow plan's landing claims from the store: the
// partial entry it lands in, or nil. The landing ends at once, so a claim
// consumes the entry.
func (s *store) claim(plan recvPlan) *entry {
	h := s.open(plan)
	defer h.release()
	return h.claimed
}

// partials reports the partial entries held.
func (s *store) partials() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries) - s.wholes
}

// TestResumeStoreClaim covers the store's identity rule: a claim is a hit
// only for the announced content in the announced geometry, a hit consumes
// the entry, a miss leaves every entry alone, and striped plans never claim.
func TestResumeStoreClaim(t *testing.T) {
	s := &store{window: time.Minute}
	held := retainedOf(0xA, 1000)
	s.hold(held)
	plan := func(id byte, transfer uint32, size uint64, ps int) recvPlan {
		return recvPlan{base: transfer, objectSize: size, packetSize: ps, checkDigest: [32]byte{id}}
	}
	for name, p := range map[string]recvPlan{
		"other content, retained id": plan(0xB, 7, 1000, 100),
		"other size":                 plan(0xA, 7, 2000, 100),
		"other packet size":          plan(0xA, 7, 1000, 200),
		"striped": func() recvPlan {
			p := plan(0xA, 7, 1000, 100)
			p.stripes = []wire.StripeDesc{{Transfer: 7, Length: 500}, {Transfer: 8, Offset: 500, Length: 500}}
			return p
		}(),
	} {
		if ret := s.claim(p); ret != nil {
			t.Fatalf("%s: claimed %+v", name, ret)
		}
	}
	// The content is the identity: another transfer id claims it…
	ret := s.claim(plan(0xA, 99, 1000, 100))
	if ret != held {
		t.Fatalf("a claim of retained content under another id: %+v", ret)
	}
	// …and a successful claim consumes it.
	if ret := s.claim(plan(0xA, 99, 1000, 100)); ret != nil {
		t.Fatal("second claim of a consumed entry succeeded")
	}

	// Entries are named by content alone: two contents retained by
	// transfers under one id are two entries, each claimable.
	s.hold(retainedOf(0xA, 1000))
	s.hold(retainedOf(0xB, 1000))
	if s.claim(plan(0xA, 7, 1000, 100)) == nil || s.claim(plan(0xB, 7, 1000, 100)) == nil {
		t.Fatal("one content's entry displaced another's")
	}

	// A store that keeps no partial entries (ResumeWindow < 0) claims
	// nothing and never panics.
	off := &store{window: -1}
	off.hold(retainedOf(0xA, 1000))
	if ret := off.claim(plan(0xA, 7, 1000, 100)); ret != nil {
		t.Fatalf("a store with retention off claimed %+v", ret)
	}
	h := off.open(plan(0xA, 7, 1000, 100))
	h.retain(nil)
	h.release()
}

// TestResumeStoreEvictionAndExpiry bounds the store: the oldest entry is
// evicted past maxRetained, and the grace window reaps on schedule.
func TestResumeStoreEvictionAndExpiry(t *testing.T) {
	s := &store{} // window 0: no timers
	for i := 0; i < maxRetained+3; i++ {
		s.hold(retainedOf(byte(i), 10))
	}
	held := func(id byte) bool { return s.entryOf([32]byte{id}) != nil }
	if n := s.partials(); n != maxRetained {
		t.Fatalf("store holds %d entries, want %d", n, maxRetained)
	}
	if held(0) || held(1) || held(2) {
		t.Fatal("oldest entries survived eviction")
	}
	if !held(maxRetained + 2) {
		t.Fatal("newest entry was evicted")
	}

	// Replacing the entry for held content must not evict anyone.
	s.hold(retainedOf(maxRetained+2, 11))
	if n := s.partials(); n != maxRetained {
		t.Fatalf("replacement changed the count to %d", n)
	}

	fast := &store{window: 30 * time.Millisecond}
	fast.hold(retainedOf(1, 10))
	waitUntil(t, 5*time.Second, "the entry expiring", func() bool { return fast.partials() == 0 })
}

// TestListenSurvivesCorruptCheckpoints seeds a checkpoint directory with
// every flavour of broken file — torn, checksum-flipped, wrong magic,
// empty, junk-named — plus a checkpoint an earlier format version wrote, one
// that names no content, one in an earlier build's transfer-id naming, and
// one valid checkpoint, and requires Listen to come up without panicking and
// without rewriting what it loads, remove the three that nothing could ever
// claim, resume the one valid transfer, and treat the rest as unresumable.
// Startup over a dirty state directory is exactly the daemon-restart path,
// so corruption must degrade, never crash.
func TestListenSurvivesCorruptCheckpoints(t *testing.T) {
	dir := t.TempDir()

	// One genuine checkpoint: an empty bitmap is fine (the transfer that
	// claims it just moves everything).
	obj := makeObj(4 << 10)
	rcv := core.NewReceiver(int64(len(obj)), core.Config{Transfer: 5, PacketSize: 512})
	valid := &checkpoint.State{
		ObjectSize: uint64(len(obj)),
		PacketSize: 512,
		Words:      rcv.HaveWords(nil),
		Object:     make([]byte, len(obj)),
		Content:    core.ContentID(obj),
		HasContent: true,
	}
	if err := checkpoint.SaveCache(dir, valid); err != nil {
		t.Fatal(err)
	}
	validFile := checkpoint.CacheFile(dir, valid.Content)
	good, err := os.ReadFile(validFile)
	if err != nil {
		t.Fatal(err)
	}
	// Broken neighbors under legitimate checkpoint names.
	named := func(id byte) string { return checkpoint.CacheFile(dir, [32]byte{id}) }
	writeCkpt := func(id byte, b []byte) {
		if err := os.WriteFile(named(id), b, 0o644); err != nil {
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
	if err := os.WriteFile(named(10)+".tmp", good, 0o644); err != nil {
		t.Fatal(err) // a crash's leftover temporary
	}
	// A version-1 file (its checksum restamped, so only the version is
	// wrong), a current one that names no content, and a current one in the
	// transfer-id naming.
	v1 := append([]byte(nil), good...)
	v1[8] = 1
	binary.BigEndian.PutUint32(v1[len(v1)-4:], crc32.Checksum(v1[8:len(v1)-4], crc32.MakeTable(crc32.Castagnoli)))
	writeCkpt(11, v1)
	anonymous := *valid
	anonymous.Transfer, anonymous.HasContent = 12, false
	if err := checkpoint.Save(dir, &anonymous); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(checkpoint.File(dir, 12), named(12)); err != nil {
		t.Fatal(err)
	}
	byTransfer := *valid
	byTransfer.Transfer = 13
	if err := checkpoint.Save(dir, &byTransfer); err != nil {
		t.Fatal(err)
	}
	// Backdate the valid file: loading it must not write it again.
	backdated := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(validFile, backdated, backdated); err != nil {
		t.Fatal(err)
	}

	ep := listen(t, byAccept, Options{Checkpoint: dir})
	if fi, err := os.Stat(validFile); err != nil || !fi.ModTime().Equal(backdated) {
		t.Fatalf("Listen rewrote the checkpoint it loaded: %v, %v", fi.ModTime(), err)
	}
	for _, path := range []string{named(11), named(12), checkpoint.File(dir, 13)} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("unclaimable checkpoint %s survived Listen: %v", filepath.Base(path), err)
		}
	}

	// The valid checkpoint answers the CHECK for its content; the transfer
	// completes the object against its empty bitmap, and consumes it.
	if rst := ep.pushOK(obj, core.Config{Transfer: 5, PacketSize: 512}, Options{}).st; rst.Restored != 0 {
		t.Fatalf("%d restored from an empty bitmap", rst.Restored)
	}
	if st, err := checkpoint.Load(validFile); err == nil && len(st.Words) > 0 {
		t.Fatalf("the claimed checkpoint was not consumed: its file still holds %d packets", st.Received)
	}

	// A transfer whose checkpoint was corrupt is an ordinary fresh one.
	if sst2 := ep.pushOK(makeObj(2<<10), core.Config{Transfer: 7, PacketSize: 512}, Options{}).sst; sst2.Restored != 0 {
		t.Fatalf("restored %d packets from a corrupt checkpoint", sst2.Restored)
	}
}
