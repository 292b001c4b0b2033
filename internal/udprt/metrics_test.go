package udprt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/faultnet"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/wire"
)

// findTransfer fetches one endpoint's snapshot or fails the test.
func findTransfer(t *testing.T, snap metrics.Snapshot, id uint32, role obs.Role) metrics.TransferSnapshot {
	t.Helper()
	ts, ok := snap.Find(id, role)
	if !ok {
		t.Fatalf("transfer %d %v missing from snapshot (%d transfers)", id, role, len(snap.Transfers))
	}
	return ts
}

// checkSenderLaws asserts the sender-side conservation laws against the
// core stats ground truth. At completion every sequence number has been
// sent at least once, so the retransmission classifier must account for
// every packet beyond the object's count.
func checkSenderLaws(t *testing.T, s metrics.TransferSnapshot, sst core.SenderStats, objBytes int) {
	t.Helper()
	if s.Outcome != metrics.OutcomeCompleted {
		t.Fatalf("sender outcome = %v, want completed", s.Outcome)
	}
	if s.PacketsSent != int64(sst.PacketsSent) {
		t.Fatalf("metrics PacketsSent = %d, core says %d", s.PacketsSent, sst.PacketsSent)
	}
	if s.PacketsNeeded != int64(sst.PacketsNeeded) {
		t.Fatalf("metrics PacketsNeeded = %d, core says %d", s.PacketsNeeded, sst.PacketsNeeded)
	}
	if s.PacketsSent != s.PacketsNeeded+s.Retransmits {
		t.Fatalf("conservation broken: sent %d != needed %d + retransmits %d",
			s.PacketsSent, s.PacketsNeeded, s.Retransmits)
	}
	if s.AcksReceived != int64(sst.AcksProcessed) {
		t.Fatalf("metrics AcksReceived = %d, core processed %d", s.AcksReceived, sst.AcksProcessed)
	}
	if s.BytesSent < int64(objBytes) {
		t.Fatalf("BytesSent = %d < object size %d", s.BytesSent, objBytes)
	}
	if s.Rounds < 1 {
		t.Fatalf("Rounds = %d, want >= 1", s.Rounds)
	}
	if s.KnownReceived > s.PacketsNeeded {
		t.Fatalf("KnownReceived = %d > needed %d", s.KnownReceived, s.PacketsNeeded)
	}
}

// checkReceiverLaws asserts the receiver-side conservation laws against the
// core stats ground truth: every demultiplexed packet is classified exactly
// once, and fresh payload bytes reassemble the whole object.
func checkReceiverLaws(t *testing.T, r metrics.TransferSnapshot, rst core.ReceiverStats, objBytes int) {
	t.Helper()
	if r.Outcome != metrics.OutcomeCompleted {
		t.Fatalf("receiver outcome = %v, want completed", r.Outcome)
	}
	if r.Fresh != int64(rst.Received) {
		t.Fatalf("metrics Fresh = %d, core received %d", r.Fresh, rst.Received)
	}
	if r.Duplicates != int64(rst.Duplicates) {
		t.Fatalf("metrics Duplicates = %d, core says %d", r.Duplicates, rst.Duplicates)
	}
	if r.Rejected != int64(rst.Rejected) {
		t.Fatalf("metrics Rejected = %d, core says %d", r.Rejected, rst.Rejected)
	}
	if r.Fresh+r.Duplicates+r.Rejected != r.DataDemuxed {
		t.Fatalf("classification broken: fresh %d + dup %d + rejected %d != demuxed %d",
			r.Fresh, r.Duplicates, r.Rejected, r.DataDemuxed)
	}
	if r.BytesReceived != int64(objBytes) {
		t.Fatalf("BytesReceived = %d, want exactly %d", r.BytesReceived, objBytes)
	}
	if r.AcksSent != int64(rst.AcksBuilt) {
		t.Fatalf("metrics AcksSent = %d, core built %d", r.AcksSent, rst.AcksBuilt)
	}
}

// TestMetricsEquivalenceUnderImpairments replays the path-equivalence fault
// scenarios with a live registry on both endpoints and asserts the
// conservation laws hold on the final snapshot whatever the network did:
// the sender's packet accounting balances against retransmissions, the
// receiver's classification is exhaustive, and both sides agree with the
// core state machines' own counters exactly.
func TestMetricsEquivalenceUnderImpairments(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short mode")
	}
	policies := []struct {
		name   string
		policy *faultnet.Faults
	}{
		{"clean", nil},
		{"drop", faultnet.New(faultnet.Policy{Seed: 7, Drop: 0.10})},
		{"dup+reorder", faultnet.New(faultnet.Policy{Seed: 7, Dup: 0.06, Reorder: 0.08})},
		{"everything", faultnet.New(faultnet.Policy{
			Seed: 7, Drop: 0.08, Dup: 0.03, Reorder: 0.03,
			Delay: 0.03, DelayBy: time.Millisecond,
		})},
	}
	obj := makeObj(384<<10 + 7)
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			eachIOPath(t, func(t *testing.T, noFastPath bool) {
				reg := metrics.New()
				opts := Options{
					Pace:       2 * time.Microsecond,
					NoFastPath: noFastPath,
					Metrics:    reg,
				}
				ep := listen(t, byAccept, opts)
				ep.front(tc.policy)
				p := ep.pushOK(obj, core.Config{}, opts)
				sst, rst := p.sst, p.st

				snap := reg.Snapshot()
				s := findTransfer(t, snap, 0, obs.RoleSender)
				r := findTransfer(t, snap, 0, obs.RoleReceiver)
				checkSenderLaws(t, s, sst, len(obj))
				checkReceiverLaws(t, r, rst, len(obj))
				// The fault proxy relays acknowledgements untouched, so the
				// sender can never consume more acks than the receiver put
				// on the wire.
				if s.AcksReceived > r.AcksSent {
					t.Fatalf("acks received %d > acks sent %d", s.AcksReceived, r.AcksSent)
				}
				if snap.Active != 0 {
					t.Fatalf("Active = %d after both endpoints finished", snap.Active)
				}
				if snap.Totals.Completed != 2 {
					t.Fatalf("Totals.Completed = %d, want 2", snap.Totals.Completed)
				}
			})
		})
	}
}

// TestMetricsLoopbackGroundTruth runs one clean loopback transfer with a
// shared registry and pins the final snapshot to the receiver's ground
// truth exactly: packet counts, byte counts, classification, lifecycle
// event stream and phase-timestamp ordering.
func TestMetricsLoopbackGroundTruth(t *testing.T) {
	reg := metrics.New()
	obj := makeObj(512<<10 + 13)
	opts := Options{Metrics: reg}
	p := push(t, obj, core.Config{}, opts, opts)
	sst, rst := p.sst, p.st

	snap := reg.Snapshot()
	s := findTransfer(t, snap, 0, obs.RoleSender)
	r := findTransfer(t, snap, 0, obs.RoleReceiver)
	checkSenderLaws(t, s, sst, len(obj))
	checkReceiverLaws(t, r, rst, len(obj))

	needed := int64(core.NumPackets(int64(len(obj)), core.DefaultPacketSize))
	if r.Fresh != needed {
		t.Fatalf("Fresh = %d, want the object's %d packets", r.Fresh, needed)
	}
	if s.AbortReason != 0 || r.AbortReason != 0 {
		t.Fatalf("abort reasons set on completed transfer: %d/%d", s.AbortReason, r.AbortReason)
	}

	// Phase timestamps are monotone within each endpoint.
	for _, ts := range []metrics.TransferSnapshot{s, r} {
		if ts.HandshakeAt < ts.StartedAt {
			t.Fatalf("%v handshake at %v before start %v", ts.Role, ts.HandshakeAt, ts.StartedAt)
		}
		if ts.DoneAt < ts.HandshakeAt {
			t.Fatalf("%v done at %v before handshake %v", ts.Role, ts.DoneAt, ts.HandshakeAt)
		}
	}
	if r.FirstDataAt < r.HandshakeAt || r.DoneAt < r.FirstDataAt {
		t.Fatalf("receiver phases out of order: handshake %v, first data %v, done %v",
			r.HandshakeAt, r.FirstDataAt, r.DoneAt)
	}

	// The event ring retained the lifecycle of both endpoints.
	want := map[obs.Role]map[obs.Kind]bool{
		obs.RoleSender:   {obs.KindHandshake: false, obs.KindComplete: false},
		obs.RoleReceiver: {obs.KindHandshake: false, obs.KindRounds: false, obs.KindComplete: false},
	}
	for _, e := range snap.Events {
		if kinds, ok := want[e.Role]; ok {
			if _, tracked := kinds[e.Kind]; tracked {
				kinds[e.Kind] = true
			}
		}
	}
	for role, kinds := range want {
		for kind, seen := range kinds {
			if !seen {
				t.Fatalf("no %v event recorded for %v", kind, role)
			}
		}
	}
}

// TestSenderCountsArePublished: the registry counts no packet, so what it
// shows of a sender is what the engine published. A paced sender is seen
// running with packets sent — the publication after each flush and ack
// drain — and its final record is core's exactly. A dedup hit starts no
// engine, so only the outcome's publication shows it: nothing sent, and
// every packet excused and known received.
func TestSenderCountsArePublished(t *testing.T) {
	reg := metrics.New()
	ep := listen(t, byAccept, Options{})
	ep.recv(2)
	obj := makeObj(2<<20 + 3) // ≈ 400 ms at the pace below: long enough to be seen running
	type sent struct {
		st  core.SenderStats
		err error
	}
	done := make(chan sent, 1)
	go func() {
		st, err := Send(ep.ctx, ep.l.Addr(), obj, core.Config{Transfer: 1}, Options{Metrics: reg, Pace: 200 * time.Microsecond})
		done <- sent{st, err}
	}()
	waitUntil(t, 10*time.Second, "the running sender's published packets", func() bool {
		s, ok := reg.Snapshot().Find(1, obs.RoleSender)
		return ok && s.Outcome == metrics.OutcomeRunning && s.PacketsSent > 0
	})
	first := <-done
	if first.err != nil {
		t.Fatalf("send: %v", first.err)
	}
	ep.delivered(obj)
	s := findTransfer(t, reg.Snapshot(), 1, obs.RoleSender)
	checkSenderLaws(t, s, first.st, len(obj))
	if s.KnownReceived != s.PacketsNeeded || s.Rounds != int64(first.st.Rounds) {
		t.Fatalf("final record: known %d of %d, rounds %d (core %d)", s.KnownReceived, s.PacketsNeeded, s.Rounds, first.st.Rounds)
	}

	sst, err := Send(ep.ctx, ep.l.Addr(), obj, core.Config{Transfer: 2}, Options{Metrics: reg})
	if err != nil || !sst.Deduped {
		t.Fatalf("second send: err=%v deduped=%v", err, sst.Deduped)
	}
	ep.delivered(obj)
	d := findTransfer(t, reg.Snapshot(), 2, obs.RoleSender)
	if d.Outcome != metrics.OutcomeCompleted || d.PacketsSent != 0 ||
		d.PacketsRestored != d.PacketsNeeded || d.KnownReceived != d.PacketsNeeded {
		t.Fatalf("dedup record: outcome %v, sent %d, restored %d, known %d of %d",
			d.Outcome, d.PacketsSent, d.PacketsRestored, d.KnownReceived, d.PacketsNeeded)
	}
}

// TestServerMetricsIsolation runs concurrent transfers through one serving
// endpoint sharing one registry and checks each transfer's record stands alone: a
// slow transfer aborted mid-flight is archived as aborted with the peer's
// reason, while the transfers that completed around it keep exact,
// uncontaminated counts.
func TestServerMetricsIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent-transfer test skipped in -short mode")
	}
	reg := metrics.New()
	ep := listen(t, byServe, Options{Metrics: reg})
	ep.recv(1)

	// A deliberately slow transfer that will be cancelled mid-flight.
	const slowID = 9
	slowObj := makeObj(4 << 20)
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	slowDone := make(chan error, 1)
	go func() {
		_, err := Send(sctx, ep.l.Addr(), slowObj,
			core.Config{Transfer: slowID}, Options{Pace: 500 * time.Microsecond})
		slowDone <- err
	}()

	// Wait until the slow transfer is demonstrably mid-flight (the server
	// has registered it and classified at least one data packet).
	ep.placed(slowID)

	// Three quick transfers complete while the slow one is in flight.
	const n = 3
	objs := make([][]byte, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		objs[i] = makeObj(128<<10 + i*4096)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tctx, tcancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer tcancel()
			_, errs[i] = Send(tctx, ep.l.Addr(), objs[i],
				core.Config{Transfer: uint32(i + 1)}, Options{Pace: 5 * time.Microsecond})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sender %d: %v", i+1, err)
		}
	}
	received := ep.byID(n)

	// The slow transfer must still be running — the quick ones finished
	// around it — and is now cancelled mid-flight.
	if ts, ok := reg.Snapshot().Find(slowID, obs.RoleReceiver); !ok || ts.Outcome != metrics.OutcomeRunning {
		t.Fatalf("slow transfer not mid-flight when quick ones finished (present %v, outcome %v)",
			ok, ts.Outcome)
	}
	scancel()
	if err := <-slowDone; err == nil {
		t.Fatal("cancelled sender returned nil error")
	}
	slow := ep.aborted(slowID, wire.AbortCancelled)
	snap := reg.Snapshot()
	if slow.Fresh == 0 || slow.Fresh >= slow.PacketsNeeded {
		t.Fatalf("aborted transfer should be partial: fresh %d of %d", slow.Fresh, slow.PacketsNeeded)
	}

	// Each completed transfer's record is exact and its own: cross-transfer
	// contamination would break the per-object byte and packet equalities.
	for i := 0; i < n; i++ {
		if !bytes.Equal(received[uint32(i+1)].obj, objs[i]) {
			t.Fatalf("transfer %d corrupted", i+1)
		}
		r := findTransfer(t, snap, uint32(i+1), obs.RoleReceiver)
		if r.Outcome != metrics.OutcomeCompleted {
			t.Fatalf("transfer %d outcome = %v, want completed", i+1, r.Outcome)
		}
		needed := int64(core.NumPackets(int64(len(objs[i])), core.DefaultPacketSize))
		if r.Fresh != needed {
			t.Fatalf("transfer %d Fresh = %d, want %d", i+1, r.Fresh, needed)
		}
		if r.BytesReceived != int64(len(objs[i])) {
			t.Fatalf("transfer %d BytesReceived = %d, want %d", i+1, r.BytesReceived, len(objs[i]))
		}
		if r.Fresh+r.Duplicates+r.Rejected != r.DataDemuxed {
			t.Fatalf("transfer %d classification broken: %+v", i+1, r)
		}
	}
	if snap.Totals.Completed != n || snap.Totals.Aborted != 1 {
		t.Fatalf("Totals completed/aborted = %d/%d, want %d/1",
			snap.Totals.Completed, snap.Totals.Aborted, n)
	}
}

// debugSnapshot is the subset of the /debug/fobs JSON document the live
// endpoint test inspects.
type debugSnapshot struct {
	Active    int `json:"active"`
	Transfers []struct {
		Transfer    uint32 `json:"transfer"`
		Role        string `json:"role"`
		Outcome     string `json:"outcome"`
		PacketsSent int64  `json:"packets_sent"`
		Fresh       int64  `json:"packets_fresh"`
	} `json:"transfers"`
}

// TestDebugEndpointDuringLiveTransfer serves a registry over HTTP while a
// paced transfer runs through it and asserts the endpoint returns valid
// JSON snapshots that observe the transfer in flight, then its completion.
func TestDebugEndpointDuringLiveTransfer(t *testing.T) {
	reg := metrics.New()
	dbg, err := metrics.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	url := fmt.Sprintf("http://%s/debug/fobs", dbg.Addr())

	get := func() debugSnapshot {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		var snap debugSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
		return snap
	}

	opts := Options{Metrics: reg, Pace: 200 * time.Microsecond}
	obj := makeObj(2 << 20)
	ep := listen(t, byAccept, opts)
	ep.recv(1)
	sendDone := make(chan error, 1)
	go func() {
		_, err := Send(ep.ctx, ep.l.Addr(), obj, core.Config{}, opts)
		sendDone <- err
	}()

	// Poll the endpoint while the transfer runs; the paced sender keeps it
	// in flight for hundreds of milliseconds, so the HTTP server must
	// observe it live.
	sawRunning := false
	var serr error
poll:
	for {
		select {
		case serr = <-sendDone:
			break poll
		default:
		}
		snap := get()
		for _, ts := range snap.Transfers {
			if ts.Outcome == "running" && (ts.PacketsSent > 0 || ts.Fresh > 0) {
				sawRunning = true
			}
		}
		time.Sleep(2 * time.Millisecond) // scenario: the endpoint is sampled while the transfer runs
	}
	if serr != nil {
		t.Fatalf("send: %v", serr)
	}
	ep.delivered(obj)
	if !sawRunning {
		t.Fatal("debug endpoint never observed the transfer in flight")
	}

	// After completion, the endpoint reports the archived ground truth.
	needed := int64(core.NumPackets(int64(len(obj)), core.DefaultPacketSize))
	final := get()
	if final.Active != 0 {
		t.Fatalf("final snapshot Active = %d", final.Active)
	}
	var roles []string
	for _, ts := range final.Transfers {
		if ts.Transfer != 0 || ts.Outcome != "completed" {
			t.Fatalf("unexpected transfer in final snapshot: %+v", ts)
		}
		roles = append(roles, ts.Role)
		if ts.Role == "receiver" && ts.Fresh != needed {
			t.Fatalf("final receiver Fresh = %d, want %d", ts.Fresh, needed)
		}
	}
	if len(roles) != 2 {
		t.Fatalf("final snapshot has roles %v, want both endpoints", roles)
	}
}
