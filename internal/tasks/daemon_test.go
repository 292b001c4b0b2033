// End-to-end daemon tests over real loopback sockets: ordinary operation,
// the crash kill-point sweep (submit / dispatch / mid-transfer / pre-ack /
// torn append / compaction / migration),
// per-tenant rate-cap isolation, fairness of dispatch, striped tasks, and
// cancellation. The crash points use the daemon's
// simulated SIGKILL (kill: contexts cancelled, nothing persisted after)
// so every window lands deterministically; the subprocess smoke test in
// cmd/fobsd covers the genuine signal.
package tasks

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/udprt"
)

// assertTimeline checks the durable-timeline invariants every finished
// task must satisfy — whatever crashes it lived through: a parseable
// trace id, a history that starts at submission, timestamps that never
// run backwards, and exactly one terminal event (a crash must never
// leave a task with zero or two verdicts in its durable history).
func assertTimeline(t *testing.T, task Task) {
	t.Helper()
	if task.Trace == "" {
		t.Fatalf("task %d has no trace id", task.ID)
	}
	if _, err := obs.ParseTraceID(task.Trace); err != nil {
		t.Fatalf("task %d trace id unparseable: %v", task.ID, err)
	}
	if len(task.Events) == 0 {
		t.Fatalf("task %d has no event history", task.ID)
	}
	if task.Events[0].Event != "queued" {
		t.Fatalf("task %d history starts with %q, want queued", task.ID, task.Events[0].Event)
	}
	terminal := 0
	for i, e := range task.Events {
		if i > 0 && e.At.Before(task.Events[i-1].At) {
			t.Fatalf("task %d timeline runs backwards at %d: %v", task.ID, i, task.Events)
		}
		switch e.Event {
		case "done", "failed", "cancelled":
			terminal++
		}
	}
	if task.State.Terminal() {
		if terminal != 1 {
			t.Fatalf("task %d (state %s) holds %d terminal events, want exactly 1: %v",
				task.ID, task.State, terminal, task.Events)
		}
		if last := task.Events[len(task.Events)-1].Event; last != string(task.State) {
			t.Fatalf("task %d last event %q does not match state %s", task.ID, last, task.State)
		}
	} else if terminal != 0 {
		t.Fatalf("task %d (state %s) holds a terminal event: %v", task.ID, task.State, task.Events)
	}
}

// countEvents tallies occurrences of one event name in a task's history.
func countEvents(task Task, name string) int {
	n := 0
	for _, e := range task.Events {
		if e.Event == name {
			n++
		}
	}
	return n
}

// receiver hosts a serving udprt endpoint (Listener.Serve) and collects every completed
// object, counting completions per transfer id (the at-least-once tests
// expect reruns to land twice).
type receiver struct {
	srv  *udprt.Listener
	addr string

	mu          sync.Mutex
	objs        map[uint32][]byte
	completions map[uint32]int
}

func startReceiver(t *testing.T, opts udprt.Options) *receiver {
	t.Helper()
	if opts.ResumeWindow == 0 {
		opts.ResumeWindow = time.Minute
	}
	srv, err := udprt.Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	r := &receiver{
		srv:         srv,
		addr:        srv.Addr(),
		objs:        make(map[uint32][]byte),
		completions: make(map[uint32]int),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, func(id uint32, obj []byte, _ core.ReceiverStats) {
			r.mu.Lock()
			r.objs[id] = obj
			r.completions[id]++
			r.mu.Unlock()
		})
	}()
	t.Cleanup(func() {
		cancel()
		srv.Close()
		<-done
	})
	return r
}

func (r *receiver) object(id uint32) ([]byte, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.objs[id], r.completions[id]
}

// await is object once the transfer has completed at least n times, or
// after five seconds. The server's handler runs after its COMPLETE is on
// the wire, so a task can be done before its delivery is counted.
func (r *receiver) await(id uint32, n int) ([]byte, int) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if obj, got := r.object(id); got >= n {
			return obj, got
		}
	}
	return r.object(id)
}

// randBytes returns n random bytes.
func randBytes(t *testing.T, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// writeObj creates an object file of n random bytes and returns its path
// and content.
func writeObj(t *testing.T, n int) (string, []byte) {
	t.Helper()
	obj := randBytes(t, n)
	path := filepath.Join(t.TempDir(), fmt.Sprintf("obj-%d", n))
	if err := os.WriteFile(path, obj, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, obj
}

// runDaemon starts d.Run and returns a stop function that shuts it down
// and waits for it to exit.
func runDaemon(t *testing.T, d *Daemon) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Run(ctx)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return stop
}

// waitTasks polls until every task satisfies pred or the deadline lapses.
func waitTasks(t *testing.T, d *Daemon, timeout time.Duration, pred func(Task) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		all := d.List()
		ok := len(all) > 0
		for _, task := range all {
			if !pred(task) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tasks never converged: %+v", all)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func isDone(task Task) bool { return task.State == StateDone }

// TestDaemonSpanLogJoinsTaskTrace runs a traced daemon against a traced
// receiver and requires both endpoints' span logs to carry the task's
// trace id end to end: the id minted at submission is the id under which
// the sender-side mover AND the remote receiver recorded their phases.
func TestDaemonSpanLogJoinsTaskTrace(t *testing.T) {
	var dbuf, rbuf bytes.Buffer
	dlog := obs.NewLog(&dbuf)
	rlog := obs.NewLog(&rbuf)
	rcv := startReceiver(t, udprt.Options{Trace: rlog})
	d, err := New(Config{Dir: t.TempDir(), Trace: dlog})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d)
	path, _ := writeObj(t, 64<<10)
	task, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	waitTasks(t, d, 30*time.Second, isDone)
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rlog.Close(); err != nil {
		t.Fatal(err)
	}
	sev, err := obs.ReadEvents(&dbuf)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := obs.ReadEvents(&rbuf)
	if err != nil {
		t.Fatal(err)
	}
	tls := obs.Join(sev, rev)[task.Trace]
	if len(tls) != 2 {
		t.Fatalf("joined %d timelines under task trace %s, want sender + receiver", len(tls), task.Trace)
	}
	for _, tl := range tls {
		if tl.Transfer != task.Transfer {
			t.Fatalf("%s timeline tagged transfer %d, want %d", tl.Role, tl.Transfer, task.Transfer)
		}
		kinds := obs.PhaseOrder(tl)
		if len(kinds) == 0 || kinds[len(kinds)-1] != obs.KindComplete {
			t.Fatalf("%s timeline does not end complete: %v", tl.Role, kinds)
		}
	}
}

func TestDaemonRunsSubmittedTasks(t *testing.T) {
	rcv := startReceiver(t, udprt.Options{})
	reg := metrics.New()
	d, err := New(Config{Dir: t.TempDir(), Workers: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d)

	objs := make(map[uint64][]byte)
	for i, tenant := range []string{"alpha", "beta", "alpha", "", "beta"} {
		path, obj := writeObj(t, 64<<10+i*257)
		task, err := d.Submit(Spec{Tenant: tenant, Addr: rcv.addr, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		objs[task.ID] = obj
	}
	waitTasks(t, d, 30*time.Second, isDone)

	for id, want := range objs {
		task, ok := d.Get(id)
		if !ok {
			t.Fatalf("task %d vanished", id)
		}
		got, n := rcv.await(task.Transfer, 1)
		if n != 1 {
			t.Fatalf("transfer %d completed %d times, want once", task.Transfer, n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("task %d delivered different bytes", id)
		}
		if task.Stats == nil || task.Stats.PacketsSent == 0 {
			t.Fatalf("task %d finished without stats: %+v", id, task)
		}
	}
	if v, _ := reg.Gauge("tasks_done"); v != 5 {
		t.Fatalf("tasks_done gauge = %v, want 5", v)
	}
	if v, _ := reg.Gauge("tasks_queued"); v != 0 {
		t.Fatalf("tasks_queued gauge = %v, want 0", v)
	}
	if v, _ := reg.Gauge("tasks_running"); v != 0 {
		t.Fatalf("tasks_running gauge = %v, want 0", v)
	}

	// SLO rollups: one queue-wait per dispatch, one time-to-done and one
	// attempts observation per finished task.
	if h, ok := reg.NamedHistogram("task_queue_wait_ns"); !ok || h.Count != 5 {
		t.Fatalf("task_queue_wait_ns count = %d, want 5", h.Count)
	}
	if h, ok := reg.NamedHistogram("task_time_to_done_ns"); !ok || h.Count != 5 || h.Max <= 0 {
		t.Fatalf("task_time_to_done_ns = %+v, want 5 positive observations", h)
	}
	if h, ok := reg.NamedHistogram("task_attempts"); !ok || h.Count != 5 || h.Max != 1 {
		t.Fatalf("task_attempts = %+v, want 5 single-attempt observations", h)
	}

	// Every task finished, so no tenant may still export queue gauges.
	for _, tenant := range []string{"alpha", "beta", "default"} {
		if v, ok := reg.Gauge("tenant_" + tenant + "_queued"); ok {
			t.Fatalf("tenant %s still exports a queue gauge (%v) after drain", tenant, v)
		}
		if _, ok := reg.Gauge("tenant_" + tenant + "_oldest_queued_age_seconds"); ok {
			t.Fatalf("tenant %s still exports an age gauge after drain", tenant)
		}
	}

	// Every finished task carries a well-formed durable timeline.
	for _, task := range d.List() {
		assertTimeline(t, task)
		if countEvents(task, "dispatched") != 1 {
			t.Fatalf("task %d dispatched %d times, want once: %v",
				task.ID, countEvents(task, "dispatched"), task.Events)
		}
	}
}

// TestDaemonKillPointSweep kills the daemon at each crash-critical
// window and requires a restarted daemon over the same state directory to
// run every task to completion with bit-identical objects.
func TestDaemonKillPointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery sweep skipped in -short mode")
	}

	// restart builds a fresh daemon over dir and drives every surviving
	// task to done, checking delivered bytes against want.
	restart := func(t *testing.T, dir string, rcv *receiver, want map[uint32][]byte, reg *metrics.Registry) *Daemon {
		t.Helper()
		// The pace keeps the greedy loopback sender from re-blasting the
		// circular schedule faster than acks return, so the resume-economy
		// assertions measure the protocol, not ack lag.
		d, err := New(Config{Dir: dir, Workers: 2, Metrics: reg,
			Send: udprt.Options{Pace: 25 * time.Microsecond}})
		if err != nil {
			t.Fatal(err)
		}
		runDaemon(t, d)
		waitTasks(t, d, 60*time.Second, isDone)
		for id, obj := range want {
			got, _ := rcv.await(id, 1)
			if !bytes.Equal(got, obj) {
				t.Fatalf("transfer %d delivered different bytes after restart", id)
			}
		}
		// The durable timeline crossed the crash: every task's history must
		// still start at submission, stay ordered, and hold exactly one
		// terminal event — a rerun must not duplicate the verdict.
		for _, task := range d.List() {
			assertTimeline(t, task)
		}
		return d
	}

	t.Run("at-submit", func(t *testing.T) {
		// Killed before the dispatcher ever ran: the durable queue alone
		// carries the tasks into the next life.
		rcv := startReceiver(t, udprt.Options{})
		dir := t.TempDir()
		d, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint32][]byte)
		for i := 0; i < 3; i++ {
			path, obj := writeObj(t, 48<<10+i)
			task, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
			if err != nil {
				t.Fatal(err)
			}
			want[task.Transfer] = obj
		}
		d.kill()
		if _, err := d.Submit(Spec{Addr: rcv.addr, Path: "x"}); err == nil {
			t.Fatal("submit accepted after kill")
		}
		restart(t, dir, rcv, want, nil)
	})

	t.Run("at-dispatch", func(t *testing.T) {
		// Killed the instant a task turned "running", before its mover
		// moved a byte: the restart demotes it to queued and runs it.
		rcv := startReceiver(t, udprt.Options{})
		dir := t.TempDir()
		d, err := New(Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		killed := make(chan struct{})
		var once sync.Once
		d.hookDispatched = func(Task) {
			once.Do(func() {
				d.kill()
				close(killed)
			})
		}
		path, obj := writeObj(t, 48<<10)
		task, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		path2, obj2 := writeObj(t, 32<<10)
		task2, err := d.Submit(Spec{Addr: rcv.addr, Path: path2})
		if err != nil {
			t.Fatal(err)
		}
		stop := runDaemon(t, d)
		<-killed
		stop()
		if got, _ := rcv.object(task.Transfer); got != nil {
			t.Fatal("killed-at-dispatch task still delivered in its first life")
		}
		d2 := restart(t, dir, rcv, map[uint32][]byte{task.Transfer: obj, task2.Transfer: obj2}, nil)
		// The first life persisted queued + dispatched before dying; the
		// second life must append (not replace) its requeue and rerun, and
		// the trace id must ride the whole history.
		after, _ := d2.Get(task.ID)
		if countEvents(after, "dispatched") != 2 || countEvents(after, "requeued") != 1 {
			t.Fatalf("kill-at-dispatch history wrong: %v", after.Events)
		}
		before, _ := d.Get(task.ID)
		if after.Trace != before.Trace {
			t.Fatalf("trace id changed across restart: %s → %s", before.Trace, after.Trace)
		}
	})

	t.Run("mid-transfer", func(t *testing.T) {
		// Killed with data on the wire: the restarted mover must RESUME
		// against the receiver's retained state and send essentially only
		// the missing packets. The receiver checkpoints retained state so
		// the test can wait for retention to land before restarting —
		// otherwise the rerun's RESUME can race the first life's teardown.
		ckptDir := t.TempDir()
		rcv := startReceiver(t, udprt.Options{IdleTimeout: 2 * time.Second, Checkpoint: ckptDir})
		dir := t.TempDir()
		killed := make(chan struct{})
		var once sync.Once
		var d *Daemon
		d, err := New(Config{
			Dir: dir,
			// Slow the first life so the kill lands mid-flight: ~4 Mb/s
			// against a ~4.2 Mb object.
			TenantRate: map[string]float64{"capped": 4e6},
			Send: udprt.Options{
				StallTimeout: 2 * time.Second,
				Progress: func(done, total int) {
					if done > total/3 {
						once.Do(func() {
							d.kill()
							close(killed)
						})
					}
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		path, obj := writeObj(t, 512<<10)
		task, err := d.Submit(Spec{Tenant: "capped", Addr: rcv.addr, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		stop := runDaemon(t, d)
		select {
		case <-killed:
		case <-time.After(30 * time.Second):
			t.Fatal("kill point never reached")
		}
		stop()
		// Wait for the receiver to park the partial transfer (signalled by
		// its checkpoint file) so the rerun's RESUME finds it.
		ckpt := checkpoint.CacheFile(ckptDir, core.ContentID(obj))
		for deadline := time.Now().Add(10 * time.Second); ; {
			if _, err := os.Stat(ckpt); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("receiver never retained the interrupted transfer")
			}
			time.Sleep(10 * time.Millisecond)
		}

		reg := metrics.New()
		d2 := restart(t, dir, rcv, map[uint32][]byte{task.Transfer: obj}, reg)
		after, ok := d2.Get(task.ID)
		if !ok || after.Stats == nil {
			t.Fatalf("task lost its stats across restart: %+v", after)
		}
		// The resumed attempt's economy: restored packets crossed the
		// crash, and the rerun resent less than the whole object.
		if after.Stats.Restored == 0 {
			t.Fatal("restart restored nothing: the rerun resent from scratch")
		}
		if after.Stats.PacketsSent >= after.Stats.PacketsNeeded {
			t.Fatalf("rerun sent %d of %d packets: no resume economy",
				after.Stats.PacketsSent, after.Stats.PacketsNeeded)
		}
		if snap := reg.Snapshot(); snap.Totals.PacketsRestored == 0 || snap.Resumes == 0 {
			t.Fatalf("metrics saw no resume: restored=%d resumes=%d",
				snap.Totals.PacketsRestored, snap.Resumes)
		}
	})

	t.Run("pre-ack", func(t *testing.T) {
		// Killed after the receiver's COMPLETE but before "done" became
		// durable: at-least-once semantics rerun the task, and the rerun
		// delivers the same bytes (the receiver completes the id twice).
		rcv := startReceiver(t, udprt.Options{})
		dir := t.TempDir()
		killed := make(chan struct{})
		var once sync.Once
		d, err := New(Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		d.hookDelivered = func(Task) {
			once.Do(func() {
				d.kill()
				close(killed)
			})
		}
		path, obj := writeObj(t, 48<<10)
		task, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		stop := runDaemon(t, d)
		<-killed
		stop()
		if _, n := rcv.await(task.Transfer, 1); n != 1 {
			t.Fatalf("first life completed %d times, want exactly 1", n)
		}
		restart(t, dir, rcv, map[uint32][]byte{task.Transfer: obj}, nil)
		if got, n := rcv.await(task.Transfer, 2); n != 2 || !bytes.Equal(got, obj) {
			t.Fatalf("rerun delivered %d completions (want 2), identical=%v", n, bytes.Equal(got, obj))
		}
	})

	t.Run("torn-append", func(t *testing.T) {
		// Killed in the middle of writing the verdict's record: half of it
		// reached the journal. The replay must stop at the torn record —
		// the task reruns, as at pre-ack — and the restarted daemon's
		// appends must land after the cut, where a later replay reads them.
		rcv := startReceiver(t, udprt.Options{})
		dir := t.TempDir()
		killed := make(chan Task, 1)
		var once sync.Once
		d, err := New(Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		d.hookDelivered = func(snap Task) {
			once.Do(func() {
				d.kill()
				killed <- snap
			})
		}
		path, obj := writeObj(t, 48<<10)
		task, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		stop := runDaemon(t, d)
		snap := <-killed
		stop()
		snap.State = StateDone
		snap.note("done", "", "")
		rec := record(t, kindSave, &snap)
		appendRaw(t, dir, rec[:len(rec)/2])

		restart(t, dir, rcv, map[uint32][]byte{task.Transfer: obj}, nil)
		if _, n := rcv.await(task.Transfer, 2); n < 2 {
			t.Fatalf("transfer completed %d times: a torn verdict counted as durable", n)
		}
		if onDisk := journalTasks(t, dir); len(onDisk) != 1 || onDisk[0].State != StateDone {
			t.Fatalf("journal replays %+v after the rerun, want the task done", onDisk)
		}
	})

	t.Run("compaction", func(t *testing.T) {
		// Killed while compacting, after its temp file was created and
		// before the rename: the temp holds part of the new image. The old
		// journal is the truth; the temp is never read.
		rcv := startReceiver(t, udprt.Options{})
		dir := t.TempDir()
		d, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint32][]byte)
		for i := 0; i < 3; i++ {
			path, obj := writeObj(t, 40<<10+i)
			task, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
			if err != nil {
				t.Fatal(err)
			}
			want[task.Transfer] = obj
		}
		d.kill()
		// The image a compaction writes, made by a real one over a copy of
		// the state directory, cut short.
		scratch := t.TempDir()
		b, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(scratch, journalName), b, 0o644)
		openT(t, scratch)
		img, err := os.ReadFile(filepath.Join(scratch, journalName))
		if err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(dir, journalName) + ".tmp"
		os.WriteFile(tmp, img[:len(img)/2], 0o644)

		restart(t, dir, rcv, want, nil)
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("the killed compaction's temp survived the restart: %v", err)
		}
	})

	t.Run("migration", func(t *testing.T) {
		// A state directory of the one-file-per-task layout is migrated by
		// the first life, which runs one task to done and is killed at the
		// next dispatch. The task files then reappear beside the journal —
		// what a migration killed before removing them leaves. They must
		// be removed unread: the done task is not rerun.
		rcv := startReceiver(t, udprt.Options{})
		dir := t.TempDir()
		want := make(map[uint32][]byte)
		legacy := make(map[string][]byte)
		for id := uint64(1); id <= 2; id++ {
			path, obj := writeObj(t, 40<<10+int(id))
			now := time.Now()
			task := &Task{ID: id, Spec: Spec{Addr: rcv.addr, Path: path}, State: StateQueued,
				Transfer: uint32(id), Created: now, Updated: now, Trace: obs.NewTraceID().String()}
			task.note("queued", "", "")
			writeLegacy(t, dir, task)
			want[task.Transfer] = obj
			b, err := os.ReadFile(legacyFile(dir, id))
			if err != nil {
				t.Fatal(err)
			}
			legacy[legacyFile(dir, id)] = b
		}
		d, err := New(Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if left, _ := legacyNames(dir); len(left) != 0 {
			t.Fatalf("task files survived the migration: %v", left)
		}
		killed := make(chan struct{})
		dispatches := 0
		d.hookDispatched = func(Task) {
			if dispatches++; dispatches == 2 {
				d.kill()
				close(killed)
			}
		}
		stop := runDaemon(t, d)
		<-killed
		stop()
		if first, _ := d.Get(1); first.State != StateDone {
			t.Fatalf("first life left task 1 %s, want done", first.State)
		}
		for path, b := range legacy {
			os.WriteFile(path, b, 0o644)
		}

		restart(t, dir, rcv, want, nil)
		if _, n := rcv.await(1, 1); n != 1 {
			t.Fatalf("task 1 completed %d times: a leftover task file was read", n)
		}
		if left, _ := legacyNames(dir); len(left) != 0 {
			t.Fatalf("leftover task files survived the restart: %v", left)
		}
	})
}

// TestDaemonTenantRateCapIsolation is the two-tenant acceptance test: the
// capped tenant's two concurrent tasks share one ceiling and take at
// least the wire time the cap dictates, while the uncapped tenant's
// larger transfer runs at loopback speed, unaffected.
func TestDaemonTenantRateCapIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive rate measurement skipped in -short mode")
	}
	rcv := startReceiver(t, udprt.Options{})
	const capBits = 6e6
	d, err := New(Config{
		Dir:        t.TempDir(),
		Workers:    3,
		TenantRate: map[string]float64{"capped": capBits},
	})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d)

	// Two capped tasks of 128 KiB each ≈ 2.2 Mb of wire bits combined;
	// at 6 Mb/s their aggregate needs ≥ ~360 ms. The free task is 4× the
	// bytes and must still finish far sooner.
	var cappedIDs []uint64
	for i := 0; i < 2; i++ {
		path, _ := writeObj(t, 128<<10)
		task, err := d.Submit(Spec{Tenant: "capped", Addr: rcv.addr, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		cappedIDs = append(cappedIDs, task.ID)
	}
	freePath, freeObj := writeObj(t, 512<<10)
	free, err := d.Submit(Spec{Tenant: "free", Addr: rcv.addr, Path: freePath})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	var freeDur, cappedDur time.Duration
	deadline := time.Now().Add(60 * time.Second)
	for freeDur == 0 || cappedDur == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("transfers never finished: %+v", d.List())
		}
		if task, _ := d.Get(free.ID); task.State == StateDone && freeDur == 0 {
			freeDur = time.Since(start)
		}
		capped := 0
		for _, id := range cappedIDs {
			if task, _ := d.Get(id); task.State == StateDone {
				capped++
			} else if task.State == StateFailed {
				t.Fatalf("capped task failed: %+v", task)
			}
		}
		if capped == len(cappedIDs) && cappedDur == 0 {
			cappedDur = time.Since(start)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if got, _ := rcv.await(uint32(free.ID), 1); !bytes.Equal(got, freeObj) {
		t.Fatal("free tenant's object corrupted")
	}
	// The cap bound the capped pair: combined wire bits / cap is the
	// floor; assert half of it so scheduling slop cannot flake, only an
	// unenforced cap.
	const wireBits = 2 * (128 << 10) * 8 * 1.02 // ≈ payload + header overhead
	minDur := time.Duration(wireBits / capBits * float64(time.Second))
	if cappedDur < minDur/2 {
		t.Fatalf("capped tenant finished in %v, cap floor is %v: cap not enforced", cappedDur, minDur)
	}
	// And the free tenant was isolated from it: 4× the bytes, far less
	// wall clock than the capped pair.
	if freeDur > cappedDur {
		t.Fatalf("free tenant (%v) was slower than the capped tenant (%v): not isolated", freeDur, cappedDur)
	}
}

// TestDaemonStripedTask submits a striped task toward the concurrent server,
// which reassembles stripes like every other endpoint: the task lands in its
// first attempt, with no unstriped second try.
func TestDaemonStripedTask(t *testing.T) {
	rcv := startReceiver(t, udprt.Options{})
	reg := metrics.New()
	d, err := New(Config{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d)
	path, obj := writeObj(t, 96<<10)
	task, err := d.Submit(Spec{Addr: rcv.addr, Path: path, Streams: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitTasks(t, d, 30*time.Second, isDone)
	got, _ := rcv.await(task.Transfer, 1)
	if !bytes.Equal(got, obj) {
		t.Fatal("striped object corrupted")
	}
	if done, _ := d.Get(task.ID); done.Attempts != 1 {
		t.Fatalf("striped task took %d attempts, want 1", done.Attempts)
	}
	// One attempt, and within it one transfer: four stripe records, each
	// started once, where the unstriped fallback used to add a fifth run.
	senders := 0
	for _, ts := range reg.Snapshot().Transfers {
		if ts.Role == obs.RoleSender {
			senders++
		}
	}
	if senders != 4 {
		t.Fatalf("%d sender records for a 4-stripe task, want 4", senders)
	}
}

func TestDaemonCancel(t *testing.T) {
	rcv := startReceiver(t, udprt.Options{})
	dir := t.TempDir()

	// Cancel while queued: the daemon is not running, so the task cannot
	// have started; after Run starts it must never dispatch.
	d, err := New(Config{Dir: dir, TenantRate: map[string]float64{"slow": 2e6}})
	if err != nil {
		t.Fatal(err)
	}
	path, _ := writeObj(t, 16<<10)
	queuedTask, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Cancel(queuedTask.ID); err != nil {
		t.Fatal(err)
	}
	if task, _ := d.Get(queuedTask.ID); task.State != StateCancelled {
		t.Fatalf("queued task state %q after cancel", task.State)
	}
	if err := d.Cancel(queuedTask.ID); err != nil {
		t.Fatalf("cancel is not idempotent: %v", err)
	}
	if err := d.Cancel(999); err == nil {
		t.Fatal("cancel of an unknown task succeeded")
	}
	runDaemon(t, d)

	// Cancel while running: a slow capped transfer is interrupted and
	// records cancelled, durably.
	slowPath, _ := writeObj(t, 512<<10)
	runningTask, err := d.Submit(Spec{Tenant: "slow", Addr: rcv.addr, Path: slowPath})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		task, _ := d.Get(runningTask.ID)
		if task.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("task never started: %+v", task)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.Cancel(runningTask.ID); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		task, _ := d.Get(runningTask.ID)
		if task.State == StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running task never cancelled: %+v", task)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The cancellations are durable: a restart must not resurrect either.
	for _, task := range journalTasks(t, dir) {
		if task.ID == queuedTask.ID || task.ID == runningTask.ID {
			if task.State != StateCancelled {
				t.Fatalf("task %d persisted as %q, want cancelled", task.ID, task.State)
			}
		}
	}
}

// TestDaemonFairDispatch floods tenant a and then adds one task for
// tenant b: with a single worker, b's task must dispatch second, not
// after a's whole backlog.
func TestDaemonFairDispatch(t *testing.T) {
	rcv := startReceiver(t, udprt.Options{})
	d, err := New(Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	d.hookDispatched = func(task Task) {
		mu.Lock()
		order = append(order, task.Spec.tenant())
		mu.Unlock()
	}
	path, _ := writeObj(t, 8<<10)
	for i := 0; i < 4; i++ {
		if _, err := d.Submit(Spec{Tenant: "a", Addr: rcv.addr, Path: path}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Submit(Spec{Tenant: "b", Addr: rcv.addr, Path: path}); err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d)
	waitTasks(t, d, 30*time.Second, isDone)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 || order[1] != "b" {
		t.Fatalf("dispatch order %v: tenant b should be served second", order)
	}
}

// TestDaemonShutdownVerdictBeforeStoppedFlag covers the shutdown race:
// worker contexts are children of Run's context, so a mover can observe
// cancellation and reach runTask's verdict section before Run's goroutine
// acquires the lock and sets d.stopped. The task must still classify as
// interrupted-by-shutdown — durably "running", requeued by the next New —
// never failed.
func TestDaemonShutdownVerdictBeforeStoppedFlag(t *testing.T) {
	rcv := startReceiver(t, udprt.Options{})
	dir := t.TempDir()
	d, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	path, _ := writeObj(t, 64<<10)
	task, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	// Dispatch by hand exactly as worker does, then run the mover on an
	// already-cancelled context while d.stopped is still false — the
	// window a flag-based guard loses.
	d.mu.Lock()
	tk := d.queue.pop()
	tk.State = StateRunning
	tk.Attempts++
	if err := d.store.save(tk); err != nil {
		d.mu.Unlock()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.active[tk.ID] = &running{cancel: cancel}
	d.mu.Unlock()
	cancel()
	d.runTask(ctx, tk, &mover{})

	got, _ := d.Get(task.ID)
	if got.State != StateRunning {
		t.Fatalf("state %q after shutdown-window cancellation, want running", got.State)
	}
	onDisk := journalTasks(t, dir)
	if len(onDisk) != 1 || onDisk[0].ID != task.ID || onDisk[0].State != StateRunning {
		t.Fatalf("journal replays %+v, want task %d running so restart requeues it", onDisk, task.ID)
	}
	d2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got2, ok := d2.Get(task.ID); !ok || got2.State != StateQueued {
		t.Fatalf("restarted daemon sees %+v, want the task requeued", got2)
	}
}

// TestDaemonVerdictStoreFailureCounted: a verdict the journal refuses is
// logged at error level and counted in the tasks_store_errors gauge, not
// dropped; the task keeps its verdict in memory and its last durable state
// on disk.
func TestDaemonVerdictStoreFailureCounted(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	var logs bytes.Buffer
	d, err := New(Config{Dir: dir, Metrics: reg, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	task, err := d.Submit(Spec{Addr: "127.0.0.1:1", Path: filepath.Join(dir, "absent")})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Gauge("tasks_store_errors"); !ok || v != 0 {
		t.Fatalf("tasks_store_errors = %v (exported %v), want 0", v, ok)
	}
	// Dispatch by hand as worker does, then take the journal's write
	// access away before the mover's verdict.
	d.mu.Lock()
	tk := d.queue.pop()
	tk.State = StateRunning
	tk.Attempts++
	if err := d.persist(tk); err != nil {
		d.mu.Unlock()
		t.Fatal(err)
	}
	ro, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		d.mu.Unlock()
		t.Fatal(err)
	}
	defer ro.Close()
	d.store.f = ro
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.active[tk.ID] = &running{cancel: cancel}
	d.mu.Unlock()
	d.runTask(ctx, tk, &mover{})

	if got, _ := d.Get(task.ID); got.State != StateFailed {
		t.Fatalf("state %q after a missing source, want failed", got.State)
	}
	if v, _ := reg.Gauge("tasks_store_errors"); v != 1 {
		t.Fatalf("tasks_store_errors = %v, want 1", v)
	}
	if !strings.Contains(logs.String(), "level=ERROR msg=\"task store write failed\"") {
		t.Fatalf("no error-level record of the refused verdict:\n%s", logs.String())
	}
	if onDisk := journalTasks(t, dir); len(onDisk) != 1 || onDisk[0].State != StateRunning {
		t.Fatalf("journal replays %+v, want the last durable state, running", onDisk)
	}
}

// TestDaemonFailsUnreachableTask points a task at a dead address with a
// tight retry budget and expects a durable failed verdict, not a wedged
// queue.
func TestDaemonFailsUnreachableTask(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{
		Dir:   dir,
		Retry: &udprt.RetryPolicy{MaxRetries: -1, Budget: 5 * time.Second},
		Send:  udprt.Options{HandshakeTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d)
	path, _ := writeObj(t, 4<<10)
	task, err := d.Submit(Spec{Addr: "127.0.0.1:1", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	waitTasks(t, d, 30*time.Second, func(task Task) bool { return task.State == StateFailed })
	after, _ := d.Get(task.ID)
	if after.Error == "" {
		t.Fatalf("failed task carries no error: %+v", after)
	}
	// Durably failed: a restart must not rerun it.
	if loaded := journalTasks(t, dir); len(loaded) != 1 || loaded[0].State != StateFailed {
		t.Fatalf("persisted state wrong: %+v", loaded)
	}
	// A missing source file also fails cleanly.
	task2, err := d.Submit(Spec{Addr: "127.0.0.1:1", Path: filepath.Join(dir, "absent")})
	if err != nil {
		t.Fatal(err)
	}
	waitTasks(t, d, 30*time.Second, func(task Task) bool { return task.State == StateFailed })
	if after, _ := d.Get(task2.ID); after.Error == "" {
		t.Fatal("missing-file task carries no error")
	}
}

// TestDaemonDedupSecondTask submits the same object twice: the first
// task moves every packet, the second hits the receiver's content cache
// off the CHECK and completes without a data flow. The daemon
// must surface the hit in the task's stats and the tasks_dedup_hits
// gauge, and the receiver's handler must still see both completions.
func TestDaemonDedupSecondTask(t *testing.T) {
	rcv := startReceiver(t, udprt.Options{})
	reg := metrics.New()
	d, err := New(Config{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d)
	path, obj := writeObj(t, 128<<10)

	first, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	waitTasks(t, d, 30*time.Second, isDone)
	second, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	waitTasks(t, d, 30*time.Second, isDone)

	f, _ := d.Get(first.ID)
	if f.Stats == nil || f.Stats.Deduped || f.Stats.PacketsSent == 0 {
		t.Fatalf("first task should have moved data: %+v", f.Stats)
	}
	s, _ := d.Get(second.ID)
	if s.Stats == nil || !s.Stats.Deduped {
		t.Fatalf("second task should have deduped: %+v", s.Stats)
	}
	if s.Stats.PacketsSent != 0 {
		t.Fatalf("deduped task sent %d packets, want 0", s.Stats.PacketsSent)
	}
	if s.Stats.Restored != s.Stats.PacketsNeeded || s.Stats.PacketsNeeded == 0 {
		t.Fatalf("deduped task restored %d of %d packets", s.Stats.Restored, s.Stats.PacketsNeeded)
	}
	if v, _ := reg.Gauge("tasks_dedup_hits"); v != 1 {
		t.Fatalf("tasks_dedup_hits = %v, want 1", v)
	}
	for _, task := range []Task{f, s} {
		got, n := rcv.await(task.Transfer, 1)
		if n != 1 {
			t.Fatalf("transfer %d completed %d times, want once", task.Transfer, n)
		}
		if !bytes.Equal(got, obj) {
			t.Fatalf("task %d delivered different bytes", task.ID)
		}
	}
}

// TestDaemonSpecNoDedupMovesData pins the opt-out: a spec with NoDedup
// repeats the full data flow even when the receiver already holds the
// content.
func TestDaemonSpecNoDedupMovesData(t *testing.T) {
	rcv := startReceiver(t, udprt.Options{})
	reg := metrics.New()
	d, err := New(Config{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d)
	path, _ := writeObj(t, 64<<10)

	if _, err := d.Submit(Spec{Addr: rcv.addr, Path: path}); err != nil {
		t.Fatal(err)
	}
	waitTasks(t, d, 30*time.Second, isDone)
	repeat, err := d.Submit(Spec{Addr: rcv.addr, Path: path, NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	waitTasks(t, d, 30*time.Second, isDone)

	r, _ := d.Get(repeat.ID)
	if r.Stats == nil || r.Stats.Deduped || r.Stats.PacketsSent == 0 {
		t.Fatalf("NoDedup task should have moved data: %+v", r.Stats)
	}
	if v, _ := reg.Gauge("tasks_dedup_hits"); v != 0 {
		t.Fatalf("tasks_dedup_hits = %v, want 0", v)
	}
}

// TestDaemonRetentionSweepSurvivesRestart drives the retention sweep by
// hand: a terminal task older than the window is deleted from memory and
// disk, a queued task is untouchable whatever its age, and a restarted
// daemon over the same directory never resurrects the swept task.
func TestDaemonRetentionSweepSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Retention: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	path, _ := writeObj(t, 1024)
	// Workers never start (no Run), so submissions stay queued.
	keep, err := d.Submit(Spec{Addr: "127.0.0.1:1", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := d.Submit(Spec{Addr: "127.0.0.1:1", Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Cancel(gone.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	// A sweep whose remove the journal refuses keeps the task: forgotten
	// in memory alone, it would stay live in the journal, unswept.
	good := d.store.f
	d.store.f = tornFile{good.(*os.File)}
	d.sweepRetention()
	if _, ok := d.Get(gone.ID); !ok {
		t.Fatal("the sweep dropped a task whose remove the journal refused")
	}
	d.store.f = good
	d.sweepRetention()
	if _, ok := d.Get(gone.ID); ok {
		t.Fatal("terminal task survived the sweep")
	}
	if onDisk := journalTasks(t, dir); !sameIDs(onDisk, keep.ID) {
		t.Fatalf("journal replays tasks %v after the sweep, want only %d", ids(onDisk), keep.ID)
	}
	if _, ok := d.Get(keep.ID); !ok {
		t.Fatal("queued task was swept")
	}
	d2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Get(gone.ID); ok {
		t.Fatal("restart resurrected the swept task")
	}
	if after, ok := d2.Get(keep.ID); !ok || after.State != StateQueued {
		t.Fatalf("queued task did not survive restart: %+v", after)
	}
}

// TestDaemonRetentionPeriodicSweep checks the running daemon's sweeper
// goroutine: a task that finishes ages past the window and disappears
// from the API without any explicit call.
func TestDaemonRetentionPeriodicSweep(t *testing.T) {
	rcv := startReceiver(t, udprt.Options{})
	reg := metrics.New()
	d, err := New(Config{Dir: t.TempDir(), Retention: 100 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d)
	path, _ := writeObj(t, 8<<10)
	task, err := d.Submit(Spec{Addr: rcv.addr, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	waitTasks(t, d, 30*time.Second, isDone)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := d.Get(task.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeper never deleted the terminal task")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v, _ := reg.Gauge("tasks_done"); v != 0 {
		t.Fatalf("tasks_done gauge = %v after sweep, want 0", v)
	}
}
