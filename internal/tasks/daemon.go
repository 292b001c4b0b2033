// The daemon: submission, the dispatch loop with its bounded mover pool,
// per-tenant rate-cap wiring, cancellation, and the restart path that
// reloads the store and requeues every non-terminal task. All state
// transitions funnel through one mutex and persist before they become
// observable, which is the whole crash-safety argument: whatever instant
// the process dies, the directory holds each task at a durable state the
// next daemon knows how to continue from.
package tasks

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/udprt"
)

// ErrNotFound reports an id that names no known task; API handlers map
// it to 404 while every other (store/persistence) error stays a 500.
var ErrNotFound = errors.New("tasks: no such task")

// Config configures a Daemon.
type Config struct {
	// Dir is the state directory: the task journal lives at its top level,
	// receiver-side checkpoints (if this process also receives) elsewhere.
	// Created if missing; a directory holding the one-file-per-task layout
	// of earlier builds is migrated into the journal once.
	Dir string
	// Workers bounds the mover pool — how many tasks run concurrently
	// (default 2). Each worker keeps the buffer it reads task files into,
	// as large as the largest file it has read up to 16 MiB
	// (moverBufferCap), so an idle daemon holds at most Workers × 16 MiB of
	// read buffers; a larger file is read into a buffer dropped with its
	// task.
	Workers int
	// TenantRate caps each named tenant's aggregate send rate in
	// on-the-wire bits per second (payload + UDP/IP overhead). Tenants
	// absent from the map are uncapped. The cap spans all of a tenant's
	// concurrent movers and every stripe within them.
	TenantRate map[string]float64
	// Retry overrides the movers' supervision policy (default: 4 retries,
	// 250 ms initial backoff).
	Retry *udprt.RetryPolicy
	// Retention bounds how long terminal tasks (done, failed, cancelled)
	// stay in the store and the API. Zero keeps them forever. With a
	// window set, a periodic sweep deletes terminal tasks whose last
	// transition is older than the window — including across restarts, so
	// a long-lived state directory does not accrete every task ever run.
	Retention time.Duration
	// Send is the base socket configuration every mover starts from; the
	// daemon fills Retry, NoDedup, RateCap, Streams, Congestion and
	// Metrics per task on top of it.
	Send udprt.Options
	// Metrics, when non-nil, receives per-transfer records from every
	// mover plus the daemon's task gauges (tasks_queued, tasks_running,
	// …), all served on the registry's /debug/fobs handler.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives lifecycle span events from every
	// mover's transfers, keyed by the per-task trace id that also travels
	// to the receiving endpoint in the announcement's CHECK.
	Trace *obs.Log
	// Logger receives the daemon's structured transition log, keyed by
	// task/transfer/trace ids. Nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Retry == nil {
		c.Retry = &udprt.RetryPolicy{MaxRetries: 4, Backoff: 250 * time.Millisecond}
	}
	return c
}

// running tracks one in-flight mover.
type running struct {
	cancel    context.CancelFunc
	userAbort bool // Cancel() was called; the mover records cancelled, not failed
}

// Daemon owns a task queue and its mover pool. Construct with New, drive
// with Run, submit with Submit (directly or through the HTTP API).
type Daemon struct {
	cfg   Config
	store *store
	reg   *metrics.Registry
	log   *slog.Logger

	mu      sync.Mutex
	cond    *sync.Cond
	tasks   map[uint64]*Task
	queue   *fairQueue
	active  map[uint64]*running
	caps    map[string]*udprt.RateCap
	nextID  uint64
	stopped bool // Run's context ended; workers drain and exit
	crashed bool // simulated SIGKILL (tests): freeze disk and memory

	// storeErrors counts failed store writes (the tasks_store_errors
	// gauge).
	storeErrors int

	// tenantGauged remembers which tenants currently have per-tenant
	// queue gauges exported, so a drained tenant's gauges are deleted
	// rather than frozen at their last value.
	tenantGauged map[string]bool

	// Test seams, called outside the lock with a snapshot of the task at
	// a crash-critical instant. Nil in production.
	hookDispatched func(Task) // marked running+persisted, mover not yet started
	hookDelivered  func(Task) // wire verdict in hand, done not yet persisted
}

// New opens (or creates) the state directory, loads every persisted
// task, and requeues the non-terminal ones: queued tasks keep their
// place, tasks that were running when the previous process died go back
// to queued — their stable transfer ids let the rerun resume whatever
// the receiver still holds.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("tasks: Config.Dir is required")
	}
	st, loaded, err := openStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	d := &Daemon{
		cfg:    cfg,
		store:  st,
		reg:    cfg.Metrics,
		log:    log,
		tasks:  make(map[uint64]*Task),
		queue:  newFairQueue(),
		active: make(map[uint64]*running),
		caps:   make(map[string]*udprt.RateCap),
		nextID: 1,
	}
	d.cond = sync.NewCond(&d.mu)
	for _, t := range loaded {
		if t.ID >= d.nextID {
			d.nextID = t.ID + 1
		}
		if t.State == StateRunning || t.State == StateQueued {
			t.State = StateQueued
			t.Updated = time.Now()
			t.note("requeued", "", "")
			// Persist the demotion: a second crash before dispatch must
			// not resurrect a phantom "running" task.
			if err := d.persist(t); err != nil {
				return nil, err
			}
			d.queue.push(t)
			d.log.Info("task requeued after restart", "task", t.ID,
				"transfer", t.Transfer, "trace", t.Trace, "attempts", t.Attempts)
		}
		d.tasks[t.ID] = t
	}
	for tenant, bps := range cfg.TenantRate {
		rc, err := udprt.NewRateCap(bps)
		if err != nil {
			return nil, fmt.Errorf("tasks: tenant %q: %w", tenant, err)
		}
		d.caps[tenant] = rc
		d.reg.SetGauge("tenant_"+tenant+"_rate_cap_bps", bps)
	}
	d.updateGauges()
	return d, nil
}

// Run drives the mover pool until ctx ends, then waits for in-flight
// movers to wind down (their sends are cancelled). In-flight tasks stay
// "running" on disk and requeue on the next New — Run never marks a task
// failed just because the daemon is shutting down.
func (d *Daemon) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	if d.cfg.Retention > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.sweeper(ctx)
		}()
	}
	for i := 0; i < d.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.worker(ctx)
		}()
	}
	<-ctx.Done()
	d.mu.Lock()
	d.stopped = true
	for _, r := range d.active {
		r.cancel()
	}
	d.mu.Unlock()
	d.cond.Broadcast()
	wg.Wait()
	return nil
}

// worker pulls tasks in fair order and runs each through its mover, whose
// read buffer it keeps from one task to the next.
func (d *Daemon) worker(ctx context.Context) {
	var m mover
	for {
		d.mu.Lock()
		for d.queue.len() == 0 && !d.stopped {
			d.cond.Wait()
		}
		if d.stopped {
			d.mu.Unlock()
			return
		}
		t := d.queue.pop()
		queueWait := time.Since(t.queuedAt())
		t.State = StateRunning
		t.Attempts++
		t.Updated = time.Now()
		t.note("dispatched", d.ccOf(t), "")
		if err := d.persist(t); err != nil {
			// Disk refused the transition: park the task back and stall
			// briefly rather than running work the store cannot record.
			t.State = StateQueued
			t.Attempts--
			t.Events = t.Events[:len(t.Events)-1]
			d.queue.push(t)
			d.mu.Unlock()
			time.Sleep(time.Second)
			continue
		}
		mctx, cancel := context.WithCancel(ctx)
		d.active[t.ID] = &running{cancel: cancel}
		d.updateGauges()
		d.reg.ObserveHistogram("task_queue_wait_ns", queueWait.Nanoseconds())
		snap := t.clone()
		hook := d.hookDispatched
		d.mu.Unlock()

		d.log.Info("task dispatched", "task", snap.ID, "transfer", snap.Transfer,
			"trace", snap.Trace, "tenant", snap.Spec.tenant(),
			"attempt", snap.Attempts, "cc", d.ccOf(&snap),
			"queue_wait", queueWait)

		if hook != nil {
			hook(snap)
		}
		d.runTask(mctx, t, &m)
		cancel()
	}
}

// sweeper enforces Config.Retention: it fires once immediately — a
// restarted daemon prunes the terminal backlog the previous process
// accrued — and then periodically until ctx ends.
func (d *Daemon) sweeper(ctx context.Context) {
	interval := d.cfg.Retention / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		d.sweepRetention()
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// sweepRetention deletes terminal tasks whose last transition is older
// than the retention window: the journal's remove record first, then the
// in-memory record — so a crash mid-sweep leaves at worst an
// already-terminal task the next sweep deletes again, never a resurrected
// one. A task whose remove the store refused stays for the next sweep.
func (d *Daemon) sweepRetention() {
	cutoff := time.Now().Add(-d.cfg.Retention)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return
	}
	for id, t := range d.tasks {
		if !t.State.Terminal() || !t.Updated.Before(cutoff) {
			continue
		}
		if err := d.forget(id); err != nil {
			continue
		}
		delete(d.tasks, id)
		d.log.Info("task swept", "task", id, "transfer", t.Transfer,
			"trace", t.Trace, "state", string(t.State))
	}
	d.updateGauges()
}

// capFor returns the tenant's shared rate cap, nil when uncapped.
func (d *Daemon) capFor(tenant string) *udprt.RateCap { return d.caps[tenant] }

// ccOf names the congestion policy a task's mover will run: the spec's
// choice, else the daemon-wide default, else the runtime default.
func (d *Daemon) ccOf(t *Task) string {
	if t.Spec.Congestion != "" {
		return t.Spec.Congestion
	}
	if d.cfg.Send.Congestion != "" {
		return d.cfg.Send.Congestion
	}
	return udprt.CCFixed
}

// moverOptions assembles the supervised send options for one task.
func (d *Daemon) moverOptions(t *Task) udprt.Options {
	opts := d.cfg.Send
	opts.Metrics = d.reg
	pol := *d.cfg.Retry
	opts.Retry = &pol
	// Every announcement carries the content's CHECK: a receiver that holds
	// the content completes the task without a data flow, and one that
	// retained part of it from an earlier attempt (a crash, a requeue) is
	// sent only the rest — a rerun costs one handshake, whatever the
	// receiver holds. The spec can keep the receiver from answering it from
	// an object it holds whole (NoDedup).
	opts.NoDedup = t.Spec.NoDedup
	opts.RateCap = d.capFor(t.Spec.tenant())
	if t.Spec.Streams > 1 {
		opts.Streams = t.Spec.Streams
	}
	if t.Spec.Congestion != "" {
		opts.Congestion = t.Spec.Congestion
	}
	// Every attempt runs under the task's trace id: the span log (when
	// configured) and the receiving endpoint both see one trace per task,
	// whatever the attempt count.
	opts.Trace = d.cfg.Trace
	if tid, err := obs.ParseTraceID(t.Trace); err == nil {
		opts.TraceID = tid
	}
	return opts
}

// runTask executes one dispatched task end to end through m and records its
// verdict. The task pointer is shared; all mutations happen under d.mu.
func (d *Daemon) runTask(ctx context.Context, t *Task, m *mover) {
	obj, err := m.read(t.Spec.Path)
	var st core.SenderStats
	if err == nil {
		cfg := core.Config{Transfer: t.Transfer, PacketSize: t.Spec.PacketSize}
		st, err = udprt.Send(ctx, t.Spec.Addr, obj, cfg, d.moverOptions(t))
	}
	if err == nil {
		d.mu.Lock()
		hook := d.hookDelivered
		snap := t.clone()
		d.mu.Unlock()
		if hook != nil {
			hook(snap) // crash window: delivered but not yet durable
		}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.active[t.ID]
	delete(d.active, t.ID)
	if d.crashed {
		return // simulated SIGKILL: no transition after death
	}
	t.Updated = time.Now()
	switch {
	case err == nil:
		t.State = StateDone
		t.Error = ""
		t.Stats = statsOf(st)
		t.note("done", "", "")
		d.reg.ObserveHistogram("task_time_to_done_ns", t.Updated.Sub(t.Created).Nanoseconds())
	case r != nil && r.userAbort:
		t.State = StateCancelled
		t.Error = err.Error()
		t.note("cancelled", "", err.Error())
	case ctx.Err() != nil:
		// The mover's context has only two cancellation sources: Cancel()
		// (handled above via userAbort) and daemon shutdown. Movers can
		// observe cancellation before Run's goroutine gets the lock to set
		// d.stopped, so classify by the context alone — shutdown, not
		// verdict: leave the durable state at "running" so the next daemon
		// requeues and resumes this task.
		t.State = StateRunning
		d.updateGauges()
		return
	default:
		t.State = StateFailed
		t.Error = err.Error()
		if st.PacketsNeeded > 0 {
			t.Stats = statsOf(st)
		}
		t.note("failed", "", err.Error())
	}
	d.reg.ObserveHistogram("task_attempts", int64(t.Attempts))
	// A verdict the store refused is logged and counted by persist. The
	// task stays as decided in memory; a later compaction writes it if the
	// store recovers, and a restart before that reruns the task.
	d.persist(t)
	d.updateGauges()
	d.log.Info("task finished", "task", t.ID, "transfer", t.Transfer,
		"trace", t.Trace, "state", string(t.State), "attempt", t.Attempts,
		"error", t.Error)
}

// Submit validates and enqueues a new task, durably, before returning
// its snapshot: once Submit returns, a crash cannot lose the task.
func (d *Daemon) Submit(spec Spec) (Task, error) {
	if err := spec.validate(); err != nil {
		return Task{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped || d.crashed {
		return Task{}, errors.New("tasks: daemon is shutting down")
	}
	now := time.Now()
	t := &Task{
		ID:      d.nextID,
		Spec:    spec,
		State:   StateQueued,
		Created: now,
		Updated: now,
		Trace:   obs.NewTraceID().String(),
	}
	// The transfer id must be stable across reruns (it keys the
	// receiver's retained state) and unique among this daemon's tasks;
	// the monotonic task id provides both.
	t.Transfer = uint32(t.ID)
	t.note("queued", "", "")
	if err := d.persist(t); err != nil {
		return Task{}, err
	}
	d.nextID++
	d.tasks[t.ID] = t
	d.queue.push(t)
	d.updateGauges()
	d.cond.Signal()
	d.log.Info("task queued", "task", t.ID, "transfer", t.Transfer,
		"trace", t.Trace, "tenant", spec.tenant(), "addr", spec.Addr, "path", spec.Path)
	return t.clone(), nil
}

// Cancel stops a task: a queued task transitions to cancelled
// immediately; a running task's mover is cancelled and records the
// cancellation when it winds down. Terminal tasks are left alone (no
// error — cancellation is idempotent).
func (d *Daemon) Cancel(id uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tasks[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	switch t.State {
	case StateQueued:
		d.queue.drop(id)
		t.State = StateCancelled
		t.Updated = time.Now()
		t.note("cancelled", "", "cancelled while queued")
		if err := d.persist(t); err != nil {
			return err
		}
		d.reg.ObserveHistogram("task_attempts", int64(t.Attempts))
		d.updateGauges()
		d.log.Info("task cancelled", "task", t.ID, "transfer", t.Transfer, "trace", t.Trace)
	case StateRunning:
		if r := d.active[id]; r != nil {
			r.userAbort = true
			r.cancel()
		}
	}
	return nil
}

// Get returns a task snapshot by id.
func (d *Daemon) Get(id uint64) (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tasks[id]
	if !ok {
		return Task{}, false
	}
	return t.clone(), true
}

// List returns snapshots of every known task, ordered by id.
func (d *Daemon) List() []Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Task, 0, len(d.tasks))
	for id := uint64(1); id < d.nextID && len(out) < len(d.tasks); id++ {
		if t, ok := d.tasks[id]; ok {
			out = append(out, t.clone())
		}
	}
	return out
}

// persist makes one task transition durable, and forget one task's
// removal. Caller holds d.mu.
func (d *Daemon) persist(t *Task) error  { return d.settle(d.store.save(t), t.ID) }
func (d *Daemon) forget(id uint64) error { return d.settle(d.store.remove(id), id) }

// settle accounts for one journal append. A failed append is logged,
// counted in the tasks_store_errors gauge and returned: the transition did
// not happen. After a good one the journal compacts when its dead records
// are due; a failed compaction is logged and counted but not returned, since
// the append stands and the next transition tries again.
func (d *Daemon) settle(err error, id uint64) error {
	if err != nil {
		d.storeFailed(err, "task", id)
		return err
	}
	if err := d.store.compactIfDue(); err != nil {
		d.storeFailed(err)
	}
	return nil
}

func (d *Daemon) storeFailed(err error, attrs ...any) {
	d.storeErrors++
	d.reg.SetGauge("tasks_store_errors", float64(d.storeErrors))
	d.log.Error("task store write failed", append(attrs, "error", err)...)
}

// discardHandler drops every record before it is formatted: Enabled says
// no, so a daemon without a logger spends nothing on its transition log
// under d.mu. (slog.DiscardHandler is the same, from Go 1.24.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// kill simulates a SIGKILL for crash tests: every mover's context is
// cancelled and, crucially, nothing further is persisted or transitioned
// — memory and disk freeze exactly as they were. Only tests call this.
func (d *Daemon) kill() {
	d.mu.Lock()
	d.crashed = true
	d.stopped = true
	d.store.disabled = true
	for _, r := range d.active {
		r.cancel()
	}
	d.mu.Unlock()
	d.cond.Broadcast()
}

// updateGauges refreshes the task-level gauges. Caller holds d.mu.
func (d *Daemon) updateGauges() {
	if d.reg == nil {
		return
	}
	var done, failed, cancelled, deduped int
	for _, t := range d.tasks {
		switch t.State {
		case StateDone:
			done++
		case StateFailed:
			failed++
		case StateCancelled:
			cancelled++
		}
		if t.Stats != nil && t.Stats.Deduped {
			deduped++
		}
	}
	d.reg.SetGauge("tasks_queued", float64(d.queue.len()))
	d.reg.SetGauge("tasks_running", float64(len(d.active)))
	d.reg.SetGauge("tasks_done", float64(done))
	d.reg.SetGauge("tasks_failed", float64(failed))
	d.reg.SetGauge("tasks_cancelled", float64(cancelled))
	d.reg.SetGauge("tasks_dedup_hits", float64(deduped))
	d.reg.SetGauge("tasks_store_errors", float64(d.storeErrors))

	// Per-tenant queue health: depth and the age of the oldest queued
	// task, the two numbers that tell a stuck tenant from a busy one.
	if d.tenantGauged == nil {
		d.tenantGauged = make(map[string]bool)
	}
	now := time.Now()
	seen := make(map[string]bool, len(d.queue.fifos))
	for tenant, fifo := range d.queue.fifos {
		seen[tenant] = true
		d.tenantGauged[tenant] = true
		d.reg.SetGauge("tenant_"+tenant+"_queued", float64(len(fifo)))
		oldest := fifo[0].queuedAt()
		for _, t := range fifo[1:] {
			if qa := t.queuedAt(); qa.Before(oldest) {
				oldest = qa
			}
		}
		d.reg.SetGauge("tenant_"+tenant+"_oldest_queued_age_seconds", now.Sub(oldest).Seconds())
	}
	for tenant := range d.tenantGauged {
		if !seen[tenant] {
			d.reg.DeleteGauge("tenant_" + tenant + "_queued")
			d.reg.DeleteGauge("tenant_" + tenant + "_oldest_queued_age_seconds")
			delete(d.tenantGauged, tenant)
		}
	}
}

// refreshGauges recomputes the queue gauges on demand — the scrape path
// calls it so oldest-queued ages grow even while no transition happens.
func (d *Daemon) refreshGauges() {
	d.mu.Lock()
	d.updateGauges()
	d.mu.Unlock()
}
