package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/stats"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	tm := r.StartSender(1, 10, 1000)
	if tm != nil {
		t.Fatalf("nil registry handed out non-nil transfer")
	}
	if r.Supervisor(1) != nil {
		t.Fatalf("nil registry handed out a non-nil supervisor handle")
	}
	// Every method must be a no-op on the nil handle.
	tm.Event(obs.KindHandshake, 0)
	tm.Publish(Counts{PacketsSent: 1}, 1, time.Millisecond)
	tm.Event(obs.KindStall, 0)
	tm.Follow(func(c *Counts) { c.Fresh++ })
	tm.Event(obs.KindIdle, 0)
	tm.Event(obs.KindResume, 5)
	tm.AddIO(stats.IOCounters{})
	r.Supervisor(1).Event(obs.KindRetry, 1)
	tm.Event(obs.KindComplete, 0)
	tm.Event(obs.KindAbort, 0)
	if got := tm.Snapshot(); got != (TransferSnapshot{}) {
		t.Fatalf("nil transfer snapshot = %+v, want zero", got)
	}
	if got := r.Snapshot(); got.Active != 0 || len(got.Transfers) != 0 {
		t.Fatalf("nil registry snapshot = %+v, want zero", got)
	}
	r.Sample()
	r.StartSampler(time.Millisecond)()
	r.StartReporter(io.Discard, time.Millisecond)()
	if got := r.TraceCSV(); got != "" {
		t.Fatalf("nil registry CSV = %q", got)
	}
}

func TestResumeAndRetryCounters(t *testing.T) {
	r := New()
	tm := r.StartSender(9, 10, 10000)
	// A resumed sender: 6 packets carried over, 4 sent fresh, 1 retransmit.
	tm.Event(obs.KindResume, 6)
	tm.Publish(Counts{PacketsSent: 5, Retransmits: 1, KnownReceived: 10}, 0, 0)
	s := tm.Snapshot()
	if s.PacketsRestored != 6 {
		t.Fatalf("restored=%d, want 6", s.PacketsRestored)
	}
	if s.PacketsSent != s.PacketsNeeded-s.PacketsRestored+s.Retransmits {
		t.Fatalf("resumed conservation violated: sent=%d needed=%d restored=%d retx=%d",
			s.PacketsSent, s.PacketsNeeded, s.PacketsRestored, s.Retransmits)
	}

	sup := r.Supervisor(9)
	sup.Event(obs.KindRetry, 1)
	sup.Event(obs.KindRetry, 2)
	snap := r.Snapshot()
	if snap.Retries != 2 || snap.Resumes != 1 {
		t.Fatalf("retries=%d resumes=%d, want 2/1", snap.Retries, snap.Resumes)
	}
	if snap.Totals.PacketsRestored != 6 {
		t.Fatalf("totals restored=%d, want 6", snap.Totals.PacketsRestored)
	}
	// The ring must carry both event kinds with their args.
	var sawRetry, sawResume bool
	for _, ev := range snap.Events {
		switch ev.Kind {
		case obs.KindRetry:
			sawRetry = true
			if ev.Arg != 1 && ev.Arg != 2 {
				t.Fatalf("retry arg=%d, want attempt number", ev.Arg)
			}
		case obs.KindResume:
			sawResume = true
			if ev.Arg != 6 {
				t.Fatalf("resume arg=%d, want 6 restored", ev.Arg)
			}
		}
	}
	if !sawRetry || !sawResume {
		t.Fatalf("ring missing events: retry=%v resume=%v", sawRetry, sawResume)
	}
}

// TestReceiverClassificationAndTotals: a followed endpoint's counts are read
// through its view at every snapshot — exact whenever one is taken — and a
// last time at its outcome, after which the view is never called again.
func TestReceiverClassificationAndTotals(t *testing.T) {
	r := New()
	tm := r.StartReceiver(9, 3, 3000)
	tm.Event(obs.KindHandshake, 0)
	tm.Event(obs.KindRounds, 0)
	var mu sync.Mutex
	held, reads := Counts{}, 0
	tm.Follow(func(c *Counts) {
		mu.Lock()
		defer mu.Unlock()
		*c = held
		reads++
	})
	set := func(c Counts) {
		mu.Lock()
		held = c
		mu.Unlock()
	}
	set(Counts{DataDemuxed: 1, Fresh: 1, BytesReceived: 1000})
	if s := tm.Snapshot(); s.Fresh != 1 || s.BytesReceived != 1000 {
		t.Fatalf("snapshot did not read the view: %+v", s.Counts)
	}
	set(Counts{DataDemuxed: 5, Fresh: 3, Duplicates: 1, Rejected: 1, BytesReceived: 3000, AcksSent: 2})
	s := tm.Snapshot()
	if s.Fresh != 3 || s.Duplicates != 1 || s.Rejected != 1 || s.DataDemuxed != 5 {
		t.Fatalf("fresh=%d dup=%d rej=%d demux=%d", s.Fresh, s.Duplicates, s.Rejected, s.DataDemuxed)
	}
	if s.Fresh+s.Duplicates+s.Rejected != s.DataDemuxed {
		t.Fatalf("receiver conservation violated: %+v", s)
	}
	if s.BytesReceived != 3000 || s.AcksSent != 2 {
		t.Fatalf("bytes=%d acks=%d", s.BytesReceived, s.AcksSent)
	}
	if s.HandshakeAt == 0 || s.FirstDataAt == 0 {
		t.Fatalf("phase stamps missing: %+v", s)
	}
	if s.FirstDataAt < s.HandshakeAt {
		t.Fatalf("first data %v before handshake %v", s.FirstDataAt, s.HandshakeAt)
	}
	tm.Event(obs.KindComplete, 0)
	mu.Lock()
	final := reads
	mu.Unlock()
	set(Counts{Fresh: 99}) // the endpoint's state is no longer the registry's
	snap := r.Snapshot()
	if snap.Active != 0 || snap.Totals.Completed != 1 || snap.Totals.Fresh != 3 {
		t.Fatalf("after complete: active=%d completed=%d fresh=%d", snap.Active, snap.Totals.Completed, snap.Totals.Fresh)
	}
	got, ok := snap.Find(9, obs.RoleReceiver)
	if !ok || got.Outcome != OutcomeCompleted || got.DoneAt == 0 {
		t.Fatalf("Find(9, receiver) = %+v, %v", got, ok)
	}
	if tm.Snapshot().Fresh != 3 || reads != final {
		t.Fatalf("view read after the outcome: %d reads, %d at the outcome", reads, final)
	}
}

func TestCompleteAbortFirstWins(t *testing.T) {
	r := New()
	tm := r.StartSender(1, 1, 10)
	tm.Event(obs.KindComplete, 0)
	tm.Event(obs.KindAbort, 3)
	s := tm.Snapshot()
	if s.Outcome != OutcomeCompleted || s.AbortReason != 0 {
		t.Fatalf("outcome=%v reason=%d, want completed/0", s.Outcome, s.AbortReason)
	}
	if total := r.Snapshot(); len(total.Transfers) != 1 {
		t.Fatalf("double-finish duplicated history: %d entries", len(total.Transfers))
	}
}

func TestIDReuseArchivesOldHandle(t *testing.T) {
	r := New()
	a := r.StartSender(5, 1, 10)
	a.Publish(Counts{PacketsSent: 1}, 0, 0)
	b := r.StartSender(5, 2, 20) // same id, new transfer
	b.Publish(Counts{PacketsSent: 2}, 0, 0)
	b.Event(obs.KindComplete, 0)
	snap := r.Snapshot()
	if len(snap.Transfers) != 2 {
		t.Fatalf("want both generations retained, got %d", len(snap.Transfers))
	}
	got, _ := snap.Find(5, obs.RoleSender)
	if got.PacketsSent != 2 {
		t.Fatalf("Find returned the stale generation: %+v", got)
	}
}

// TestEventRingConcurrent: lifecycle events recorded from several goroutines
// while Events is read come back decoded whole — the kind, role, transfer
// and arg of one event, never a mix (the ring's own discipline is raced in
// internal/spine; this is the registry's packing on top of it).
func TestEventRingConcurrent(t *testing.T) {
	r := New()
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.record(time.Duration(i), uint32(w), obs.RoleSender, obs.KindStall, uint64(i))
				if i%16 == 0 {
					r.Events() // readers race the writers
				}
			}
		}(w)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) == 0 || len(evs) > ringSize {
		t.Fatalf("ring holds %d events, want 1..%d", len(evs), ringSize)
	}
	for _, e := range evs {
		if e.Kind != obs.KindStall || e.Role != obs.RoleSender || e.Transfer >= writers {
			t.Fatalf("torn event read: %+v", e)
		}
		if uint64(e.At) != e.Arg {
			t.Fatalf("mixed-generation slot: at=%d arg=%d", e.At, e.Arg)
		}
	}
}

func TestEventRingOrderAndLapping(t *testing.T) {
	r := New()
	total := ringSize + 40
	for i := 0; i < total; i++ {
		r.record(time.Duration(i), uint32(i), obs.RoleReceiver, obs.KindIdle, 0)
	}
	evs := r.Events()
	if len(evs) != ringSize {
		t.Fatalf("got %d events, want %d", len(evs), ringSize)
	}
	for i, e := range evs {
		want := uint32(total - ringSize + i)
		if e.Transfer != want || e.Role != obs.RoleReceiver || e.Kind != obs.KindIdle {
			t.Fatalf("event %d = %+v, want transfer %d (oldest-first order)", i, e, want)
		}
	}
}

func TestSamplerAndCharts(t *testing.T) {
	r := New()
	tm := r.StartReceiver(1, 100, 100_000)
	var fresh atomic.Int64
	tm.Follow(func(c *Counts) { c.Fresh, c.BytesReceived = fresh.Load(), 1000*fresh.Load() })
	r.Sample()
	for i := 0; i < 5; i++ {
		fresh.Add(20)
		time.Sleep(2 * time.Millisecond)
		r.Sample()
	}
	tm.Event(obs.KindComplete, 0)
	csv := r.TraceCSV()
	if !strings.HasPrefix(csv, "t_seconds,active,goodput,send,pkts,retx,acks\n") {
		t.Fatalf("CSV header = %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if lines := strings.Count(csv, "\n"); lines < 4 {
		t.Fatalf("CSV has %d lines, want several samples", lines)
	}
	charts := r.Charts(24)
	if !strings.Contains(charts, "goodput") {
		t.Fatalf("charts missing goodput series:\n%s", charts)
	}
}

func TestReporterWritesSummaries(t *testing.T) {
	r := New()
	tm := r.StartSender(3, 10, 10_000)
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := r.StartReporter(w, 5*time.Millisecond)
	tm.Publish(Counts{PacketsSent: 10, BytesSent: 10_000}, 0, 0)
	time.Sleep(15 * time.Millisecond)
	tm.Event(obs.KindComplete, 0)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "[fobs] t=") || !strings.Contains(out, "sent=10 pkts") {
		t.Fatalf("reporter output = %q", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestDebugEndpointServesSnapshot(t *testing.T) {
	r := New()
	tm := r.StartSender(42, 8, 8000)
	tm.Publish(Counts{PacketsSent: 8, BytesSent: 8000}, 0, 0)
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/fobs")
	if err != nil {
		t.Fatalf("GET /debug/fobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var snap struct {
		Active    int `json:"active"`
		Transfers []struct {
			Transfer    uint32 `json:"transfer"`
			Role        string `json:"role"`
			PacketsSent int64  `json:"packets_sent"`
		} `json:"transfers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Active != 1 || len(snap.Transfers) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if tr := snap.Transfers[0]; tr.Transfer != 42 || tr.Role != "sender" || tr.PacketsSent != 8 {
		t.Fatalf("transfer = %+v", tr)
	}

	for _, path := range []string{"/debug/fobs/trace", "/debug/fobs/charts", "/debug/pprof/"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d body %q", path, resp.StatusCode, body)
		}
	}
}

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{OutcomeCompleted.String(), "completed"},
		{OutcomeAborted.String(), "aborted"},
		{fmt.Sprint(Outcome(9)), "outcome(9)"},
		// /debug/fobs names an event's role and kind in obs's vocabulary.
		{mustJSON(t, Event{Transfer: 3, Role: obs.RoleReceiver, Kind: obs.KindRounds}), `{"at_ns":0,"transfer":3,"role":"receiver","kind":"rounds"}`},
		{mustJSON(t, Event{Role: obs.RoleSender, Kind: obs.KindAbort, Arg: 5}), `{"at_ns":0,"transfer":0,"role":"sender","kind":"abort","arg":5}`},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Fatalf("got %q, want %q", c.got, c.want)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestGauges(t *testing.T) {
	r := New()
	if _, ok := r.Gauge("tasks_queued"); ok {
		t.Fatal("unset gauge reported present")
	}
	r.SetGauge("tasks_queued", 3)
	r.AddGauge("tasks_queued", 2)
	r.AddGauge("tasks_running", 1) // AddGauge creates on first use
	r.SetGauge("tenant_a_rate_cap_bps", 5e6)
	if v, ok := r.Gauge("tasks_queued"); !ok || v != 5 {
		t.Fatalf("tasks_queued = %v, %v; want 5, true", v, ok)
	}

	snap := r.Snapshot()
	if len(snap.Gauges) != 3 {
		t.Fatalf("snapshot carries %d gauges, want 3: %v", len(snap.Gauges), snap.Gauges)
	}
	if snap.Gauges["tasks_running"] != 1 || snap.Gauges["tenant_a_rate_cap_bps"] != 5e6 {
		t.Fatalf("gauge values wrong: %v", snap.Gauges)
	}
	names := snap.GaugeNames()
	if !sort.StringsAreSorted(names) || len(names) != 3 {
		t.Fatalf("GaugeNames() = %v, want 3 sorted names", names)
	}
	// The snapshot is a copy: later registry writes must not leak in.
	r.SetGauge("tasks_queued", 99)
	if snap.Gauges["tasks_queued"] != 5 {
		t.Fatal("snapshot aliases the live gauge map")
	}

	// Round-trips through JSON like the rest of the snapshot.
	var back Snapshot
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Gauges["tenant_a_rate_cap_bps"] != 5e6 {
		t.Fatalf("gauges lost in JSON: %v", back.Gauges)
	}

	r.DeleteGauge("tasks_running")
	if _, ok := r.Gauge("tasks_running"); ok {
		t.Fatal("deleted gauge still present")
	}

	// A registry with no gauges omits the field entirely.
	empty, err := json.Marshal(New().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(empty, []byte("gauges")) {
		t.Fatalf("empty registry still serializes gauges: %s", empty)
	}

	// Nil-safety, like every other registry method.
	var nilReg *Registry
	nilReg.SetGauge("x", 1)
	nilReg.AddGauge("x", 1)
	nilReg.DeleteGauge("x")
	if _, ok := nilReg.Gauge("x"); ok {
		t.Fatal("nil registry holds a gauge")
	}
}

func TestWritePrometheusGauges(t *testing.T) {
	r := New()
	r.SetGauge("tasks_queued", 4)
	r.SetGauge(`odd"name`, 1) // label values are quoted, whatever the name
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, "# TYPE fobs_gauge gauge") {
		t.Fatalf("missing fobs_gauge type line:\n%s", out)
	}
	if !strings.Contains(out, `fobs_gauge{name="tasks_queued"} 4`) {
		t.Fatalf("missing tasks_queued sample:\n%s", out)
	}
	if !strings.Contains(out, `fobs_gauge{name="odd\"name"} 1`) {
		t.Fatalf("quote-bearing gauge name not escaped:\n%s", out)
	}
	// No gauges → no fobs_gauge family at all.
	var none bytes.Buffer
	New().WritePrometheus(&none)
	if strings.Contains(none.String(), "fobs_gauge") {
		t.Fatal("gauge family emitted with no gauges set")
	}
}
