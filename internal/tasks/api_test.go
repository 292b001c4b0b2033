package tasks

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/udprt"
)

// startAPI wires a daemon (with metrics) behind an httptest server.
func startAPI(t *testing.T) (*Daemon, *receiver, *httptest.Server) {
	t.Helper()
	rcv := startReceiver(t, udprt.Options{})
	d, err := New(Config{Dir: t.TempDir(), Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	runDaemon(t, d)
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	return d, rcv, ts
}

func decodeTask(t *testing.T, resp *http.Response, wantStatus int) Task {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var task Task
	if err := json.NewDecoder(resp.Body).Decode(&task); err != nil {
		t.Fatal(err)
	}
	return task
}

func TestAPILifecycle(t *testing.T) {
	_, rcv, ts := startAPI(t)
	path, obj := writeObj(t, 32<<10)

	// Submit.
	body, _ := json.Marshal(Spec{Tenant: "web", Addr: rcv.addr, Path: path})
	resp, err := http.Post(ts.URL+"/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	task := decodeTask(t, resp, http.StatusCreated)
	if task.ID == 0 || task.State != StateQueued && task.State != StateRunning {
		t.Fatalf("submitted task %+v", task)
	}

	// Poll GET /tasks/{id} until done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/tasks/%d", ts.URL, task.ID))
		if err != nil {
			t.Fatal(err)
		}
		got := decodeTask(t, resp, http.StatusOK)
		if got.State == StateDone {
			if got.Stats == nil || got.Stats.PacketsSent == 0 {
				t.Fatalf("done task carries no stats: %+v", got)
			}
			break
		}
		if got.State.Terminal() {
			t.Fatalf("task ended %q: %+v", got.State, got)
		}
		if time.Now().After(deadline) {
			t.Fatalf("task stuck in %q", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if delivered, _ := rcv.await(task.Transfer, 1); !bytes.Equal(delivered, obj) {
		t.Fatal("object delivered over the API path is corrupted")
	}

	// The timeline endpoint serves the durable history with its trace id.
	resp, err = http.Get(fmt.Sprintf("%s/tasks/%d/events", ts.URL, task.ID))
	if err != nil {
		t.Fatal(err)
	}
	var timeline struct {
		ID     uint64      `json:"id"`
		Trace  string      `json:"trace"`
		State  State       `json:"state"`
		Events []TaskEvent `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&timeline)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if timeline.ID != task.ID || timeline.Trace == "" || timeline.State != StateDone {
		t.Fatalf("timeline header wrong: %+v", timeline)
	}
	wantEvents := []string{"queued", "dispatched", "done"}
	if len(timeline.Events) != len(wantEvents) {
		t.Fatalf("timeline = %+v, want %v", timeline.Events, wantEvents)
	}
	for i, want := range wantEvents {
		if timeline.Events[i].Event != want {
			t.Fatalf("timeline[%d] = %q, want %q", i, timeline.Events[i].Event, want)
		}
	}
	if timeline.Events[1].CC == "" || timeline.Events[1].Attempt != 1 {
		t.Fatalf("dispatch event missing context: %+v", timeline.Events[1])
	}
	resp, err = http.Get(ts.URL + "/tasks/999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown task: status %d, want 404", resp.StatusCode)
	}

	// List includes it.
	resp, err = http.Get(ts.URL + "/tasks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []Task
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != task.ID {
		t.Fatalf("list = %+v", list)
	}
}

// TestAPIAcceptsDroppedVerifyField: a POST /tasks body from a client that
// still sends "verify" is accepted, the field ignored, and the task runs.
func TestAPIAcceptsDroppedVerifyField(t *testing.T) {
	d, rcv, ts := startAPI(t)
	path, _ := writeObj(t, 16<<10)
	body := fmt.Sprintf(`{"addr":%q,"path":%q,"verify":true}`, rcv.addr, path)
	resp, err := http.Post(ts.URL+"/tasks", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	task := decodeTask(t, resp, http.StatusCreated)
	if task.Spec.Addr != rcv.addr || task.Spec.Path != path {
		t.Fatalf("submitted spec %+v", task.Spec)
	}
	waitTasks(t, d, 30*time.Second, isDone)
}

func TestAPICancelAndErrors(t *testing.T) {
	d, rcv, ts := startAPI(t)
	client := ts.Client()

	// Bad JSON and bad spec are 400s.
	resp, err := http.Post(ts.URL+"/tasks", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}
	body, _ := json.Marshal(Spec{Addr: rcv.addr}) // no path
	resp, err = http.Post(ts.URL+"/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty path: status %d", resp.StatusCode)
	}

	// Unknown and malformed ids are 404/400.
	for path, want := range map[string]int{
		"/tasks/999": http.StatusNotFound,
		"/tasks/abc": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// DELETE cancels a queued task. Submit directly with the daemon killed
	// worker-side? Simpler: submit to an unreachable address so it lingers,
	// then cancel via the API.
	objPath, _ := writeObj(t, 4<<10)
	task, err := d.Submit(Spec{Addr: "127.0.0.1:1", Path: objPath})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/tasks/%d", ts.URL, task.ID), nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeTask(t, resp, http.StatusOK)
	if got.State != StateCancelled && got.State != StateRunning {
		t.Fatalf("task state %q right after cancel", got.State)
	}
	// A running mover observes the cancel asynchronously; converge on the
	// durable verdict.
	deadline := time.Now().Add(15 * time.Second)
	for {
		after, _ := d.Get(task.ID)
		if after.State == StateCancelled {
			break
		}
		if after.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("task ended %q, want cancelled", after.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/tasks/999", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: status %d", resp.StatusCode)
	}

	// A store failure while persisting the cancel of a queued task is a
	// server error, not "not found". Use a dispatcher-less daemon so the
	// task stays queued, then hand its store a journal handle that can
	// neither append nor cut back: a journal that refuses writes.
	dir2 := t.TempDir()
	d2, err := New(Config{Dir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(d2.Handler())
	t.Cleanup(ts2.Close)
	queued, err := d2.Submit(Spec{Addr: "127.0.0.1:1", Path: objPath})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(filepath.Join(dir2, journalName))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	d2.mu.Lock()
	d2.store.f = ro
	d2.mu.Unlock()
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/tasks/%d", ts2.URL, queued.ID), nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("cancel with broken store: status %d, want 500", resp.StatusCode)
	}

	// Health and debug endpoints answer.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/debug/fobs")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Gauges["tasks_cancelled"]; !ok {
		t.Fatalf("debug snapshot gauges missing task counts: %+v", snap.Gauges)
	}
}
