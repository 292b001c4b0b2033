// The fobsd smoke test: the genuine-signal counterpart to the simulated
// kill sweep in internal/tasks. It builds the real binary, hosts an
// in-process concurrent receiver, submits three tasks over the HTTP API,
// SIGKILLs the daemon with transfers in flight, restarts it over the same
// state directory, and requires every task to complete with bit-identical
// objects — the restarted movers resuming from the receiver's retained
// state rather than resending whole objects.
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/hpcnet/fobs"
)

// buildFobsd compiles the daemon binary into a temp dir.
func buildFobsd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fobsd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building fobsd: %v\n%s", err, out)
	}
	return bin
}

// freePort reserves a loopback address both daemon lives can bind; the
// restart needs the same port, so :0 per process would not do.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// daemonProc wraps one fobsd process.
type daemonProc struct {
	cmd *exec.Cmd
	url string
}

func startFobsd(t *testing.T, bin, dir, listen string, extra ...string) *daemonProc {
	t.Helper()
	args := append([]string{"-dir", dir, "-listen", listen}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{cmd: cmd, url: "http://" + listen}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	// Wait for the API to come up.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("fobsd API never came up: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

type apiTask struct {
	ID       uint64          `json:"id"`
	State    string          `json:"state"`
	Transfer uint32          `json:"transfer"`
	Stats    *fobs.TaskStats `json:"stats"`
}

func listTasks(t *testing.T, url string) []apiTask {
	t.Helper()
	resp, err := http.Get(url + "/tasks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []apiTask
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFobsdSmokeSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test skipped in -short mode")
	}
	bin := buildFobsd(t)

	// In-process concurrent receiver collecting every delivered object.
	// The resume window and checkpoint directory make retention survive
	// both the kill window and (belt and braces) a receiver hiccup.
	var mu sync.Mutex
	objs := make(map[uint32][]byte)
	srv, err := fobs.Listen("127.0.0.1:0", fobs.Options{
		ResumeWindow: 2 * time.Minute,
		Checkpoint:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx, func(id uint32, obj []byte, _ fobs.ReceiverStats) {
		mu.Lock()
		objs[id] = append([]byte(nil), obj...)
		mu.Unlock()
	})

	stateDir := t.TempDir()
	listen := freePort(t)

	// First life: capped slow (~2.5 Mb/s aggregate) so the kill lands with
	// data still on the wire.
	d1 := startFobsd(t, bin, stateDir, listen, "-tenant-rate", "default=2.5e6")

	want := make(map[uint32][]byte)
	for i := 0; i < 3; i++ {
		obj := make([]byte, 192<<10+i*4096)
		if _, err := rand.Read(obj); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("obj%d", i))
		if err := os.WriteFile(path, obj, 0o644); err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(fobs.TaskSpec{Addr: srv.Addr(), Path: path})
		resp, err := http.Post(d1.url+"/tasks", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var task apiTask
		err = json.NewDecoder(resp.Body).Decode(&task)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: status %d err %v", i, resp.StatusCode, err)
		}
		want[task.Transfer] = obj
	}

	// Wait until transfers are genuinely mid-flight, then SIGKILL.
	deadline := time.Now().Add(30 * time.Second)
	for {
		running := 0
		for _, task := range listTasks(t, d1.url) {
			if task.State == "running" {
				running++
			}
			if task.State == "done" {
				t.Fatal("a capped task finished before the kill; slow the cap down")
			}
		}
		if running >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tasks never started running")
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(250 * time.Millisecond) // let data accumulate at the receiver
	if err := d1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d1.cmd.Wait()

	// Second life: same state directory, uncapped. Every task must
	// complete without resubmission.
	d2 := startFobsd(t, bin, stateDir, listen)
	deadline = time.Now().Add(60 * time.Second)
	for {
		tasks := listTasks(t, d2.url)
		done := 0
		for _, task := range tasks {
			switch task.State {
			case "done":
				done++
			case "failed", "cancelled":
				t.Fatalf("task %d ended %q after restart", task.ID, task.State)
			}
		}
		if len(tasks) == 3 && done == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tasks never completed after restart: %+v", tasks)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Bit-identical delivery.
	mu.Lock()
	for id, obj := range want {
		if !bytes.Equal(objs[id], obj) {
			t.Errorf("transfer %d delivered different bytes (got %d, want %d)",
				id, len(objs[id]), len(obj))
		}
	}
	mu.Unlock()

	// The restarted movers resumed retained state instead of starting
	// over: the second life's metrics must show restored packets.
	resp, err := http.Get(d2.url + "/debug/fobs")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Resumes int64 `json:"resumes"`
		Totals  struct {
			PacketsRestored int64 `json:"packets_restored"`
		} `json:"totals"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Resumes == 0 || snap.Totals.PacketsRestored == 0 {
		t.Fatalf("restart resent from scratch: resumes=%d restored=%d",
			snap.Resumes, snap.Totals.PacketsRestored)
	}

	// Graceful shutdown this time: SIGTERM and a clean exit.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.cmd.Wait(); err != nil {
		t.Fatalf("fobsd did not exit cleanly on SIGTERM: %v", err)
	}
}
