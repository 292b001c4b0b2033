// Tests of the mover's read buffer: what it reads matches os.ReadFile
// whatever happened to the file since the last task, a worker keeps no
// buffer over moverBufferCap, and a task after the first allocates nothing
// object-sized on the mover side.
package tasks

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/udprt"
)

// dispatch pops the next queued task and marks it running as worker does,
// so a test can drive runTask by hand.
func dispatch(t *testing.T, d *Daemon) (*Task, context.Context) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	tk := d.queue.pop()
	tk.State = StateRunning
	tk.Attempts++
	if err := d.persist(tk); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	d.active[tk.ID] = &running{cancel: cancel}
	return tk, ctx
}

// TestMoverReadMatchesReadFile rewrites one path between reads — larger than
// the buffer, smaller, empty, gone — and requires each of one mover's reads
// to return what os.ReadFile returns, reusing the buffer wherever it fits.
func TestMoverReadMatchesReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obj")
	var m mover
	steps := []struct {
		name  string
		size  int // -1: remove the file
		reuse bool
	}{
		{"first", 100 << 10, false},
		{"same size", 100 << 10, true},
		{"grows", 300 << 10, false},
		{"shrinks", 10 << 10, true},
		{"becomes empty", 0, true},
		{"grows back", 200 << 10, true},
		{"disappears", -1, false},
	}
	for _, s := range steps {
		if s.size < 0 {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, randBytes(t, s.size), 0o644); err != nil {
			t.Fatal(err)
		}
		kept := m.buf[:cap(m.buf)]
		got, err := m.read(path)
		want, wantErr := os.ReadFile(path)
		if !bytes.Equal(got, want) || len(got) != len(want) {
			t.Fatalf("%s: read %d bytes, os.ReadFile %d, or they differ", s.name, len(got), len(want))
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s: read error %v, os.ReadFile error %v", s.name, err, wantErr)
		}
		var pe *os.PathError
		if s.size < 0 && (!errors.As(err, &pe) || !errors.Is(err, os.ErrNotExist)) {
			t.Fatalf("%s: error %v is not os.ReadFile's *PathError for a missing file", s.name, err)
		}
		if s.reuse && (len(kept) == 0 || cap(got) == 0 || &got[:1][0] != &kept[0]) {
			t.Fatalf("%s: read into a new buffer although the kept one (cap %d) fits", s.name, cap(kept))
		}
	}
}

// TestDaemonOversizeFileSentNotKept runs one worker's tasks by hand: a small
// file, then one whose buffer would exceed moverBufferCap, then the small one
// again. The large object arrives whole, and the worker comes out of that
// task holding its small buffer, which the third task reads into again.
func TestDaemonOversizeFileSentNotKept(t *testing.T) {
	rcv := startReceiver(t, udprt.Options{})
	d, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	smallPath, small := writeObj(t, 64<<10)
	largePath, large := writeObj(t, moverBufferCap)
	var m mover
	var kept *byte
	for i, path := range []string{smallPath, largePath, smallPath} {
		if _, err := d.Submit(Spec{Addr: rcv.addr, Path: path, NoDedup: true}); err != nil {
			t.Fatal(err)
		}
		tk, ctx := dispatch(t, d)
		d.runTask(ctx, tk, &m)
		if got, _ := d.Get(tk.ID); got.State != StateDone {
			t.Fatalf("task %d ended %q: %s", i+1, got.State, got.Error)
		}
		want := small
		if path == largePath {
			want = large
		}
		if got, _ := rcv.await(tk.Transfer, 1); !bytes.Equal(got, want) {
			t.Fatalf("task %d delivered %d bytes, want its %d", i+1, len(got), len(want))
		}
		if cap(m.buf) == 0 || cap(m.buf) > 2*len(small) {
			t.Fatalf("after task %d the worker keeps a %d-byte buffer, want the small file's", i+1, cap(m.buf))
		}
		if i == 0 {
			kept = &m.buf[:1][0]
		} else if &m.buf[:1][0] != kept {
			t.Fatalf("after task %d the worker holds a new buffer, want the one it kept", i+1)
		}
	}
}

// TestMoverTaskAllocBudget pins the saving on the mover side: after a
// worker's first 1 MiB task, each further one allocates less than a quarter
// of the object (a fresh read buffer per task would be the whole MiB). The
// tasks fail fast against a closed port so the receiver's allocations, which
// share the process's counters, stay out of the reading.
func TestMoverTaskAllocBudget(t *testing.T) {
	const objSize, budget = 1 << 20, 256 << 10
	d, err := New(Config{
		Dir:   t.TempDir(),
		Retry: &udprt.RetryPolicy{MaxRetries: -1},
		Send:  udprt.Options{HandshakeTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	var m mover
	for i := 0; i < 5; i++ {
		// A fresh file per task, each the same size: nothing carries over
		// from the previous task but the mover's buffer.
		path, _ := writeObj(t, objSize)
		if _, err := d.Submit(Spec{Addr: "127.0.0.1:1", Path: path}); err != nil {
			t.Fatal(err)
		}
		tk, ctx := dispatch(t, d)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.runTask(ctx, tk, &m)
		runtime.ReadMemStats(&after)
		if got, _ := d.Get(tk.ID); got.State != StateFailed {
			t.Fatalf("task %d against a closed port ended %q", i+1, got.State)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("task %d: %d KiB allocated", i+1, alloc>>10)
		if i > 0 && alloc >= budget {
			t.Fatalf("task %d allocated %d KiB on the mover side, budget %d KiB", i+1, alloc>>10, budget>>10)
		}
	}
}
