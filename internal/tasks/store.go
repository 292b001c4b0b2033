// The crash-safe task store: one framed file per task (the checkpoint
// package's container — magic, body, trailing CRC-32C, atomic tmp+rename
// writes — under a task magic), body = a version byte plus the task's
// JSON. Every state transition is persisted before it takes observable
// effect, so the on-disk directory is always a consistent prefix of the
// daemon's history: a SIGKILL at any instant leaves each task either at
// its previous durable state or its next one, never torn. Corrupt or
// foreign files are skipped on load exactly like corrupt checkpoints —
// a broken file degrades to a rerun-from-queued or a vanished record,
// never a crash or a garbage task.
package tasks

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hpcnet/fobs/internal/checkpoint"
)

// taskMagic opens every task file; same container as "FOBSCKPT" files.
var taskMagic = [8]byte{'F', 'O', 'B', 'S', 'T', 'A', 'S', 'K'}

// storeVersion is the task body revision this build writes.
const storeVersion uint8 = 1

// taskFile returns the task path for an id under dir.
func taskFile(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("fobs-task-%016x", id))
}

// store persists tasks under one directory. Methods are not
// concurrency-safe; the daemon serializes access under its own lock.
type store struct {
	dir string
	// disabled suppresses every write: the crash-simulation switch. A
	// "killed" daemon must leave the directory exactly as it was at the
	// kill instant, and a test double-checking terminal states must not
	// see post-kill persists sneak through.
	disabled bool
}

func newStore(dir string) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tasks: state dir: %w", err)
	}
	return &store{dir: dir}, nil
}

// save persists one task (create or overwrite) atomically.
func (s *store) save(t *Task) error {
	if s.disabled {
		return nil
	}
	js, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("tasks: marshal task %d: %w", t.ID, err)
	}
	return checkpoint.WriteFramed(taskFile(s.dir, t.ID), taskMagic, []byte{storeVersion}, js)
}

// remove deletes a task's file, if present.
func (s *store) remove(id uint64) {
	if s.disabled {
		return
	}
	os.Remove(taskFile(s.dir, id))
}

// loadTask reads and validates one task file.
func loadTask(path string) (*Task, error) {
	body, err := checkpoint.ReadFramed(path, taskMagic)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 {
		return nil, checkpoint.ErrCorrupt
	}
	if body[0] != storeVersion {
		return nil, fmt.Errorf("tasks: task version %d, speak %d", body[0], storeVersion)
	}
	var t Task
	if err := json.Unmarshal(body[1:], &t); err != nil {
		return nil, fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
	}
	switch t.State {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		return nil, checkpoint.ErrCorrupt
	}
	return &t, nil
}

// load reads every valid task under the directory, ordered by id.
// Corrupt, foreign, or misnamed files are skipped: a shared state
// directory must not poison daemon startup.
func (s *store) load() ([]*Task, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("tasks: %w", err)
	}
	var out []*Task
	for _, e := range ents {
		var id uint64
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), "fobs-task-") && strings.HasSuffix(e.Name(), ".tmp") {
			// A SIGKILL between WriteFramed's WriteFile and Rename leaves a
			// tmp sibling whose body may be a perfectly valid frame. The
			// rename never happened, so the durable truth is the un-renamed
			// file (or the task's absence) — the stray must not load as a
			// second record for the same id.
			os.Remove(filepath.Join(s.dir, e.Name()))
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "fobs-task-%016x", &id); err != nil {
			continue
		}
		// Sscanf matches prefixes; only the exact canonical name counts.
		if e.Name() != fmt.Sprintf("fobs-task-%016x", id) {
			continue
		}
		t, err := loadTask(filepath.Join(s.dir, e.Name()))
		if err != nil || t.ID != id {
			continue
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
