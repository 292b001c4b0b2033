// The crash-safe task store: one append-only journal in the state
// directory. Every transition — a task saved, a task removed by the
// retention sweep — is one record appended with a single write() on an
// O_APPEND file:
//
//	[length u32][CRC-32C u32][kind u8][task id u64][task JSON]
//
// length counts what follows the CRC, and the CRC (Castagnoli, the wire's
// polynomial) covers those bytes. Loading replays the journal: the last
// record of a task wins, a remove drops the task, and the first record that
// is torn, fails its CRC or does not decode ends the replay — everything
// from it on is cut off, so later appends follow valid bytes. A SIGKILL at
// any instant therefore leaves each task at its previous durable state or
// its next one, never torn.
//
// Superseded records are dead weight. Compaction rewrites the journal as
// one record per live task through the checkpoint package's temp-file and
// rename (checkpoint.Replace), so a crash mid-compaction leaves the old
// journal whole. It runs when the store loads and whenever the dead
// records reach max(compactFloor, live tasks). Once more than compactFloor
// tasks are live, that bounds the journal to about twice the live snapshot,
// and each rewrite is paid for by at least as many appends as it writes
// records.
//
// Neither appends nor compaction call fsync: the store survives the death
// of the process, not of the machine.
package tasks

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/hpcnet/fobs/internal/checkpoint"
)

// journalName is the store's file in the state directory.
const journalName = "fobs-tasks.journal"

// journalHeader opens every journal: a magic, then the format version this
// build writes and reads.
var journalHeader = [9]byte{'F', 'O', 'B', 'S', 'J', 'R', 'N', 'L', 1}

// Record kinds.
const (
	kindSave   byte = 1 // the task as of this transition
	kindRemove byte = 2 // the task is gone
)

const (
	// recordHead is the length and CRC in front of a record's body.
	recordHead = 4 + 4
	// recordKey is the kind and task id that open a record's body.
	recordKey = 1 + 8
	// compactFloor is the fewest dead records worth a compaction, so a
	// small store is not rewritten every few transitions.
	compactFloor = 256
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// journalFile is what the store needs of its open journal; tests stand in
// a file that fails.
type journalFile interface {
	io.Writer
	Truncate(size int64) error
	Close() error
}

// store persists tasks in the journal. Methods are not
// concurrency-safe; the daemon serializes access under its own lock.
type store struct {
	path string // the journal
	// f is the journal, opened O_APPEND. It stays open for the daemon's
	// lifetime (a Daemon has no Close); the runtime's finalizer on the
	// file releases it with the daemon.
	f   journalFile
	end int64 // length of the journal's valid bytes: where the next record starts
	// live holds every task the journal keeps: the caller's own pointers,
	// which compaction writes as they stand in memory at that moment.
	live map[uint64]*Task
	dead int          // records a later record superseded
	buf  bytes.Buffer // one record under construction
	// err, once set, refuses every write: an append failed and could not
	// be cut back, so anything appended after it would follow torn bytes.
	err error
	// disabled suppresses every write: the crash-simulation switch. A
	// "killed" daemon must leave the directory exactly as it was at the
	// kill instant, and a test double-checking terminal states must not
	// see post-kill persists sneak through.
	disabled bool
}

// openStore opens (or creates) the store under dir and returns every live
// task, ordered by id. It replays the journal, or — when there is none —
// migrates the one-file-per-task layout earlier builds wrote, then
// compacts: the first snapshot of a migration, and the cut of any torn or
// corrupt tail. Task files are removed only after that rename, and a task
// file found beside a journal is a leftover of a migration killed before
// its cleanup, deleted unread.
func openStore(dir string) (*store, []*Task, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("tasks: state dir: %w", err)
	}
	s := &store{path: filepath.Join(dir, journalName)}
	var loaded []*Task
	b, err := os.ReadFile(s.path)
	switch {
	case err == nil:
		if loaded, _, err = replay(b); err != nil {
			return nil, nil, err
		}
	case os.IsNotExist(err):
		if loaded, err = loadLegacy(dir); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("tasks: %w", err)
	}
	s.live = make(map[uint64]*Task, len(loaded))
	for _, t := range loaded {
		s.live[t.ID] = t
	}
	if err := s.compact(); err != nil {
		return nil, nil, err
	}
	// A task file that will not go is a leftover the next open deletes.
	names, _ := legacyNames(dir)
	for _, name := range names {
		os.Remove(filepath.Join(dir, name))
	}
	return s, loaded, nil
}

// save appends one task's transition.
func (s *store) save(t *Task) error { return s.append(kindSave, t.ID, t) }

// remove appends a task's removal.
func (s *store) remove(id uint64) error { return s.append(kindRemove, id, nil) }

// append writes one record with a single write(). A failed or short write
// is cut back to the last good end, so the next record follows valid
// bytes; if the cut fails too, the store refuses every later write.
func (s *store) append(kind byte, id uint64, t *Task) error {
	if s.disabled {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	s.buf.Reset()
	if err := appendRecord(&s.buf, kind, id, t); err != nil {
		return err
	}
	n, err := s.f.Write(s.buf.Bytes())
	if err != nil {
		if terr := s.f.Truncate(s.end); terr != nil {
			s.err = fmt.Errorf("tasks: journal refuses writes: an append failed (%v) and could not be cut back: %w", err, terr)
		}
		return fmt.Errorf("tasks: journal append for task %d: %w", id, err)
	}
	s.end += int64(n)
	if _, had := s.live[id]; had {
		s.dead++ // the record this one supersedes
	}
	if kind == kindRemove {
		s.dead++ // a remove is dead the moment it is written
		delete(s.live, id)
	} else {
		s.live[id] = t
	}
	return nil
}

// compactIfDue compacts once the dead records reach max(compactFloor,
// live tasks).
func (s *store) compactIfDue() error {
	if s.disabled || s.err != nil || s.dead < max(compactFloor, len(s.live)) {
		return nil
	}
	return s.compact()
}

// compact rewrites the journal as its snapshot and reopens it for
// appending.
func (s *store) compact() error {
	var size int64
	err := checkpoint.Replace(s.path, func(w io.Writer) (err error) {
		size, err = s.writeSnapshot(w)
		return err
	})
	if err != nil {
		return fmt.Errorf("tasks: compact journal: %w", err)
	}
	// The rename left any open handle on the old journal; appends go to
	// the new one.
	if s.f != nil {
		s.f.Close()
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.err = fmt.Errorf("tasks: journal refuses writes: reopen after compaction: %w", err)
		return s.err
	}
	s.f, s.end, s.dead = f, size, 0
	return nil
}

// writeSnapshot writes the journal image compaction leaves — the header,
// then one record per live task in id order — and returns its length.
func (s *store) writeSnapshot(w io.Writer) (int64, error) {
	ids := make([]uint64, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	size := int64(len(journalHeader))
	if _, err := w.Write(journalHeader[:]); err != nil {
		return 0, err
	}
	for _, id := range ids {
		s.buf.Reset()
		if err := appendRecord(&s.buf, kindSave, id, s.live[id]); err != nil {
			return 0, err
		}
		if _, err := w.Write(s.buf.Bytes()); err != nil {
			return 0, err
		}
		size += int64(s.buf.Len())
	}
	return size, nil
}

// appendRecord appends one encoded record to buf.
func appendRecord(buf *bytes.Buffer, kind byte, id uint64, t *Task) error {
	start := buf.Len()
	var key [recordHead + recordKey]byte
	key[recordHead] = kind
	binary.BigEndian.PutUint64(key[recordHead+1:], id)
	buf.Write(key[:])
	if t != nil {
		if err := json.NewEncoder(buf).Encode(t); err != nil {
			buf.Truncate(start)
			return fmt.Errorf("tasks: marshal task %d: %w", id, err)
		}
	}
	rec := buf.Bytes()[start:]
	binary.BigEndian.PutUint32(rec, uint32(len(rec)-recordHead))
	binary.BigEndian.PutUint32(rec[4:], crc32.Checksum(rec[recordHead:], castagnoli))
	return nil
}

// replay decodes a journal image: its header, then records up to the first
// that is torn, fails its CRC or does not decode. It returns the live
// tasks in id order and the length of the valid prefix they came from. A
// missing, foreign or future header is an error, not an empty journal: the
// store would otherwise compact someone else's file away.
func replay(b []byte) ([]*Task, int, error) {
	if len(b) < len(journalHeader) || [8]byte(b[:8]) != [8]byte(journalHeader[:8]) {
		return nil, 0, fmt.Errorf("tasks: %s is not a task journal", journalName)
	}
	if v := b[8]; v != journalHeader[8] {
		return nil, 0, fmt.Errorf("tasks: task journal version %d, speak %d", v, journalHeader[8])
	}
	live := make(map[uint64]*Task)
	end := len(journalHeader)
	for {
		kind, id, t, n := decodeRecord(b[end:])
		if n == 0 {
			break
		}
		if kind == kindRemove {
			delete(live, id)
		} else {
			live[id] = t
		}
		end += n
	}
	out := make([]*Task, 0, len(live))
	for _, t := range live {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, end, nil
}

// decodeRecord parses the record at the front of b: its kind, task id,
// task (nil for a remove) and length. n == 0 means no whole, valid record
// starts there.
func decodeRecord(b []byte) (kind byte, id uint64, t *Task, n int) {
	if len(b) < recordHead+recordKey {
		return 0, 0, nil, 0
	}
	size := binary.BigEndian.Uint32(b)
	if size < recordKey || uint64(size) > uint64(len(b)-recordHead) {
		return 0, 0, nil, 0
	}
	body := b[recordHead : recordHead+int(size)]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(b[4:]) {
		return 0, 0, nil, 0
	}
	kind, id = body[0], binary.BigEndian.Uint64(body[1:])
	switch kind {
	case kindRemove:
		if len(body) != recordKey {
			return 0, 0, nil, 0
		}
	case kindSave:
		t = new(Task)
		if json.Unmarshal(body[recordKey:], t) != nil || t.ID != id || !knownState(t.State) {
			return 0, 0, nil, 0
		}
	default:
		return 0, 0, nil, 0
	}
	return kind, id, t, recordHead + int(size)
}

func knownState(s State) bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// The one-file-per-task layout earlier builds wrote, read once to migrate
// it: each task in a checkpoint framed container under legacyMagic, named
// by id, its body a version byte plus the task's JSON.
var legacyMagic = [8]byte{'F', 'O', 'B', 'S', 'T', 'A', 'S', 'K'}

// legacyVersion is the task body revision of that layout.
const legacyVersion uint8 = 1

// legacyPrefix opens every file name of that layout.
const legacyPrefix = "fobs-task-"

// legacyFile returns that layout's path for a task id under dir.
func legacyFile(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf(legacyPrefix+"%016x", id))
}

// legacyNames lists the files of that layout under dir, crash leftovers
// and near-miss names included.
func legacyNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tasks: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), legacyPrefix) {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// loadTask reads and validates one task file of the earlier layout.
func loadTask(path string) (*Task, error) {
	body, err := checkpoint.ReadFramed(path, legacyMagic)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 {
		return nil, checkpoint.ErrCorrupt
	}
	if body[0] != legacyVersion {
		return nil, fmt.Errorf("tasks: task version %d, speak %d", body[0], legacyVersion)
	}
	var t Task
	if err := json.Unmarshal(body[1:], &t); err != nil {
		return nil, fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
	}
	if !knownState(t.State) {
		return nil, checkpoint.ErrCorrupt
	}
	return &t, nil
}

// loadLegacy reads every valid task file of the earlier layout, as that
// layout's own loader did: only a file under the exact canonical name
// counts — a *.tmp sibling is a rename that never happened, and a
// near-miss name is not a task — and corrupt or foreign files are skipped.
func loadLegacy(dir string) ([]*Task, error) {
	names, err := legacyNames(dir)
	if err != nil {
		return nil, err
	}
	var out []*Task
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(name, legacyPrefix+"%016x", &id); err != nil {
			continue
		}
		// Sscanf matches prefixes; only the exact canonical name counts.
		if filepath.Join(dir, name) != legacyFile(dir, id) {
			continue
		}
		if t, err := loadTask(filepath.Join(dir, name)); err == nil && t.ID == id {
			out = append(out, t)
		}
	}
	return out, nil
}
