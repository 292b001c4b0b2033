package tasks

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/checkpoint"
)

func sampleTask(id uint64) *Task {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return &Task{
		ID:       id,
		Spec:     Spec{Tenant: "acme", Addr: "127.0.0.1:7700", Path: "/tmp/obj", PacketSize: 1024},
		State:    StateQueued,
		Transfer: uint32(id),
		Attempts: 1,
		Created:  now,
		Updated:  now,
	}
}

// openT opens the store under dir.
func openT(t testing.TB, dir string) (*store, []*Task) {
	t.Helper()
	st, loaded, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, loaded
}

// journalTasks replays the journal under dir without writing to it: the
// durable state a restart would load, read beside a daemon still running.
func journalTasks(t testing.TB, dir string) []*Task {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := replay(b)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// ids lists the tasks' ids in order.
func ids(ts []*Task) []uint64 {
	out := []uint64{}
	for _, t := range ts {
		out = append(out, t.ID)
	}
	return out
}

func sameIDs(got []*Task, want ...uint64) bool {
	g := ids(got)
	if len(g) != len(want) {
		return false
	}
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

// record encodes one journal record.
func record(t testing.TB, kind byte, task *Task) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := appendRecord(&buf, kind, task.ID, task); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appendRaw appends bytes to the journal under dir, bypassing the store.
func appendRaw(t testing.TB, dir string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// writeLegacy writes a task file of the one-file-per-task layout earlier
// builds kept.
func writeLegacy(t testing.TB, dir string, task *Task) {
	t.Helper()
	js, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFramed(legacyFile(dir, task.ID), legacyMagic, []byte{legacyVersion}, js); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir)
	want := sampleTask(7)
	want.Stats = &Stats{PacketsNeeded: 10, PacketsSent: 12, Retransmits: 2, Restored: 3}
	want.note("queued", "", "")
	if err := st.save(want); err != nil {
		t.Fatal(err)
	}
	_, loaded := openT(t, dir)
	if len(loaded) != 1 {
		t.Fatalf("loaded %d tasks, want 1", len(loaded))
	}
	got := loaded[0]
	if got.ID != 7 || got.Spec != want.Spec || got.State != want.State ||
		got.Transfer != want.Transfer || got.Attempts != want.Attempts {
		t.Fatalf("task changed: %+v vs %+v", got, want)
	}
	if *got.Stats != *want.Stats {
		t.Fatalf("stats changed: %+v vs %+v", got.Stats, want.Stats)
	}
	if !got.Created.Equal(want.Created) || len(got.Events) != 1 || !got.Events[0].At.Equal(want.Events[0].At) {
		t.Fatalf("stamps changed: %+v vs %+v", got, want)
	}
}

// TestStoreReplaysDroppedVerifyField: specs once carried "verify", asking
// for per-stripe digests that the whole-object content identity made
// redundant. A journal record written with it still replays, the field
// ignored and the rest of the spec intact.
func TestStoreReplaysDroppedVerifyField(t *testing.T) {
	want := sampleTask(7)
	js, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	js = bytes.Replace(js, []byte(`"packet_size":1024`), []byte(`"packet_size":1024,"verify":true`), 1)
	if !bytes.Contains(js, []byte(`"verify":true`)) {
		t.Fatalf("no verify field spliced into %s", js)
	}
	rec := make([]byte, recordHead+recordKey, recordHead+recordKey+len(js))
	rec[recordHead] = kindSave
	binary.BigEndian.PutUint64(rec[recordHead+1:], want.ID)
	rec = append(rec, js...)
	binary.BigEndian.PutUint32(rec, uint32(len(rec)-recordHead))
	binary.BigEndian.PutUint32(rec[4:], crc32.Checksum(rec[recordHead:], castagnoli))
	loaded, n, err := replay(append(journalHeader[:], rec...))
	if err != nil || n != len(journalHeader)+len(rec) || len(loaded) != 1 {
		t.Fatalf("replay: %d tasks from %d bytes, err %v", len(loaded), n, err)
	}
	if got := loaded[0]; got.ID != want.ID || got.Spec != want.Spec || got.State != want.State {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
}

// TestStoreLastRecordWins replays saves, re-saves and removes in one
// journal: each task comes back as its last record left it, and a removed
// task does not come back.
func TestStoreLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir)
	for _, id := range []uint64{1, 2, 3} {
		if err := st.save(sampleTask(id)); err != nil {
			t.Fatal(err)
		}
	}
	done := sampleTask(2)
	done.State = StateDone
	if err := st.save(done); err != nil {
		t.Fatal(err)
	}
	if err := st.remove(3); err != nil {
		t.Fatal(err)
	}
	loaded := journalTasks(t, dir)
	if !sameIDs(loaded, 1, 2) || loaded[1].State != StateDone {
		t.Fatalf("replayed %v, want task 1 queued and task 2 done", loaded)
	}
	if st.dead != 3 {
		t.Fatalf("%d dead records, want 3 (a superseded save, a removed save, the remove)", st.dead)
	}
}

// TestStoreTornTailCutOff: a record torn by a crash mid-append ends the
// replay, the reopening store cuts it off, and a record appended after the
// cut survives the next load.
func TestStoreTornTailCutOff(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir)
	for _, id := range []uint64{1, 2} {
		if err := st.save(sampleTask(id)); err != nil {
			t.Fatal(err)
		}
	}
	rec := record(t, kindSave, sampleTask(3))
	appendRaw(t, dir, rec[:len(rec)/2])

	st2, loaded := openT(t, dir)
	if !sameIDs(loaded, 1, 2) {
		t.Fatalf("loaded %v past a torn record, want 1 2", ids(loaded))
	}
	if err := st2.save(sampleTask(4)); err != nil {
		t.Fatal(err)
	}
	if _, loaded := openT(t, dir); !sameIDs(loaded, 1, 2, 4) {
		t.Fatalf("after the cut and one more append: %v, want 1 2 4", ids(loaded))
	}
}

// TestStoreFlippedCRCStopsReplay: a record whose bytes no longer match its
// CRC ends the replay there; records after it are not trusted.
func TestStoreFlippedCRCStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir)
	for _, id := range []uint64{1, 2, 3} {
		if err := st.save(sampleTask(id)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, first := decodeRecord(b[len(journalHeader):])
	second := len(journalHeader) + first
	b[second+recordHead+recordKey+2]++ // a byte of task 2's JSON
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, end, err := replay(b)
	if err != nil || !sameIDs(loaded, 1) || end != second {
		t.Fatalf("replay = %v, end %d, err %v; want task 1 ending at %d", ids(loaded), end, err, second)
	}
	if _, loaded := openT(t, dir); !sameIDs(loaded, 1) {
		t.Fatalf("store loaded %v, want task 1", ids(loaded))
	}
}

// TestStoreLoadSkipsCorruptionAndJunk: files that are not the journal are
// none of the store's business, and a record that frames correctly but
// names an impossible state ends the replay like any corrupt record.
func TestStoreLoadSkipsCorruptionAndJunk(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir)
	for _, id := range []uint64{1, 2, 3} {
		if err := st.save(sampleTask(id)); err != nil {
			t.Fatal(err)
		}
	}
	junk := map[string]string{
		"notes.txt":                  "hi",
		"fobs-ckpt-0000000000000007": "FOBSCKPTwrong family",
		journalName + ".bak":         "FOBSJRNL\x01torn",
	}
	for name, body := range junk {
		os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
	}
	os.Mkdir(filepath.Join(dir, "sub"), 0o755)
	lying := sampleTask(8)
	lying.State = State("exploded")
	appendRaw(t, dir, record(t, kindSave, lying))
	appendRaw(t, dir, record(t, kindSave, sampleTask(9)))

	_, loaded := openT(t, dir)
	if !sameIDs(loaded, 1, 2, 3) {
		t.Fatalf("loaded %v, want the 3 valid tasks before the impossible one", ids(loaded))
	}
	for name, body := range junk {
		if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(b) != body {
			t.Fatalf("store touched %s: %q, %v", name, b, err)
		}
	}
}

// TestStoreRefusesForeignJournal: a journal file this build cannot read —
// another format under the name, or a future version — fails the open and
// is left as it was, never compacted away.
func TestStoreRefusesForeignJournal(t *testing.T) {
	for name, body := range map[string][]byte{
		"foreign": []byte("FOBSCKPTsomething else entirely"),
		"future":  append([]byte("FOBSJRNL\x02"), record(t, kindSave, sampleTask(1))...),
		"short":   []byte("FOBS"),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, journalName)
			os.WriteFile(path, body, 0o644)
			if _, _, err := openStore(dir); err == nil {
				t.Fatal("opened a journal it cannot read")
			}
			if b, _ := os.ReadFile(path); !bytes.Equal(b, body) {
				t.Fatal("the unreadable journal was rewritten")
			}
		})
	}
}

// TestStoreLoadSweepsTmpLeftoversAndExactNames migrates a directory of the
// earlier one-file-per-task layout as that layout's loader read it: only
// exact canonical names count — a *.tmp sibling is a rename that never
// happened, a near-miss name is not a task — and every file of the layout
// is gone once the journal holds the migration.
func TestStoreLoadSweepsTmpLeftoversAndExactNames(t *testing.T) {
	dir := t.TempDir()
	writeLegacy(t, dir, sampleTask(1))
	scratch := t.TempDir()
	undurable := sampleTask(1)
	undurable.State = StateRunning
	undurable.Attempts = 2
	writeLegacy(t, scratch, undurable)
	writeLegacy(t, scratch, sampleTask(9))
	for src, dst := range map[string]string{
		legacyFile(scratch, 1): legacyFile(dir, 1) + ".tmp",
		legacyFile(scratch, 9): legacyFile(dir, 9) + ".tmp",
	} {
		b, _ := os.ReadFile(src)
		os.WriteFile(dst, b, 0o644)
	}
	b, _ := os.ReadFile(legacyFile(dir, 1))
	os.WriteFile(legacyFile(dir, 1)+".bak", b, 0o644)

	_, loaded := openT(t, dir)
	if !sameIDs(loaded, 1) || loaded[0].State != StateQueued || loaded[0].Attempts != 1 {
		t.Fatalf("migrated %+v, want exactly the durable task 1", loaded)
	}
	if left, _ := legacyNames(dir); len(left) != 0 {
		t.Fatalf("task files survived the migration: %v", left)
	}
	if got := journalTasks(t, dir); !sameIDs(got, 1) {
		t.Fatalf("journal holds %v after the migration, want 1", ids(got))
	}
}

// TestStoreMigratesLegacyOnce: a directory of the earlier layout is read
// into the first snapshot once; task files found beside a journal later
// are leftovers of a migration killed before its cleanup, removed unread.
func TestStoreMigratesLegacyOnce(t *testing.T) {
	dir := t.TempDir()
	running := sampleTask(2)
	running.State = StateRunning
	writeLegacy(t, dir, sampleTask(1))
	writeLegacy(t, dir, running)
	os.WriteFile(legacyFile(dir, 3), []byte("FOBSTASKtorn"), 0o644)

	st, loaded := openT(t, dir)
	if !sameIDs(loaded, 1, 2) || loaded[1].State != StateRunning {
		t.Fatalf("migrated %+v, want task 1 and running task 2", loaded)
	}
	done := sampleTask(1)
	done.State = StateDone
	if err := st.save(done); err != nil {
		t.Fatal(err)
	}
	// The leftovers a killed cleanup would leave, and one the earlier
	// build never wrote: neither may be read.
	writeLegacy(t, dir, sampleTask(1))
	writeLegacy(t, dir, sampleTask(5))

	_, loaded = openT(t, dir)
	if !sameIDs(loaded, 1, 2) || loaded[0].State != StateDone {
		t.Fatalf("reopened %+v, want task 1 done and task 2, leftovers unread", loaded)
	}
	if left, _ := legacyNames(dir); len(left) != 0 {
		t.Fatalf("leftovers beside the journal survived: %v", left)
	}
}

func TestStoreLoadTaskTypedErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := loadTask(filepath.Join(dir, "absent")); err == nil || errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("missing file: err=%v, want a plain read error", err)
	}
	path := filepath.Join(dir, "bad")
	os.WriteFile(path, []byte("FOBSTASK"), 0o644)
	if _, err := loadTask(path); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("truncated container: err=%v, want ErrCorrupt", err)
	}
	// Future store version: framed container valid, body rejected.
	writeLegacy(t, dir, sampleTask(1))
	body, err := checkpoint.ReadFramed(legacyFile(dir, 1), legacyMagic)
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte{legacyVersion + 1}, body[1:]...)
	if err := checkpoint.WriteFramed(legacyFile(dir, 1), legacyMagic, future); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTask(legacyFile(dir, 1)); err == nil || errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("future version: err=%v, want a version error", err)
	}
}

func TestStoreDisabledFreezesDisk(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir)
	if err := st.save(sampleTask(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.disabled = true
	mutated := sampleTask(1)
	mutated.State = StateDone
	if err := st.save(mutated); err != nil {
		t.Fatal(err)
	}
	st.save(sampleTask(2))
	st.remove(1)
	st.dead = compactFloor // a compaction would be due
	if err := st.compactIfDue(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("journal vanished after simulated kill: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("journal changed after the store was disabled")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("files appeared after the store was disabled: %v", ents)
	}
}

// tornFile writes half of what it is given, then fails: a disk that filled
// mid-append.
type tornFile struct{ *os.File }

func (f tornFile) Write(b []byte) (int, error) {
	n, _ := f.File.Write(b[:len(b)/2])
	return n, errors.New("no space left on device")
}

// TestStoreAppendFailureCutsBack: a short append is cut back before the
// next one, so the bad write hides nothing appended after it; a store that
// cannot cut back refuses every later write rather than append after torn
// bytes.
func TestStoreAppendFailureCutsBack(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir)
	if err := st.save(sampleTask(1)); err != nil {
		t.Fatal(err)
	}
	good := st.f
	st.f = tornFile{good.(*os.File)}
	if err := st.save(sampleTask(2)); err == nil {
		t.Fatal("a torn append reported success")
	}
	st.f = good
	if err := st.save(sampleTask(3)); err != nil {
		t.Fatalf("the append after a cut-back failure: %v", err)
	}
	b, _ := os.ReadFile(filepath.Join(dir, journalName))
	if loaded, end, _ := replay(b); !sameIDs(loaded, 1, 3) || end != len(b) {
		t.Fatalf("journal replays %v over %d of %d bytes, want 1 3 over all of it", ids(loaded), end, len(b))
	}

	// A handle that can neither write nor truncate: the store refuses.
	ro, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	st.f = ro
	if err := st.save(sampleTask(4)); err == nil {
		t.Fatal("a failed append reported success")
	}
	st.f = good
	if err := st.save(sampleTask(5)); err == nil {
		t.Fatal("the store wrote after an append it could not cut back")
	}
	if _, loaded := openT(t, dir); !sameIDs(loaded, 1, 3) {
		t.Fatalf("reopened %v, want 1 3", ids(loaded))
	}
}

// TestStoreJournalBoundedUnderChurn runs the daemon's transitions under
// retention churn — tasks saved queued, running and done, then removed —
// beside a live set above the compaction floor, compacting when due as the
// daemon does. The journal must never exceed twice the live snapshot plus
// one record.
func TestStoreJournalBoundedUnderChurn(t *testing.T) {
	dir := t.TempDir()
	st, _ := openT(t, dir)
	var peak int64
	compactions := 0
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		peak = max(peak, st.end)
		if err := st.compactIfDue(); err != nil {
			t.Fatal(err)
		}
		if st.dead == 0 && st.end < peak {
			compactions++
		}
	}
	const live = 2 * compactFloor
	for id := uint64(1); id <= live; id++ {
		step(st.save(sampleTask(id)))
	}
	for id := uint64(live + 1); id <= 8*live; id++ {
		task := sampleTask(id)
		for _, state := range []State{StateQueued, StateRunning, StateDone} {
			task.State = state
			step(st.save(task))
		}
		step(st.remove(id))
	}
	if err := st.compact(); err != nil {
		t.Fatal(err)
	}
	snapshot := st.end
	oneRecord := int64(len(record(t, kindSave, sampleTask(8*live))))
	if peak > 2*snapshot+oneRecord {
		t.Fatalf("journal peaked at %d bytes, snapshot %d: more than twice the live set", peak, snapshot)
	}
	if compactions == 0 {
		t.Fatal("churn never compacted")
	}
	if got := journalTasks(t, dir); len(got) != live {
		t.Fatalf("%d tasks after churn, want the %d live ones", len(got), live)
	}
	t.Logf("peak %d bytes, snapshot %d, %d compactions over %d transitions", peak, snapshot, compactions, 7*live*4)
}

// FuzzReplayJournal feeds arbitrary record streams behind a valid header to
// the replay. It must never panic, must return only tasks from the valid
// prefix it reports (replaying that prefix alone gives the same tasks), and
// the snapshot compaction writes of those tasks must replay to the same
// tasks again. It runs in memory, like the checkpoint decoder's fuzz.
func FuzzReplayJournal(f *testing.F) {
	// Seeds are real record streams of small tasks: minimizing what the
	// fuzzer finds costs time in proportion to the input's length.
	var recs bytes.Buffer
	for _, task := range []*Task{
		{ID: 1, State: StateQueued},
		{ID: 2, State: StateRunning, Attempts: 1, Events: []TaskEvent{{Event: "dispatched", Attempt: 1}}},
		{ID: 1, State: StateDone, Stats: &Stats{PacketsNeeded: 4, Deduped: true}},
	} {
		if err := appendRecord(&recs, kindSave, task.ID, task); err != nil {
			f.Fatal(err)
		}
	}
	appendRecord(&recs, kindRemove, 2, nil)
	f.Add(recs.Bytes())
	f.Add(recs.Bytes()[:recs.Len()-5])
	f.Add([]byte{})

	encode := func(t *testing.T, ts []*Task) string {
		js, err := json.Marshal(ts)
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}
	f.Fuzz(func(t *testing.T, recs []byte) {
		if len(recs) > 1<<10 {
			// A longer stream only repeats what shorter ones reach, and
			// minimizing a long finding byte by byte takes minutes.
			return
		}
		b := append(append([]byte(nil), journalHeader[:]...), recs...)
		loaded, end, err := replay(b)
		if err != nil {
			t.Fatalf("valid header refused: %v", err)
		}
		if end < len(journalHeader) || end > len(b) {
			t.Fatalf("valid prefix %d outside the %d-byte image", end, len(b))
		}
		again, end2, err := replay(b[:end])
		if err != nil || end2 != end || encode(t, again) != encode(t, loaded) {
			t.Fatalf("the valid prefix alone replays differently (end %d vs %d, err %v)", end2, end, err)
		}
		snap := &store{live: make(map[uint64]*Task)}
		for _, task := range loaded {
			snap.live[task.ID] = task
		}
		var img bytes.Buffer
		size, err := snap.writeSnapshot(&img)
		if err != nil {
			t.Fatalf("replayed tasks do not compact: %v", err)
		}
		compacted, cend, err := replay(img.Bytes())
		if err != nil || cend != img.Len() || int64(cend) != size || encode(t, compacted) != encode(t, loaded) {
			t.Fatalf("compaction changed the tasks (end %d of %d, size %d, err %v)", cend, img.Len(), size, err)
		}
	})
}

// BenchmarkStorePersist measures one task transition made durable: a
// journal append, plus its share of the compactions it makes due, over the
// daemon's queued → running → done cycle.
func BenchmarkStorePersist(b *testing.B) {
	st, _ := openT(b, b.TempDir())
	var task *Task
	states := []State{StateQueued, StateRunning, StateDone}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%3 == 0 {
			task = sampleTask(uint64(i/3 + 1))
		}
		task.State = states[i%3]
		task.note(string(task.State), "", "")
		if err := st.save(task); err != nil {
			b.Fatal(err)
		}
		if err := st.compactIfDue(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/transition")
}
