package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func sampleState() *State {
	obj := make([]byte, 3000)
	for i := range obj {
		obj[i] = byte(i * 17)
	}
	return &State{
		Transfer:   42,
		ObjectSize: uint64(len(obj)),
		PacketSize: 1024,
		Received:   2,
		Words:      []uint64{0b101},
		Object:     obj,
		Content:    [32]byte{0xCA, 0xFE, 0xF0, 0x0D},
		HasContent: true,
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := sampleState()
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(File(dir, st.Transfer))
	if err != nil {
		t.Fatal(err)
	}
	if got.Transfer != st.Transfer || got.ObjectSize != st.ObjectSize ||
		got.PacketSize != st.PacketSize || got.Content != st.Content ||
		got.HasContent != st.HasContent || got.Received != st.Received {
		t.Fatalf("header changed: %+v vs %+v", got, st)
	}
	if len(got.Words) != len(st.Words) || got.Words[0] != st.Words[0] {
		t.Fatalf("bitmap changed: %v vs %v", got.Words, st.Words)
	}
	if !bytes.Equal(got.Object, st.Object) {
		t.Fatal("object bytes changed")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st := sampleState()
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	path := File(dir, st.Transfer)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A flipped bit anywhere in the body must fail the checksum; a
	// truncation must fail structurally. Either way the verdict is the
	// typed ErrCorrupt — the value resume stores key their "skip, never
	// resume" decision on — and no panic, whatever the mangling.
	for _, mutate := range []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"version byte flipped", func(b []byte) []byte { b[9]++; return b }},
		{"object byte flipped", func(b []byte) []byte { b[100] ^= 0x40; return b }},
		{"checksum flipped", func(b []byte) []byte { b[len(b)-1]++; return b }},
		{"torn write", func(b []byte) []byte { return b[:len(b)/2] }},
		{"wrong magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"header gone", func(b []byte) []byte { return b[:8] }},
		{"empty file", func(b []byte) []byte { return nil }},
		{"magic only then junk", func(b []byte) []byte { return append(b[:8:8], 'j', 'u', 'n', 'k') }},
		{"body swapped for noise", func(b []byte) []byte {
			for i := 8; i < len(b)-4; i++ {
				b[i] = byte(i * 31)
			}
			return b
		}},
	} {
		bad := mutate.fn(append([]byte(nil), good...))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s (len %d): err=%v, want ErrCorrupt", mutate.name, len(bad), err)
		}
	}
}

// TestLoadRejectsLyingHeader restamps the checksum after header edits the
// container cannot catch, so only Load's structural validation stands
// between a self-consistent-but-lying file and a bogus resume.
func TestLoadRejectsLyingHeader(t *testing.T) {
	dir := t.TempDir()
	st := sampleState()
	for _, lie := range []struct {
		name string
		fn   func(b []byte)
	}{
		{"object size inflated", func(b []byte) { binary.BigEndian.PutUint32(b[8+6+4:], 1<<30) }},
		{"packet size zeroed", func(b []byte) { binary.BigEndian.PutUint32(b[8+14:], 0) }},
		{"word count inflated", func(b []byte) { binary.BigEndian.PutUint32(b[8+22:], 1<<20) }},
		{"sizes that wrap to the file's length", func(b []byte) {
			// 8 MiB of words plus an object size that is their negation
			// plus what the file really holds: the sum wraps to its length.
			words := uint64(1 << 20)
			binary.BigEndian.PutUint32(b[8+22:], uint32(words))
			binary.BigEndian.PutUint64(b[8+6:], uint64(8+3000)-8*words)
		}},
	} {
		if err := Save(dir, st); err != nil {
			t.Fatal(err)
		}
		path := File(dir, st.Transfer)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lie.fn(b)
		if err := os.WriteFile(path, restamp(b), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err=%v, want ErrCorrupt", lie.name, err)
		}
	}
}

// TestSaveGoldenBytes pins the version-2 on-disk layout to the byte: the
// framed-container split must never change what Save writes, or checkpoints
// would stop round-tripping across builds of one version.
func TestSaveGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	st := &State{
		Transfer:   0x01020304,
		ObjectSize: 4,
		PacketSize: 2,
		Received:   2,
		Words:      []uint64{0x5},
		Object:     []byte{0xDE, 0xAD, 0xBE, 0xEF},
		Content:    [32]byte{0xAA, 0xBB, 0xCC, 0xDD},
		HasContent: true,
	}
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(File(dir, st.Transfer))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		'F', 'O', 'B', 'S', 'C', 'K', 'P', 'T', // magic
		0x02, 0x02, // version, flags (has-content)
		0x01, 0x02, 0x03, 0x04, // transfer
		0, 0, 0, 0, 0, 0, 0, 0x04, // object size
		0, 0, 0, 0x02, // packet size
		0, 0, 0, 0x02, // received
		0, 0, 0, 0x01, // word count
		0, 0, 0, 0, 0, 0, 0, 0x05, // bitmap word
		0xDE, 0xAD, 0xBE, 0xEF, // object
		0xAA, 0xBB, 0xCC, 0xDD, // content identity, 32 bytes
	}
	want = append(want, make([]byte, 28)...)
	want = append(want, 0, 0, 0, 0)
	restamp(want)
	if !bytes.Equal(got, want) {
		t.Fatalf("layout drifted:\n got %x\nwant %x", got, want)
	}
}

// TestFramedRoundTrip covers the shared container directly with a foreign
// magic — the contract the task store builds on.
func TestFramedRoundTrip(t *testing.T) {
	magic := [8]byte{'F', 'O', 'B', 'S', 'T', 'E', 'S', 'T'}
	path := filepath.Join(t.TempDir(), "framed")
	body := []byte("opaque payload \x00\xff bytes")
	if err := WriteFramed(path, magic, body); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFramed(path, magic)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body changed: %q vs %q", got, body)
	}
	if _, err := ReadFramed(path, fileMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign magic accepted: err=%v", err)
	}
	if _, err := ReadFramed(filepath.Join(t.TempDir(), "absent"), magic); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: err=%v, want a plain read error, not ErrCorrupt", err)
	}
	// No stray temporary may survive a successful write.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	dir := t.TempDir()
	st := sampleState()
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(File(dir, st.Transfer))
	if err != nil {
		t.Fatal(err)
	}
	b[8] = Version + 1
	// Re-stamp the checksum so only the version check can reject.
	if err := os.WriteFile(File(dir, st.Transfer), restamp(b), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(File(dir, st.Transfer))
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version: err=%v, want a version error", err)
	}
}

// restamp recomputes the trailing CRC after a deliberate header edit.
func restamp(b []byte) []byte {
	sum := crc32.Checksum(b[8:len(b)-4], castagnoli)
	binary.BigEndian.PutUint32(b[len(b)-4:], sum)
	return b
}

// TestLoadCacheDirRemovesOldFiles: what nothing will ever read again is
// removed by the directory scan — a file an earlier format version wrote
// (refused as ErrOldVersion), one in an earlier build's transfer-id naming,
// and one that names no content — while a current one stays.
func TestLoadCacheDirRemovesOldFiles(t *testing.T) {
	dir := t.TempDir()
	st := sampleState()
	if err := SaveCache(dir, st); err != nil {
		t.Fatal(err)
	}
	oldFile := CacheFile(dir, st.Content)
	b, err := os.ReadFile(oldFile)
	if err != nil {
		t.Fatal(err)
	}
	b[8] = Version - 1
	if err := os.WriteFile(oldFile, restamp(b), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(oldFile); !errors.Is(err, ErrOldVersion) {
		t.Fatalf("old version: err=%v, want ErrOldVersion", err)
	}
	if err := Save(dir, st); err != nil { // transfer-named
		t.Fatal(err)
	}
	anonymous := sampleState()
	anonymous.Transfer, anonymous.HasContent = 43, false
	if err := Save(dir, anonymous); err != nil {
		t.Fatal(err)
	}
	var other [32]byte
	other[0] = 0xAB
	anonFile := CacheFile(dir, other)
	if err := os.Rename(File(dir, anonymous.Transfer), anonFile); err != nil {
		t.Fatal(err)
	}
	current := cacheState(7)
	if err := SaveCache(dir, current); err != nil {
		t.Fatal(err)
	}
	got, err := loadCacheAll(dir)
	if err != nil || len(got) != 1 || got[0].Content != current.Content {
		t.Fatalf("LoadCacheDir: %d states (err=%v), want just the current one", len(got), err)
	}
	for _, path := range []string{oldFile, File(dir, 42), anonFile} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s survived the scan: %v", filepath.Base(path), err)
		}
	}
}

func TestSaveRejectsSizeMismatch(t *testing.T) {
	st := sampleState()
	st.ObjectSize++
	if err := Save(t.TempDir(), st); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
