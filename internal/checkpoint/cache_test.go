package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// cacheState builds a completed-object cache entry with a genuine digest.
func cacheState(fill byte) *State {
	obj := make([]byte, 2048)
	for i := range obj {
		obj[i] = fill + byte(i*13)
	}
	return &State{
		Transfer:   9,
		ObjectSize: uint64(len(obj)),
		PacketSize: 512,
		Received:   4,
		Words:      []uint64{0b1111},
		Object:     obj,
		Content:    sha256.Sum256(obj),
		HasContent: true,
	}
}

func TestContentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := cacheState(1)
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(File(dir, st.Transfer))
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasContent || got.Content != st.Content {
		t.Fatalf("content digest changed: %x vs %x", got.Content, st.Content)
	}
	if !bytes.Equal(got.Object, st.Object) {
		t.Fatal("object bytes changed")
	}
	// The content trailer must not leak into the object slice.
	if uint64(len(got.Object)) != st.ObjectSize {
		t.Fatalf("object is %d bytes, want %d", len(got.Object), st.ObjectSize)
	}
}

// TestContentTrailerIsLengthChecked: a build that never learned flags bit 1
// validates the body length without the 32-byte trailer, so it rejects the
// new format as ErrCorrupt (clean skip) instead of misreading the digest as
// object bytes. Simulate the converse here: strip the flag but keep the
// trailer, which reproduces exactly what the old validator would see.
func TestContentTrailerIsLengthChecked(t *testing.T) {
	dir := t.TempDir()
	st := cacheState(2)
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	path := File(dir, st.Transfer)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[9] &^= 2 // clear has-content; the 32 trailer bytes are now unexplained
	if err := os.WriteFile(path, restamp(b), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unexplained trailer: err=%v, want ErrCorrupt", err)
	}
}

func TestSaveCacheLoadCacheDir(t *testing.T) {
	dir := t.TempDir()
	a, b := cacheState(3), cacheState(4)
	for _, st := range []*State{a, b} {
		if err := SaveCache(dir, st); err != nil {
			t.Fatal(err)
		}
	}
	got, err := loadCacheAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("LoadCacheDir found %d entries, want 2", len(got))
	}
	found := map[[32]byte]bool{}
	for _, st := range got {
		found[st.Content] = true
		if !bytes.Equal(st.Object, cacheState(0).Object) && len(st.Object) != 2048 {
			t.Fatal("cache entry object mangled")
		}
	}
	if !found[a.Content] || !found[b.Content] {
		t.Fatal("a saved entry is missing from the load")
	}
	RemoveCache(dir, a.Content)
	got, err = loadCacheAll(dir)
	if err != nil || len(got) != 1 || got[0].Content != b.Content {
		t.Fatalf("after RemoveCache: %d entries, err=%v", len(got), err)
	}
}

// TestLoadDirSkipsJunk: the directory loader offers the entries it can read
// and passes over its junk neighbours — a foreign file, a directory, a
// corrupt cache entry and one whose bytes are not the content its name says.
func TestLoadDirSkipsJunk(t *testing.T) {
	dir := t.TempDir()
	a, b := cacheState(3), cacheState(4)
	for _, st := range []*State{a, b} {
		if err := SaveCache(dir, st); err != nil {
			t.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644)
	os.Mkdir(filepath.Join(dir, "sub"), 0o755)
	os.WriteFile(filepath.Join(dir, "fobs-cache-0000000000000009"), []byte("FOBSCKPTgarbage"), 0o644)
	var other [32]byte
	other[0] = 0xEE
	os.WriteFile(CacheFile(dir, other), mustEncodeFramed(t, a), 0o644)

	got, err := loadCacheAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("LoadCacheDir found %d entries, want 2", len(got))
	}
	for _, st := range got {
		if st.Content != a.Content && st.Content != b.Content {
			t.Fatal("LoadCacheDir offered an entry that was not saved")
		}
	}
}

// loadCacheAll admits every entry LoadCacheDir offers, in the order offered.
func loadCacheAll(dir string) ([]*State, error) {
	var out []*State
	err := LoadCacheDir(dir, roomForAll, func(st *State) bool {
		out = append(out, st)
		return true
	})
	return out, err
}

// roomForAll is a room callback with room for every file.
func roomForAll(*State) bool { return true }

// TestLoadCacheDirOldestFirstAndRemovesRefused: entries are offered one at a
// time in the order they were saved (modification time, not directory
// order), and one the caller turns down loses its file — while junk the
// loader itself skipped is left where it is.
func TestLoadCacheDirOldestFirstAndRemovesRefused(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	var saved []*State
	// Saved in an order that is neither the digests' nor the names'.
	for i, fill := range []byte{40, 10, 30, 20, 50} {
		st := cacheState(fill)
		if err := SaveCache(dir, st); err != nil {
			t.Fatal(err)
		}
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(CacheFile(dir, st.Content), at, at); err != nil {
			t.Fatal(err)
		}
		saved = append(saved, st)
	}
	junk := filepath.Join(dir, "fobs-cache-0000000000000009")
	os.WriteFile(junk, []byte("FOBSCKPTgarbage"), 0o644)

	var offered [][32]byte
	if err := LoadCacheDir(dir, roomForAll, func(st *State) bool {
		offered = append(offered, st.Content)
		return len(offered)%2 == 1 // keep the 1st, 3rd and 5th
	}); err != nil {
		t.Fatal(err)
	}
	if len(offered) != len(saved) {
		t.Fatalf("offered %d entries, want %d", len(offered), len(saved))
	}
	for i, st := range saved {
		if offered[i] != st.Content {
			t.Fatalf("entry %d offered out of save order", i)
		}
		_, err := os.Stat(CacheFile(dir, st.Content))
		if kept := i%2 == 0; kept != (err == nil) {
			t.Fatalf("entry %d: kept=%v, file present=%v", i, kept, err == nil)
		}
	}
	if _, err := os.Stat(junk); err != nil {
		t.Fatalf("a file the loader skipped was removed: %v", err)
	}
}

// TestLoadCacheDirRoomNewestFirst: room sees each file's header, newest
// first and before any object is read, and a file it has no room for is
// removed without being offered; admit then sees the rest oldest first.
func TestLoadCacheDirRoomNewestFirst(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	var saved []*State
	for i := range 4 {
		st := cacheState(byte(60 + i))
		st.Received = uint32(i)
		if err := SaveCache(dir, st); err != nil {
			t.Fatal(err)
		}
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(CacheFile(dir, st.Content), at, at); err != nil {
			t.Fatal(err)
		}
		saved = append(saved, st)
	}
	var sized []uint32
	var admitted [][32]byte
	err := LoadCacheDir(dir, func(head *State) bool {
		if head.Object != nil || head.Words != nil {
			t.Error("room was handed more than the header")
		}
		sized = append(sized, head.Received)
		return len(sized) <= 2 // room for the two newest
	}, func(st *State) bool {
		admitted = append(admitted, st.Content)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sized, []uint32{3, 2, 1, 0}) {
		t.Fatalf("room saw the headers in the order %v, want newest first", sized)
	}
	if !slices.Equal(admitted, [][32]byte{saved[2].Content, saved[3].Content}) {
		t.Fatal("admit was not offered the two newest, oldest first")
	}
	for i, st := range saved {
		if _, err := os.Stat(CacheFile(dir, st.Content)); (err == nil) != (i >= 2) {
			t.Fatalf("file %d: present=%v, want %v", i, err == nil, i >= 2)
		}
	}
}

func TestSaveCacheRequiresContent(t *testing.T) {
	st := cacheState(5)
	st.HasContent = false
	if err := SaveCache(t.TempDir(), st); err == nil {
		t.Fatal("cache entry without content digest accepted")
	}
}

func TestLoadCacheDirMissingDirIsEmpty(t *testing.T) {
	got, err := loadCacheAll(filepath.Join(t.TempDir(), "never-created"))
	if err != nil || got != nil {
		t.Fatalf("missing dir: got %v, err=%v", got, err)
	}
}

// mustEncodeFramed produces the raw file bytes for st, for planting under
// a wrong filename.
func mustEncodeFramed(t *testing.T, st *State) []byte {
	t.Helper()
	tmp := t.TempDir()
	if err := SaveCache(tmp, st); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(CacheFile(tmp, st.Content))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
