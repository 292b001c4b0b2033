package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"os"
	"runtime"
	"testing"
)

// bigState is a retained transfer whose object is far larger than the
// writer's buffer, with every optional part present.
func bigState(size int) *State {
	obj := make([]byte, size)
	for i := range obj {
		obj[i] = byte(i*31 + i>>13)
	}
	words := make([]uint64, size/1024/64)
	for i := range words {
		words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return &State{
		Transfer:   7,
		ObjectSize: uint64(size),
		PacketSize: 1024,
		Received:   uint32(size / 2048),
		Words:      words,
		Object:     obj,
		Content:    sha256.Sum256(obj),
		HasContent: true,
	}
}

// totalAlloc is the heap bytes allocated so far, for before/after deltas.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestSaveStreamsTheObject: Save hands the object to the file as it is — no
// encoded copy, no framed copy — so persisting 16 MiB allocates a header
// and a write buffer, and what it wrote still loads back equal.
func TestSaveStreamsTheObject(t *testing.T) {
	dir := t.TempDir()
	st := bigState(16 << 20)
	before := totalAlloc()
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	if grew := totalAlloc() - before; grew >= 1<<20 {
		t.Fatalf("Save of a 16 MiB state allocated %d KiB, want < 1 MiB: the object was copied", grew>>10)
	}
	got, err := Load(File(dir, st.Transfer))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Object, st.Object) || got.Content != st.Content ||
		len(got.Words) != len(st.Words) || got.Words[len(got.Words)-1] != st.Words[len(st.Words)-1] {
		t.Fatal("a streamed checkpoint did not load back equal")
	}
}

// TestSaveCacheStreamsRoundTrip takes a cache entry larger than the write
// buffer — header, pass-through object, content trailer — through SaveCache
// and LoadCacheDir.
func TestSaveCacheStreamsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := bigState(1 << 20)
	if err := SaveCache(dir, st); err != nil {
		t.Fatal(err)
	}
	got, err := loadCacheAll(dir)
	if err != nil || len(got) != 1 {
		t.Fatalf("LoadCacheDir: %d entries, err=%v, want 1", len(got), err)
	}
	if got[0].Content != st.Content || !bytes.Equal(got[0].Object, st.Object) ||
		sha256.Sum256(got[0].Object) != st.Content {
		t.Fatal("a streamed cache entry did not load back equal")
	}
}

// TestWriteFramedFailureMidwayLeavesNothing: a write that fails after the
// temporary file was created and partly written (a full device, here
// /dev/full behind the temporary's name) removes the temporary and leaves
// the file it would have replaced exactly as it was.
func TestWriteFramedFailureMidwayLeavesNothing(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write with")
	}
	dir := t.TempDir()
	prev := sampleState()
	if err := Save(dir, prev); err != nil {
		t.Fatal(err)
	}
	path := File(dir, prev.Transfer)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Skipf("cannot plant a failing temporary: %v", err)
	}
	next := bigState(1 << 20)
	next.Transfer = prev.Transfer
	if err := Save(dir, next); err == nil {
		t.Fatal("a write to a full device succeeded")
	}
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary left behind after a failed write: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the previous checkpoint changed under a failed write (err=%v)", err)
	}
}
