package xfer

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/udprt"
)

// makeTree writes a small directory tree and returns its root.
func makeTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	files := map[string]int{
		"checkpoint.h5":        300 << 10,
		"meshes/coarse.vtk":    120 << 10,
		"meshes/fine.vtk":      250 << 10,
		"results/run01/out.nc": 64 << 10,
		"README":               137,
		"empty.marker":         0,
	}
	for path, size := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		rng.Read(data)
		if err := os.WriteFile(full, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// sameTree compares two directory trees byte for byte.
func sameTree(t *testing.T, a, b string) {
	t.Helper()
	ma, err := BuildManifest(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := BuildManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ma.Files) != len(mb.Files) {
		t.Fatalf("tree sizes differ: %d vs %d files", len(ma.Files), len(mb.Files))
	}
	for i := range ma.Files {
		fa, fb := ma.Files[i], mb.Files[i]
		if fa.Path != fb.Path || fa.Size != fb.Size || fa.CRC != fb.CRC {
			t.Fatalf("file %d differs: %+v vs %+v", i, fa, fb)
		}
		da, _ := os.ReadFile(filepath.Join(a, filepath.FromSlash(fa.Path)))
		db, _ := os.ReadFile(filepath.Join(b, filepath.FromSlash(fb.Path)))
		if !bytes.Equal(da, db) {
			t.Fatalf("contents of %s differ", fa.Path)
		}
	}
}

func TestTreeTransferRoundTrip(t *testing.T) {
	src := makeTree(t)
	dst := t.TempDir()

	l, err := udprt.Listen("127.0.0.1:0", udprt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	type recvResult struct {
		sum Summary
		err error
	}
	done := make(chan recvResult, 1)
	go func() {
		sum, err := ReceiveTree(ctx, l, dst)
		done <- recvResult{sum, err}
	}()

	sendSum, err := SendTree(ctx, l.Addr(), src, core.Config{AckFrequency: 32}, udprt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if sendSum.Files != 6 || r.sum.Files != 6 {
		t.Fatalf("files: sent %d, received %d, want 6", sendSum.Files, r.sum.Files)
	}
	if sendSum.Bytes != r.sum.Bytes {
		t.Fatalf("bytes: sent %d, received %d", sendSum.Bytes, r.sum.Bytes)
	}
	sameTree(t, src, dst)
	// No partial files left behind.
	filepath.Walk(dst, func(path string, info os.FileInfo, err error) error {
		if err == nil && filepath.Ext(path) == ".fobs-partial" {
			t.Errorf("staging file left behind: %s", path)
		}
		return nil
	})
}

// TestReceiveTreeTimesFromTheAnnouncement: a tree receiver that listens
// long before its sender dials reports the tree's own time, from the
// manifest's announcement on, not the wait in front of it.
func TestReceiveTreeTimesFromTheAnnouncement(t *testing.T) {
	const wait = 300 * time.Millisecond
	l, err := udprt.Listen("127.0.0.1:0", udprt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan Summary, 1)
	go func() {
		sum, err := ReceiveTree(ctx, l, t.TempDir())
		if err != nil {
			t.Error(err)
		}
		done <- sum
	}()
	time.Sleep(wait) // scenario: the receiver listens before the sender dials
	if _, err := SendTree(ctx, l.Addr(), makeTree(t), core.Config{}, udprt.Options{}); err != nil {
		t.Fatal(err)
	}
	if sum := <-done; sum.Elapsed <= 0 || sum.Elapsed >= wait {
		t.Fatalf("the receiver reported %v for a tree it waited %v to start", sum.Elapsed, wait)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{Files: []FileEntry{
		{Path: "a/b.txt", Size: 123, Mode: 0o640, CRC: 0xDEADBEEF},
		{Path: "z", Size: 0, Mode: 0o755, CRC: 0},
	}}
	got, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Files) != 2 || got.Files[0] != m.Files[0] || got.Files[1] != m.Files[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.TotalBytes() != 123 {
		t.Fatalf("TotalBytes = %d", got.TotalBytes())
	}
}

func TestManifestRoundTripProperty(t *testing.T) {
	f := func(names []string, sizes []uint32) bool {
		var m Manifest
		for i, n := range names {
			if n == "" || len(n) > 200 {
				continue
			}
			// Sanitize into a safe relative path. Backslashes survive
			// filepath.Base on non-Windows hosts but validateRelPath
			// rejects them, so strip them here.
			safe := "f" + filepath.ToSlash(filepath.Clean(filepath.Base(strings.ReplaceAll(n, `\`, "_"))))
			if safe == "f." || safe == "f.." {
				continue
			}
			size := int64(0)
			if i < len(sizes) {
				size = int64(sizes[i])
			}
			m.Files = append(m.Files, FileEntry{Path: safe, Size: size, Mode: 0o644, CRC: uint32(i)})
		}
		got, err := DecodeManifest(m.Encode())
		if err != nil {
			return false
		}
		if len(got.Files) != len(m.Files) {
			return false
		}
		for i := range m.Files {
			if got.Files[i] != m.Files[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeManifestRejectsMalformed(t *testing.T) {
	good := Manifest{Files: []FileEntry{{Path: "ok", Size: 1, Mode: 0o644}}}.Encode()
	withMode := func(mode fs.FileMode) []byte {
		return Manifest{Files: []FileEntry{{Path: "ok", Size: 1, Mode: mode}}}.Encode()
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:5],
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte{}, good...), 0xFF),
		"setuid":    withMode(0o755 | fs.ModeSetuid),
		"directory": withMode(fs.ModeDir | 0o644),
	}
	for name, b := range cases {
		if _, err := DecodeManifest(b); err == nil {
			t.Errorf("%s manifest accepted", name)
		}
	}
}

func TestDecodeManifestRejectsUnsafePaths(t *testing.T) {
	for _, p := range []string{"/etc/passwd", "../escape", "a/../../b", "..", "", "a\\b"} {
		m := Manifest{Files: []FileEntry{{Path: p, Size: 1}}}
		if _, err := DecodeManifest(m.Encode()); err == nil {
			t.Errorf("unsafe path %q accepted", p)
		}
	}
}

func TestValidateRelPathAcceptsNormalPaths(t *testing.T) {
	for _, p := range []string{"a", "a/b/c.txt", "weird name with spaces", "dots.in.name"} {
		if err := validateRelPath(p); err != nil {
			t.Errorf("safe path %q rejected: %v", p, err)
		}
	}
}

func TestBuildManifestSortedAndComplete(t *testing.T) {
	root := makeTree(t)
	m, err := BuildManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 6 {
		t.Fatalf("manifest has %d files, want 6", len(m.Files))
	}
	for i := 1; i < len(m.Files); i++ {
		if m.Files[i-1].Path >= m.Files[i].Path {
			t.Fatalf("manifest not sorted: %q before %q", m.Files[i-1].Path, m.Files[i].Path)
		}
	}
}

func TestSendTreeEmptyDir(t *testing.T) {
	ctx := context.Background()
	if _, err := SendTree(ctx, "127.0.0.1:1", t.TempDir(), core.Config{}, udprt.Options{}); err == nil {
		t.Fatal("empty tree accepted")
	}
}

func TestSendTreeMissingRoot(t *testing.T) {
	ctx := context.Background()
	if _, err := SendTree(ctx, "127.0.0.1:1", "/does/not/exist", core.Config{}, udprt.Options{}); err == nil {
		t.Fatal("missing root accepted")
	}
}

func TestSummaryGoodput(t *testing.T) {
	s := Summary{Bytes: 1e6, Elapsed: time.Second}
	if s.Goodput() != 8e6 {
		t.Fatalf("Goodput = %v", s.Goodput())
	}
	if (Summary{}).Goodput() != 0 {
		t.Fatal("zero-duration goodput not 0")
	}
}

// TestSendTreeRefusesAFileChangedSinceItsManifest: the manifest decides what
// the receiver waits for, so a file emptied after the manifest was built
// fails the send with ErrFileChanged — it is not skipped as an empty file
// while the receiver waits for its bytes.
func TestSendTreeRefusesAFileChangedSinceItsManifest(t *testing.T) {
	refusesChangedFile(t, func(path string) error { return os.Truncate(path, 0) })
}

// TestSendTreeRefusesAFileEditedInPlace: a same-length edit made after the
// manifest was built fails the send with ErrFileChanged on the sender's own
// checksum, before the receiver is sent bytes its manifest CRC must refuse.
func TestSendTreeRefusesAFileEditedInPlace(t *testing.T) {
	refusesChangedFile(t, func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0x5a
		return os.WriteFile(path, data, 0o644)
	})
}

// refusesChangedFile builds a tree's manifest, applies change to its README,
// and requires the send to fail with ErrFileChanged and the receiver not to
// complete.
func refusesChangedFile(t *testing.T, change func(path string) error) {
	t.Helper()
	src := makeTree(t)
	l, err := udprt.Listen("127.0.0.1:0", udprt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	received := make(chan error, 1)
	go func() {
		_, err := ReceiveTree(ctx, l, t.TempDir())
		received <- err
	}()

	manifest, err := BuildManifest(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := change(filepath.Join(src, "README")); err != nil {
		t.Fatal(err)
	}
	if _, err := sendTree(ctx, l.Addr(), src, manifest, core.Config{}, udprt.Options{}); !errors.Is(err, ErrFileChanged) {
		t.Fatalf("send of a tree with a file changed since its manifest: err = %v, want ErrFileChanged", err)
	}
	if err := <-received; err == nil {
		t.Fatal("the receiver completed a tree whose file never came")
	}
}
