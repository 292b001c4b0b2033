// Package xfer moves files and directory trees over FOBS sessions: the
// gridftp-shaped application the paper's introduction motivates ("the
// ability to transfer vast quantities of data ... in a very efficient
// manner").
//
// A tree transfer is one udprt session: the first object is a manifest
// listing every file (path, size, mode, CRC-32C); each subsequent object
// is one file's contents, in manifest order. The receiver stages each file
// next to its destination and renames it into place only after its
// checksum verifies, so interrupted transfers never leave torn files.
package xfer

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/hpcnet/fobs/internal/core"
	"github.com/hpcnet/fobs/internal/udprt"
)

// FileEntry describes one file in a manifest.
type FileEntry struct {
	// Path is slash-separated and relative to the tree root.
	Path string
	Size int64
	Mode fs.FileMode
	// CRC is the CRC-32C of the file contents.
	CRC uint32
}

// Manifest lists a tree's files in transfer order.
type Manifest struct {
	Files []FileEntry
}

// TotalBytes sums the file sizes.
func (m Manifest) TotalBytes() int64 {
	var n int64
	for _, f := range m.Files {
		n += f.Size
	}
	return n
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// manifest wire format: count, then per file {pathLen, path, size, mode,
// crc}. Hand-rolled rather than gob so the format is stable and
// bounds-checked like the rest of the protocol.

// Encode serializes the manifest.
func (m Manifest) Encode() []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(m.Files)))
	for _, f := range m.Files {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.Path)))
		buf = append(buf, f.Path...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(f.Size))
		buf = binary.BigEndian.AppendUint32(buf, uint32(f.Mode))
		buf = binary.BigEndian.AppendUint32(buf, f.CRC)
	}
	return buf
}

// DecodeManifest parses an encoded manifest, rejecting malformed input.
func DecodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	if len(b) < 4 {
		return m, errors.New("xfer: manifest too short")
	}
	count := binary.BigEndian.Uint32(b)
	b = b[4:]
	if count > 1<<20 {
		return m, fmt.Errorf("xfer: implausible manifest of %d files", count)
	}
	for i := uint32(0); i < count; i++ {
		if len(b) < 2 {
			return m, errors.New("xfer: truncated manifest entry")
		}
		pl := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < pl+16 {
			return m, errors.New("xfer: truncated manifest entry")
		}
		f := FileEntry{Path: string(b[:pl])}
		b = b[pl:]
		f.Size = int64(binary.BigEndian.Uint64(b))
		f.Mode = fs.FileMode(binary.BigEndian.Uint32(b[8:]))
		f.CRC = binary.BigEndian.Uint32(b[12:])
		b = b[16:]
		if f.Size < 0 {
			return m, fmt.Errorf("xfer: negative size for %q", f.Path)
		}
		// Only permission bits: the receiver creates every file with the
		// mode it is sent, and setuid, setgid, sticky or a file type there
		// would be the sender's to choose. BuildManifest sends Perm() alone.
		if f.Mode&^fs.ModePerm != 0 {
			return m, fmt.Errorf("xfer: mode %v for %q is not permission bits", f.Mode, f.Path)
		}
		if err := validateRelPath(f.Path); err != nil {
			return m, err
		}
		m.Files = append(m.Files, f)
	}
	if len(b) != 0 {
		return m, errors.New("xfer: trailing bytes after manifest")
	}
	return m, nil
}

// validateRelPath rejects absolute paths and parent escapes so a hostile
// manifest cannot write outside the destination root.
func validateRelPath(p string) error {
	if p == "" {
		return errors.New("xfer: empty path in manifest")
	}
	if strings.Contains(p, "\\") || filepath.IsAbs(p) || strings.HasPrefix(p, "/") {
		return fmt.Errorf("xfer: unsafe path %q", p)
	}
	clean := filepath.ToSlash(filepath.Clean(p))
	if clean == ".." || strings.HasPrefix(clean, "../") || clean == "." {
		return fmt.Errorf("xfer: unsafe path %q", p)
	}
	return nil
}

// BuildManifest walks root and lists its regular files, sorted by path.
func BuildManifest(root string) (Manifest, error) {
	var m Manifest
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		m.Files = append(m.Files, FileEntry{
			Path: filepath.ToSlash(rel),
			Size: info.Size(),
			Mode: info.Mode().Perm(),
			CRC:  crc32.Checksum(data, castagnoli),
		})
		return nil
	})
	if err != nil {
		return Manifest{}, fmt.Errorf("xfer: walk %s: %w", root, err)
	}
	sort.Slice(m.Files, func(i, j int) bool { return m.Files[i].Path < m.Files[j].Path })
	return m, nil
}

// Summary reports one tree transfer.
type Summary struct {
	Files   int
	Bytes   int64
	Elapsed time.Duration
}

// Goodput returns delivered file bits per second.
func (s Summary) Goodput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Bytes*8) / s.Elapsed.Seconds()
}

// ErrFileChanged reports a file whose length or CRC-32C is no longer the one
// its manifest entry records, which is what the receiver waits for and
// verifies.
var ErrFileChanged = errors.New("xfer: file changed since the manifest was built")

// SendTree transfers every regular file under root to the xfer receiver at
// addr.
func SendTree(ctx context.Context, addr, root string, cfg core.Config, opts udprt.Options) (Summary, error) {
	start := time.Now()
	manifest, err := BuildManifest(root)
	if err != nil {
		return Summary{}, err
	}
	sum, err := sendTree(ctx, addr, root, manifest, cfg, opts)
	sum.Elapsed = time.Since(start)
	return sum, err
}

// sendTree sends manifest, then the files under root it lists, in its
// order. Which files travel is the manifest's decision, not the disk's: an
// empty entry is created from the manifest alone, and a file whose length or
// checksum is not its entry's fails the send with ErrFileChanged before any of
// its bytes go out.
func sendTree(ctx context.Context, addr, root string, manifest Manifest, cfg core.Config, opts udprt.Options) (Summary, error) {
	if len(manifest.Files) == 0 {
		return Summary{}, fmt.Errorf("xfer: no regular files under %s", root)
	}
	sess, err := udprt.OpenSession(ctx, addr, opts)
	if err != nil {
		return Summary{}, err
	}
	defer sess.Close()

	if _, err := sess.Send(ctx, manifest.Encode(), cfg); err != nil {
		return Summary{}, fmt.Errorf("xfer: send manifest: %w", err)
	}
	var bytes int64
	for _, f := range manifest.Files {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(f.Path)))
		if err != nil {
			return Summary{}, err
		}
		if int64(len(data)) != f.Size {
			return Summary{}, fmt.Errorf("xfer: send %s: %w: %d bytes, manifest says %d", f.Path, ErrFileChanged, len(data), f.Size)
		}
		if crc := crc32.Checksum(data, castagnoli); crc != f.CRC {
			return Summary{}, fmt.Errorf("xfer: send %s: %w: CRC-32C %08x, manifest says %08x", f.Path, ErrFileChanged, crc, f.CRC)
		}
		if f.Size == 0 {
			continue
		}
		if _, err := sess.Send(ctx, data, cfg); err != nil {
			return Summary{}, fmt.Errorf("xfer: send %s: %w", f.Path, err)
		}
		bytes += f.Size
	}
	return Summary{Files: len(manifest.Files), Bytes: bytes}, nil
}

// ReceiveTree accepts one tree transfer session and writes it under
// destRoot, creating directories as needed. Every file is verified against
// its manifest CRC before being renamed into place.
func ReceiveTree(ctx context.Context, l *udprt.Listener, destRoot string) (Summary, error) {
	is, err := l.AcceptSession(ctx)
	if err != nil {
		return Summary{}, err
	}
	defer is.Close()

	manifestRaw, mst, err := is.Next(ctx)
	if err != nil {
		return Summary{}, fmt.Errorf("xfer: receive manifest: %w", err)
	}
	// The tree is timed from the manifest's announcement, not from the wait
	// for a sender to dial.
	start := time.Now().Add(-mst.Elapsed)
	manifest, err := DecodeManifest(manifestRaw)
	if err != nil {
		return Summary{}, err
	}

	var bytes int64
	for _, f := range manifest.Files {
		var data []byte
		if f.Size > 0 {
			data, _, err = is.Next(ctx)
			if err != nil {
				return Summary{}, fmt.Errorf("xfer: receive %s: %w", f.Path, err)
			}
		}
		if int64(len(data)) != f.Size {
			return Summary{}, fmt.Errorf("xfer: %s arrived with %d bytes, manifest says %d",
				f.Path, len(data), f.Size)
		}
		if crc32.Checksum(data, castagnoli) != f.CRC {
			return Summary{}, fmt.Errorf("xfer: %s failed its checksum", f.Path)
		}
		dst := filepath.Join(destRoot, filepath.FromSlash(f.Path))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return Summary{}, err
		}
		tmp := dst + ".fobs-partial"
		if err := os.WriteFile(tmp, data, f.Mode); err != nil {
			return Summary{}, err
		}
		if err := os.Rename(tmp, dst); err != nil {
			os.Remove(tmp)
			return Summary{}, err
		}
		bytes += f.Size
	}
	return Summary{Files: len(manifest.Files), Bytes: bytes, Elapsed: time.Since(start)}, nil
}
