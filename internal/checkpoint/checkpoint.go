// Package checkpoint persists the receive side of an interrupted transfer
// — the partially assembled object and its got-bitmap — so a restarted
// process can answer a RESUME instead of forcing a full retransmission.
// GridFTP's restart markers serve the same purpose; here the unit is the
// whole receiver state, written atomically once per abort rather than
// streamed, because FOBS transfers are single objects, not byte streams.
//
// Format (all big-endian): an 8-byte magic, a version byte, the transfer
// header, the bitmap words, the object bytes, and a trailing CRC-32C over
// everything after the magic. A file that fails any structural or checksum
// check loads as an error and the caller treats the transfer as
// unresumable — a torn write must degrade to a fresh transfer, never to a
// corrupt resume.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// fileMagic opens every checkpoint file.
var fileMagic = [8]byte{'F', 'O', 'B', 'S', 'C', 'K', 'P', 'T'}

// Version is the checkpoint format revision this build writes.
const Version uint8 = 1

// ErrCorrupt reports a checkpoint file that failed a structural or
// checksum validation.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated file")

// castagnoli matches the CRC-32C polynomial used on the wire.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is one retained transfer: everything a receiver needs to rebuild
// its state machines and answer a RESUME after a restart.
type State struct {
	Transfer   uint32
	ObjectSize uint64
	PacketSize uint32
	// Digest is the whole-object CRC-32C from the original announcement's
	// sender, when known (HasDigest); it guards against resuming a
	// same-id transfer of a different object.
	Digest    uint32
	HasDigest bool
	// Received counts distinct packets held; Words is the got-bitmap.
	Received uint32
	Words    []uint64
	// Object is the partially filled object buffer, ObjectSize bytes.
	Object []byte
	// Content is the whole-object SHA-256 content identity, when known
	// (HasContent). A content-cache entry always carries one — it is the
	// lookup key — and a retained partial transfer carries one when its
	// announcement included a CHECK. Serialized after the object under
	// flags bit 1, so pre-content builds reject (and skip) the longer
	// format instead of misparsing it.
	Content    [32]byte
	HasContent bool
}

// File returns the checkpoint path for a transfer id under dir.
func File(dir string, transfer uint32) string {
	return filepath.Join(dir, fmt.Sprintf("fobs-ckpt-%08x", transfer))
}

// headerLen is the fixed payload prefix after the magic:
// version, flags, transfer, objsize, psize, digest, received, words.
const headerLen = 1 + 1 + 4 + 8 + 4 + 4 + 4 + 4

// Save atomically writes st to the checkpoint file for its transfer id:
// the bytes land in a temporary file first and rename into place, so a
// crash mid-write leaves either the old checkpoint or none — never a torn
// one that Load would have to reject.
func Save(dir string, st *State) error {
	return save(File(dir, st.Transfer), st)
}

// save writes st to path as a framed file whose body is three parts — the
// header with the bitmap words, the object, the content trailer — so the
// object goes from the caller's buffer to the file without a copy.
func save(path string, st *State) error {
	if uint64(len(st.Object)) != st.ObjectSize {
		return fmt.Errorf("checkpoint: object is %d bytes, header says %d", len(st.Object), st.ObjectSize)
	}
	head := make([]byte, 0, headerLen+8*len(st.Words))
	var flags uint8
	if st.HasDigest {
		flags |= 1
	}
	if st.HasContent {
		flags |= 2
	}
	head = append(head, Version, flags)
	head = binary.BigEndian.AppendUint32(head, st.Transfer)
	head = binary.BigEndian.AppendUint64(head, st.ObjectSize)
	head = binary.BigEndian.AppendUint32(head, st.PacketSize)
	head = binary.BigEndian.AppendUint32(head, st.Digest)
	head = binary.BigEndian.AppendUint32(head, st.Received)
	head = binary.BigEndian.AppendUint32(head, uint32(len(st.Words)))
	for _, w := range st.Words {
		head = binary.BigEndian.AppendUint64(head, w)
	}
	var trailer []byte
	if st.HasContent {
		trailer = st.Content[:]
	}
	return WriteFramed(path, fileMagic, head, st.Object, trailer)
}

// Load reads and validates one checkpoint file.
func Load(path string) (*State, error) {
	body, err := ReadFramed(path, fileMagic)
	if err != nil {
		return nil, err
	}
	if len(body) < headerLen {
		return nil, ErrCorrupt
	}
	if body[0] != Version {
		return nil, fmt.Errorf("checkpoint: version %d, speak %d", body[0], Version)
	}
	st := &State{
		HasDigest:  body[1]&1 != 0,
		HasContent: body[1]&2 != 0,
		Transfer:   binary.BigEndian.Uint32(body[2:]),
		ObjectSize: binary.BigEndian.Uint64(body[6:]),
		PacketSize: binary.BigEndian.Uint32(body[14:]),
		Digest:     binary.BigEndian.Uint32(body[18:]),
		Received:   binary.BigEndian.Uint32(body[22:]),
	}
	nw := int(binary.BigEndian.Uint32(body[26:]))
	rest := body[headerLen:]
	want := uint64(8*nw) + st.ObjectSize
	if st.HasContent {
		want += 32
	}
	if st.PacketSize == 0 || st.ObjectSize == 0 ||
		nw < 0 || uint64(len(rest)) != want {
		return nil, ErrCorrupt
	}
	st.Words = make([]uint64, nw)
	for i := range st.Words {
		st.Words[i] = binary.BigEndian.Uint64(rest[8*i:])
	}
	st.Object = rest[8*nw : uint64(8*nw)+st.ObjectSize]
	if st.HasContent {
		copy(st.Content[:], rest[uint64(8*nw)+st.ObjectSize:])
	}
	return st, nil
}

// LoadDir loads every valid checkpoint under dir, keyed by transfer id.
// Corrupt or foreign files are skipped, not errors: a retained directory
// shared with other artifacts must not poison startup.
func LoadDir(dir string) (map[uint32]*State, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var out map[uint32]*State
	for _, e := range ents {
		var xfer uint32
		if e.IsDir() {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "fobs-ckpt-%08x", &xfer); err != nil {
			continue
		}
		st, err := Load(filepath.Join(dir, e.Name()))
		if err != nil || st.Transfer != xfer {
			continue
		}
		if out == nil {
			out = make(map[uint32]*State)
		}
		out[xfer] = st
	}
	return out, nil
}

// Remove deletes the checkpoint for a transfer id, if present.
func Remove(dir string, transfer uint32) {
	os.Remove(File(dir, transfer))
}

// CacheFile returns the content-cache path for a digest under dir. The
// name keys on the digest (its first 8 bytes — plenty against accidental
// collision in a bounded cache; the loader verifies the full digest), not
// a transfer id, and the distinct prefix keeps LoadDir's resume scan from
// ever picking a cache entry up, and vice versa, in a shared directory.
func CacheFile(dir string, content [32]byte) string {
	return filepath.Join(dir, fmt.Sprintf("fobs-cache-%016x", binary.BigEndian.Uint64(content[:8])))
}

// SaveCache atomically writes a completed object as a content-cache entry:
// the same framed State container as a resume checkpoint (one persistence
// path, per the roadmap), keyed by content digest instead of transfer id.
// st.HasContent must be set.
func SaveCache(dir string, st *State) error {
	if !st.HasContent {
		return errors.New("checkpoint: cache entry without a content digest")
	}
	return save(CacheFile(dir, st.Content), st)
}

// LoadCacheDir offers every valid content-cache entry under dir to admit,
// one file at a time and oldest first by modification time — the order the
// entries were saved in — so no more is resident than admit keeps. An entry
// admit turns down has its file removed. Corrupt or foreign files are
// skipped for the same reason LoadDir skips them; an entry whose filename
// does not match its own content digest is treated as foreign. admit still
// verifies the full digest against the object bytes before trusting an
// entry, and owns st.Object if it keeps it.
func LoadCacheDir(dir string, admit func(st *State) bool) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	type cacheFile struct {
		name  string
		key   uint64
		saved time.Time
	}
	var files []cacheFile
	for _, e := range ents {
		var key uint64
		if e.IsDir() {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "fobs-cache-%016x", &key); err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, cacheFile{e.Name(), key, info.ModTime()})
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].saved.Before(files[j].saved) })
	for _, f := range files {
		path := filepath.Join(dir, f.name)
		st, err := Load(path)
		if err != nil || !st.HasContent || binary.BigEndian.Uint64(st.Content[:8]) != f.key {
			continue
		}
		if !admit(st) {
			os.Remove(path)
		}
	}
	return nil
}

// RemoveCache deletes the content-cache entry for a digest, if present.
func RemoveCache(dir string, content [32]byte) {
	os.Remove(CacheFile(dir, content))
}
