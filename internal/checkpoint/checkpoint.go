// Package checkpoint persists the receive side of an interrupted transfer
// — the partially assembled object, its got-bitmap and the content identity
// it was announced under — so a restarted process can answer a CHECK for
// that content with what it holds instead of forcing a full retransmission.
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

// Version is the checkpoint format revision this build writes. Version 1
// also carried a whole-object CRC-32C; version 2 identifies the object by its
// content identity alone.
const Version uint8 = 2

// flagContent marks a file whose State carries a content identity.
const flagContent = 1 << 1

var (
	// ErrCorrupt reports a checkpoint file that failed a structural or
	// checksum validation.
	ErrCorrupt = errors.New("checkpoint: corrupt or truncated file")
	// ErrOldVersion reports a file an earlier build wrote in a format this
	// one no longer reads. LoadDir and LoadCacheDir remove such files:
	// nothing will ever read them again.
	ErrOldVersion = errors.New("checkpoint: written by an earlier format version")
)

// castagnoli matches the CRC-32C polynomial used on the wire.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is one retained transfer: everything a receiver needs to rebuild
// its state machines and answer a CHECK for its content after a restart.
type State struct {
	// Transfer names the file; the content identity is what a later
	// transfer finds the state by.
	Transfer   uint32
	ObjectSize uint64
	PacketSize uint32
	// Received counts distinct packets held; Words is the got-bitmap.
	Received uint32
	Words    []uint64
	// Object is the partially filled object buffer, ObjectSize bytes.
	Object []byte
	// Content is the whole-object content identity (core.ContentID), when
	// known (HasContent). Both a content-cache entry and a retained partial
	// transfer are found by it; a file without one is never claimed.
	// Serialized after the object under flags bit 1.
	Content    [32]byte
	HasContent bool
}

// File returns the checkpoint path for a transfer id under dir.
func File(dir string, transfer uint32) string {
	return filepath.Join(dir, fmt.Sprintf("fobs-ckpt-%08x", transfer))
}

// headerLen is the fixed payload prefix after the magic:
// version, flags, transfer, objsize, psize, received, words.
const headerLen = 1 + 1 + 4 + 8 + 4 + 4 + 4

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
	if st.HasContent {
		flags |= flagContent
	}
	head = append(head, Version, flags)
	head = binary.BigEndian.AppendUint32(head, st.Transfer)
	head = binary.BigEndian.AppendUint64(head, st.ObjectSize)
	head = binary.BigEndian.AppendUint32(head, st.PacketSize)
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
	return decode(body)
}

// decode validates and parses a checkpoint body, the framed container's
// payload. The State's Object aliases body.
func decode(body []byte) (*State, error) {
	if len(body) < headerLen {
		return nil, ErrCorrupt
	}
	if body[0] < Version {
		return nil, fmt.Errorf("%w: version %d, speak %d", ErrOldVersion, body[0], Version)
	}
	if body[0] != Version {
		return nil, fmt.Errorf("checkpoint: version %d, speak %d", body[0], Version)
	}
	st := &State{
		HasContent: body[1]&flagContent != 0,
		Transfer:   binary.BigEndian.Uint32(body[2:]),
		ObjectSize: binary.BigEndian.Uint64(body[6:]),
		PacketSize: binary.BigEndian.Uint32(body[14:]),
		Received:   binary.BigEndian.Uint32(body[18:]),
	}
	nw := int(binary.BigEndian.Uint32(body[22:]))
	rest := body[headerLen:]
	if st.HasContent {
		if len(rest) < 32 {
			return nil, ErrCorrupt
		}
		st.Content = [32]byte(rest[len(rest)-32:])
		rest = rest[:len(rest)-32]
	}
	// Measured against what is there, never summed: a lying header's sizes
	// could wrap a sum around to the file's length.
	if st.PacketSize == 0 || st.ObjectSize == 0 || nw > len(rest)/8 ||
		uint64(len(rest)-8*nw) != st.ObjectSize {
		return nil, ErrCorrupt
	}
	st.Words = make([]uint64, nw)
	for i := range st.Words {
		st.Words[i] = binary.BigEndian.Uint64(rest[8*i:])
	}
	st.Object = rest[8*nw:]
	return st, nil
}

// load is Load for the directory scans: a file of an earlier format version
// is removed on the way.
func load(path string) (*State, error) {
	st, err := Load(path)
	if errors.Is(err, ErrOldVersion) {
		os.Remove(path)
	}
	return st, err
}

// LoadDir loads every valid checkpoint under dir, keyed by transfer id.
// Corrupt or foreign files are skipped, not errors: a retained directory
// shared with other artifacts must not poison startup. Checkpoints an
// earlier format version wrote are removed.
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
		st, err := load(filepath.Join(dir, e.Name()))
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
// entry, and owns st.Object if it keeps it. Entries an earlier format version
// wrote are removed, like the ones admit turns down.
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
		st, err := load(path)
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
