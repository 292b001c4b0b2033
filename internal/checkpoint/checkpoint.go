// Package checkpoint persists what a receiver holds of an object — the
// assembled bytes, the got-bitmap of the packets placed so far and the
// content identity the object was announced under — so a restarted process
// can answer a CHECK for that content with what it holds instead of forcing
// a full retransmission. GridFTP's restart markers serve the same purpose;
// here the unit is the whole receiver state, written atomically once rather
// than streamed, because FOBS transfers are single objects, not byte
// streams. A whole, verified object and a partial one are the same State in
// the same file, named by the content identity (CacheFile), and one loader
// (LoadCacheDir) reads a directory of them back within the caller's bounds.
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
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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
	// one no longer reads. LoadCacheDir removes such files: nothing will
	// ever read them again.
	ErrOldVersion = errors.New("checkpoint: written by an earlier format version")
)

// castagnoli matches the CRC-32C polynomial used on the wire.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is what a receiver holds of one object: everything it needs to
// rebuild its state machines and answer a CHECK for the content after a
// restart.
type State struct {
	// Transfer is the id the transfer-named API (File, Save, Remove) names
	// the file by; a content-named file carries zero.
	Transfer   uint32
	ObjectSize uint64
	PacketSize uint32
	// Received counts distinct packets held; Words is the got-bitmap. A
	// whole object is saved with every packet counted and no words.
	Received uint32
	Words    []uint64
	// Object is the object buffer, ObjectSize bytes: every packet of a
	// whole object, the placed packets and zeros of a partial one.
	Object []byte
	// Content is the whole-object content identity (core.ContentID), when
	// known (HasContent): what the file is named by and what a later
	// transfer finds the state by. Serialized after the object under flags
	// bit 1.
	Content    [32]byte
	HasContent bool
}

// File returns the transfer-named checkpoint path for a transfer id under
// dir. Nothing in this module writes such files (LoadCacheDir removes them);
// File, Save and Remove remain for the layer benchmark's timing of save.
func File(dir string, transfer uint32) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08x", transferPrefix, transfer))
}

// transferPrefix and contentPrefix begin the two file names: by transfer id
// (File), an earlier build's retained state, and by content (CacheFile).
const (
	transferPrefix = "fobs-ckpt-"
	contentPrefix  = "fobs-cache-"
)

// headerLen is the fixed payload prefix after the magic:
// version, flags, transfer, objsize, psize, received, words.
const headerLen = 1 + 1 + 4 + 8 + 4 + 4 + 4

// Save atomically writes st to the checkpoint file for its transfer id
// through the same writer as SaveCache.
func Save(dir string, st *State) error {
	return save(File(dir, st.Transfer), st)
}

// save writes st to path as a framed file whose body is three parts — the
// header with the bitmap words, the object, the content trailer — so the
// object goes from the caller's buffer to the file without a copy. The
// bytes land in a temporary file first and rename into place, so a crash
// mid-write leaves either the old file or none — never a torn one that Load
// would have to reject.
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

// decodeHead parses the fixed header at the front of a checkpoint body into
// a State without words, object or content, and returns the count of bitmap
// words the header announces.
func decodeHead(body []byte) (*State, int, error) {
	if len(body) < headerLen {
		return nil, 0, ErrCorrupt
	}
	if body[0] < Version {
		return nil, 0, fmt.Errorf("%w: version %d, speak %d", ErrOldVersion, body[0], Version)
	}
	if body[0] != Version {
		return nil, 0, fmt.Errorf("checkpoint: version %d, speak %d", body[0], Version)
	}
	st := &State{
		HasContent: body[1]&flagContent != 0,
		Transfer:   binary.BigEndian.Uint32(body[2:]),
		ObjectSize: binary.BigEndian.Uint64(body[6:]),
		PacketSize: binary.BigEndian.Uint32(body[14:]),
		Received:   binary.BigEndian.Uint32(body[18:]),
	}
	if st.PacketSize == 0 || st.ObjectSize == 0 {
		return nil, 0, ErrCorrupt
	}
	return st, int(binary.BigEndian.Uint32(body[22:])), nil
}

// decode validates and parses a checkpoint body, the framed container's
// payload. The State's Object aliases body.
func decode(body []byte) (*State, error) {
	st, nw, err := decodeHead(body)
	if err != nil {
		return nil, err
	}
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
	if nw > len(rest)/8 || uint64(len(rest)-8*nw) != st.ObjectSize {
		return nil, ErrCorrupt
	}
	st.Words = make([]uint64, nw)
	for i := range st.Words {
		st.Words[i] = binary.BigEndian.Uint64(rest[8*i:])
	}
	st.Object = rest[8*nw:]
	return st, nil
}

// peek reads only a checkpoint file's magic and fixed header, no byte of the
// object; Load still decides whether the file is sound.
func peek(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	var b [8 + headerLen]byte
	if _, err := io.ReadFull(f, b[:]); err != nil || [8]byte(b[:8]) != fileMagic {
		return nil, ErrCorrupt
	}
	st, _, err := decodeHead(b[8:])
	return st, err
}

// Remove deletes the checkpoint for a transfer id, if present.
func Remove(dir string, transfer uint32) {
	os.Remove(File(dir, transfer))
}

// CacheFile returns the path of the entry held for a content identity under
// dir, whole or partial. The name keys on the identity's first 8 bytes —
// plenty against accidental collision in a bounded store; the loader
// verifies a whole object's full identity.
func CacheFile(dir string, content [32]byte) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x", contentPrefix, binary.BigEndian.Uint64(content[:8])))
}

// SaveCache atomically writes st under its content identity: a whole object
// or a partial one, in the same framed State container. st.HasContent must
// be set.
func SaveCache(dir string, st *State) error {
	if !st.HasContent {
		return errors.New("checkpoint: cache entry without a content digest")
	}
	return save(CacheFile(dir, st.Content), st)
}

// LoadCacheDir reads the content-named files under dir back within the
// caller's bounds, in two passes. Newest first by modification time, it
// offers each file's header alone (peek) to room; a file room has no room
// for is removed unread. Then, oldest first — the order the files were saved
// in — it offers each file room took to admit, one whole file at a time, so
// no more is resident than admit keeps; admit owns st.Object if it keeps it,
// and a file it turns down is removed. Removed on the way, since nothing will
// ever read them: files of an earlier format version, files that name no
// content, and files in an earlier build's transfer-id naming (File).
// Corrupt or foreign files — a file whose name is not its own content's
// included — are skipped, not errors: a directory shared with other
// artifacts must not poison start-up.
func LoadCacheDir(dir string, room, admit func(st *State) bool) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	type cacheFile struct {
		path  string
		key   uint64
		saved time.Time
	}
	var files []cacheFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, transferPrefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		hex, ok := strings.CutPrefix(name, contentPrefix)
		key, err := strconv.ParseUint(hex, 16, 64)
		if !ok || len(hex) != 16 || err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, cacheFile{filepath.Join(dir, name), key, info.ModTime()})
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].saved.After(files[j].saved) })
	taken := files[:0]
	for _, f := range files {
		head, err := peek(f.path)
		switch {
		case errors.Is(err, ErrOldVersion) || err == nil && (!head.HasContent || !room(head)):
			os.Remove(f.path)
		case err == nil:
			taken = append(taken, f)
		}
	}
	for i := len(taken) - 1; i >= 0; i-- {
		f := taken[i]
		st, err := Load(f.path)
		if err != nil || binary.BigEndian.Uint64(st.Content[:8]) != f.key {
			continue
		}
		if !admit(st) {
			os.Remove(f.path)
		}
	}
	return nil
}

// RemoveCache deletes the entry held for a content identity, if present.
func RemoveCache(dir string, content [32]byte) {
	os.Remove(CacheFile(dir, content))
}
