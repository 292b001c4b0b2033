// The framed-file container the checkpoint format lives in, split out so
// other crash-safe stores (the transfer daemon's task files) can share the
// exact conventions instead of inventing parallel ones: an 8-byte magic, an
// opaque body, a trailing CRC-32C (Castagnoli — the wire's polynomial) over
// the body, written atomically via a temporary file renamed into place. A
// crash mid-write leaves either the old file or none; a torn or tampered
// file fails validation as ErrCorrupt rather than parsing into garbage.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// framedOverhead is the container's fixed cost around the body: the magic
// in front, the checksum behind.
const framedOverhead = 8 + 4

// WriteFramed atomically persists a body, given as the parts that make it
// up in order, to path inside the framed container. The parts are streamed
// to the temporary sibling (path + ".tmp") with the checksum folded over
// them as they go — a part is never copied, so persisting an object costs
// no second object — and the sibling is renamed over path on success and
// removed on failure.
func WriteFramed(path string, magic [8]byte, body ...[]byte) error {
	tmp := path + ".tmp"
	err := writeParts(tmp, magic, body)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// writeParts creates path holding magic, the parts and their checksum. The
// small buffer keeps a short file one write call and lets a large part pass
// through uncopied.
func writeParts(path string, magic [8]byte, parts [][]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 4096)
	w.Write(magic[:]) // bufio latches the first error; Flush reports it
	var sum uint32
	for _, p := range parts {
		sum = crc32.Update(sum, castagnoli, p)
		w.Write(p)
	}
	w.Write(binary.BigEndian.AppendUint32(nil, sum))
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFramed reads path and validates the container — length, magic,
// checksum — returning the body. Structural failures surface as
// ErrCorrupt; only the read itself can fail differently (e.g. a missing
// file keeps its os error for callers that distinguish absent from
// broken).
func ReadFramed(path string, magic [8]byte) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(b) < framedOverhead || [8]byte(b[:8]) != magic {
		return nil, ErrCorrupt
	}
	body, sum := b[8:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, ErrCorrupt
	}
	return body, nil
}
