// The framed-file container the checkpoint format lives in, and the atomic
// replace under it, split out so other crash-safe stores (the transfer
// daemon's task journal, which compacts through Replace) can share the
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
	"io"
	"os"
)

// framedOverhead is the container's fixed cost around the body: the magic
// in front, the checksum behind.
const framedOverhead = 8 + 4

// WriteFramed atomically persists a body, given as the parts that make it
// up in order, to path inside the framed container. The parts are streamed
// through Replace with the checksum folded over them as they go — a part is
// never copied, so persisting an object costs no second object.
func WriteFramed(path string, magic [8]byte, body ...[]byte) error {
	return Replace(path, func(w io.Writer) error {
		w.Write(magic[:]) // the writer latches the first error; the last write reports it
		var sum uint32
		for _, p := range body {
			sum = crc32.Update(sum, castagnoli, p)
			w.Write(p)
		}
		_, err := w.Write(binary.BigEndian.AppendUint32(nil, sum))
		return err
	})
}

// Replace atomically replaces path with the bytes write streams into it.
// They go to the temporary sibling path + ".tmp", which is renamed over
// path on success and removed on failure, so a crash at any instant leaves
// path either as it was or wholly replaced. A small buffer keeps a short
// file one write call and lets a large part pass through uncopied.
func Replace(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	err := writeTemp(tmp, write)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// writeTemp creates path holding what write streams.
func writeTemp(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 4096)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
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
