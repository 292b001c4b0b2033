package checkpoint

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzLoadCheckpoint feeds arbitrary checkpoint bodies to what Load does
// once the framed container has checked a file's magic and checksum
// (decode; the seeds are real files, and Load must parse them exactly as
// decode does). It runs in memory: a filesystem round trip per input would
// measure the disk, not the parser. decode must never panic, and a State
// it returns must agree with its own header — as many bitmap words as the
// header counts, an object of the announced size, and the flags' content
// trailer present exactly when HasContent says so.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	st := sampleState()
	seed := func(st *State) {
		if err := Save(dir, st); err != nil {
			f.Fatal(err)
		}
		loaded, err := Load(File(dir, st.Transfer))
		if err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(File(dir, st.Transfer))
		if err != nil {
			f.Fatal(err)
		}
		body := b[8 : len(b)-4]
		if decoded, err := decode(body); err != nil || !bytes.Equal(decoded.Object, loaded.Object) || decoded.Content != loaded.Content {
			f.Fatalf("Load and decode disagree on a saved file: %v", err)
		}
		f.Add(body)
	}
	seed(st)
	st.HasContent = false
	seed(st)
	st.Words, st.ObjectSize, st.Object = nil, 1, []byte{7}
	seed(st)
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version - 1, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decode(body)
		if err != nil {
			return
		}
		if len(body) < headerLen {
			t.Fatalf("decode accepted a %d-byte body", len(body))
		}
		if words := binary.BigEndian.Uint32(body[22:]); uint64(len(got.Words)) != uint64(words) {
			t.Fatalf("%d bitmap words, header counts %d", len(got.Words), words)
		}
		if uint64(len(got.Object)) != got.ObjectSize || got.ObjectSize == 0 || got.PacketSize == 0 {
			t.Fatalf("object of %d bytes, header says %d (packet size %d)", len(got.Object), got.ObjectSize, got.PacketSize)
		}
		trailer := uint64(0)
		if got.HasContent {
			trailer = 32
		}
		if uint64(len(body)) != headerLen+8*uint64(len(got.Words))+got.ObjectSize+trailer {
			t.Fatalf("%d-byte body for a state of %d words, %d bytes, content %v",
				len(body), len(got.Words), got.ObjectSize, got.HasContent)
		}
	})
}
