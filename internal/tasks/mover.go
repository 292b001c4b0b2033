package tasks

import (
	"io"
	"os"
)

// moverBufferCap bounds the read buffer a worker keeps from one task to the
// next. A file whose read needs a larger buffer is read into a one-off one,
// dropped with its task, so the buffers an idle daemon holds come to at most
// Config.Workers × moverBufferCap.
const moverBufferCap = 16 << 20

// mover is one worker's reading side: the buffer it reads each task's file
// into, kept across tasks. Reusing it is safe because udprt.Send keeps
// nothing of the object it is given once it returns.
type mover struct {
	buf []byte
}

// read returns what os.ReadFile(path) returns — the file read to EOF, however
// it grew or shrank since the last task, an empty slice for an empty file,
// the open's *PathError for a missing one — but into m's buffer, so a task
// allocates nothing here once the worker has read a file as large. The slice
// is valid until the next read.
func (m *mover) read(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Size the buffer as os.ReadFile does: the stat, plus one byte so an
	// unchanged file ends on its EOF read, and at least 512 bytes.
	size := 0
	if info, err := f.Stat(); err == nil {
		if s := info.Size(); int64(int(s)) == s {
			size = int(s)
		}
	}
	size = max(size+1, 512)
	buf := m.buf[:0]
	if cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	for {
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			if cap(buf) <= moverBufferCap {
				m.buf = buf[:0]
			}
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)] // the file grew: let append pick the growth
		}
	}
}
