package spine

import (
	"bufio"
	"io"
	"os"
	"sync"
	"time"
)

// sweepInterval is how often the background drainer sweeps every source, so
// rings stay nearly empty and a crash loses little.
const sweepInterval = 5 * time.Millisecond

// Source is one recorder feeding a Log: a Ring plus the instrument's
// encoding of it. The Log calls both methods under its mutex, so a source
// needs no locking of its own for its drain state, and writes what they
// return before calling again, so a source may reuse one buffer.
type Source interface {
	// Sweep drains the source's ring and returns the encoding of what it
	// held; nil when it held nothing.
	Sweep() []byte
	// Seal ends the source's stream: it stops taking records, then returns
	// a last sweep followed by the trailer, if the format has one. closing
	// tells a source the Log closed under it from one its owner retired.
	Seal(closing bool) []byte
}

// Format is what an instrument fixes about its log.
type Format struct {
	Head        string // written once, ahead of everything else
	BufSize     int    // of the buffered writer
	FlushSweeps bool   // push every sweep through to the destination
}

// Log is one capture in progress: a buffered destination, a timebase shared
// by every source, the set of open sources, and the goroutine that sweeps
// them. All methods are safe for concurrent use.
type Log struct {
	epoch       time.Time
	flushSweeps bool

	mu      sync.Mutex
	w       *bufio.Writer
	file    *os.File // nil when writing to a caller-supplied io.Writer
	sources []Source
	err     error // first write error; poisons every later write and Close
	closed  bool

	closing sync.Once
	stop    chan struct{}
	done    chan struct{}
}

// Create opens path for writing and returns a running Log that owns the
// file. The file is complete only after Close.
func Create(path string, f Format) (*Log, error) {
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	l := NewLog(file, f)
	l.file = file
	return l, nil
}

// NewLog returns a running Log writing to w.
func NewLog(w io.Writer, f Format) *Log {
	l := &Log{
		epoch:       time.Now(),
		flushSweeps: f.FlushSweeps,
		w:           bufio.NewWriterSize(w, f.BufSize),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	l.writeLocked([]byte(f.Head))
	go l.drainLoop()
	return l
}

// Epoch is the instant the Log's clock started.
func (l *Log) Epoch() time.Time { return l.epoch }

// Since is the log-relative timestamp now. Hot path: no allocation.
func (l *Log) Since() time.Duration { return time.Since(l.epoch) }

// Add writes the source's announcement and opens it to the sweeps, in one
// critical section so nothing of the source precedes its announcement. It
// reports false, having done neither, on a closed Log.
func (l *Log) Add(s Source, announce []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.writeLocked(announce)
	l.sources = append(l.sources, s)
	return true
}

// Retire seals the source and forgets it. On a closed Log, which has sealed
// the source already, it does nothing.
func (l *Log) Retire(s Source) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.writeLocked(s.Seal(false))
	for i, have := range l.sources {
		if have == s {
			l.sources = append(l.sources[:i], l.sources[i+1:]...)
			break
		}
	}
}

// writeLocked latches the first write error. Caller holds l.mu.
func (l *Log) writeLocked(p []byte) {
	if l.err != nil || len(p) == 0 {
		return
	}
	_, l.err = l.w.Write(p)
}

func (l *Log) drainLoop() {
	defer close(l.done)
	tick := time.NewTicker(sweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C:
			l.mu.Lock()
			for _, s := range l.sources {
				l.writeLocked(s.Sweep())
			}
			if l.flushSweeps && l.err == nil && l.w.Buffered() > 0 {
				l.err = l.w.Flush()
			}
			l.mu.Unlock()
		}
	}
}

// Close stops the drainer, seals every source still open, flushes
// and — when the Log owns the file — closes it, and returns the first write
// error, if any. A concurrent or later call waits for the first to finish and
// returns the same error.
func (l *Log) Close() error {
	l.closing.Do(func() {
		close(l.stop)
		<-l.done
		l.mu.Lock()
		defer l.mu.Unlock()
		for _, s := range l.sources {
			l.writeLocked(s.Seal(true))
		}
		l.sources = nil
		l.closed = true
		if err := l.w.Flush(); err != nil && l.err == nil {
			l.err = err
		}
		if l.file != nil {
			if err := l.file.Close(); err != nil && l.err == nil {
				l.err = err
			}
		}
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}
