package spine

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// countingSource is a Source that holds nothing and counts its sealings.
type countingSource struct {
	seals   atomic.Int32
	closing atomic.Bool
}

func (s *countingSource) Sweep() []byte { return nil }

func (s *countingSource) Seal(closing bool) []byte {
	s.seals.Add(1)
	s.closing.Store(closing)
	return []byte("trailer")
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// TestLogCloseConcurrent: Close from several goroutines at once closes the
// Log once — the stop channel is closed once, an open source is sealed once,
// as the Log's closing — and every caller returns after that, with the same
// latched error. (Before the core existed, flight.Log.Close and obs.Log.Close
// each checked closed, dropped the lock, then closed the channel: four
// concurrent callers panicked with "close of closed channel".)
func TestLogCloseConcurrent(t *testing.T) {
	boom := errors.New("disk full")
	for _, tc := range []struct {
		name string
		w    io.Writer
		want error
	}{
		{"clean", io.Discard, nil},
		{"write error latched", failingWriter{boom}, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 50; round++ {
				l := NewLog(tc.w, Format{Head: "HEAD", BufSize: 16})
				src := new(countingSource)
				if !l.Add(src, []byte("announce")) {
					t.Fatal("Add refused on an open Log")
				}
				const callers = 4
				errs := make([]error, callers)
				var wg sync.WaitGroup
				for g := 0; g < callers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						errs[g] = l.Close()
						if src.seals.Load() != 1 {
							t.Errorf("caller %d returned with the source sealed %d times, want 1", g, src.seals.Load())
						}
					}(g)
				}
				wg.Wait()
				for g, err := range errs {
					if err != tc.want {
						t.Fatalf("caller %d: Close = %v, want %v", g, err, tc.want)
					}
				}
				if !src.closing.Load() {
					t.Fatal("the source was not told the Log closed under it")
				}
				if l.Add(new(countingSource), nil) {
					t.Fatal("Add accepted a source on a closed Log")
				}
				l.Retire(src) // sealed already: must not seal again
				if n := src.seals.Load(); n != 1 {
					t.Fatalf("source sealed %d times, want 1", n)
				}
				if err := l.Close(); err != tc.want {
					t.Fatalf("later Close = %v, want %v", err, tc.want)
				}
			}
		})
	}
}
