package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into the
// program. Spans of one operation share Op; Parent is the id of the span
// that caused this one (-1 for the operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the traced pass began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Self is the span's duration minus the part of it its children cover.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing, which is how the untraced passes run the same code with every
// harness span off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span now and returns its id (-1 from a nil tracer).
func (t *tracer) start(op uint64, parent int, name string) int {
	if t == nil {
		return -1
	}
	return t.add(op, parent, name, time.Now(), time.Time{})
}

// add records a span with explicit instants; a zero end leaves it open for
// end to close.
func (t *tracer) add(op uint64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Parent: parent, Op: op, Name: name, Start: start.Sub(t.epoch).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.epoch).Nanoseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes a span now.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns, in milliseconds, the duration of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// fillSelfTimes sets every span's Self: its duration minus the union of
// its children's intervals, clipped to the span. Children may overlap each
// other (send and accept run concurrently), so the union, not the sum, is
// what is subtracted; then self + covered = duration holds for every span.
func fillSelfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(spans, children[s.ID], s.Start, s.End)
	}
}

// covered is the total length of [lo,hi] that the given spans cover.
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].Start, spans[id].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write computes self times and writes every span as one JSON document.
func (t *tracer) write(path string) error {
	fillSelfTimes(t.spans)
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
