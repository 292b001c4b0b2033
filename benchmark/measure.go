package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// tally accumulates the operations of one or more measured windows.
type tally struct {
	attempted, failed int
	firstErr          error
	bytes             int64     // verified object bytes delivered
	ms                []float64 // duration of each verified operation
	// Sums over operations that opened a data flow (dedup hits open none).
	sent, needed, retransmits, arrived, duplicates int
	stalls, idle                                   int

	elapsed time.Duration // timed window, to the end of its last operation
	cpu     time.Duration // process user+sys over the window
	alloc   uint64        // runtime.MemStats.TotalAlloc growth over the window

	// marks cut the window into slices without pausing the closed loop: a
	// mark is taken when the first operation completes after each slice
	// boundary. The end-to-end metrics are computed per slice.
	marks []mark
}

// mark is the tally's running totals at one instant.
type mark struct {
	at                time.Time
	cpu               time.Duration
	alloc             uint64
	bytes             int64
	ops, sent, needed int
}

func (t *tally) mark() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.marks = append(t.marks, mark{time.Now(), cpuTime(), m.TotalAlloc, t.bytes, t.attempted, t.sent, t.needed})
}

// perSlice returns f(earlier mark, later mark) of every slice of the
// window, skipping slices f declines (ok=false).
func (t *tally) perSlice(f func(a, b mark) (float64, bool)) []float64 {
	var v []float64
	for i := 1; i < len(t.marks); i++ {
		if x, ok := f(t.marks[i-1], t.marks[i]); ok {
			v = append(v, x)
		}
	}
	return v
}

func (t *tally) add(r opResult) {
	t.attempted++
	if r.err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = r.err
		}
		return
	}
	t.bytes += r.bytes
	t.ms = append(t.ms, float64(r.dur)/1e6)
	t.stalls += r.stalls
	t.idle += r.idle
	if r.repeat {
		return // a dedup hit opens no data flow
	}
	t.sent += r.sent
	t.needed += r.needed
	t.retransmits += r.retransmits
	t.arrived += r.arrived
	t.duplicates += r.duplicates
}

// cpuTime is the process's user+system CPU so far. The workload runs both
// endpoints (and any emulator or daemon) in this one process, so this is
// the cost of the whole transfer.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs inst's closed loop for a window of d (finishing the
// operation in flight) and adds what happened to t, marking a slice every
// slice (zero: one slice, the whole window). each, when non-nil, also sees
// every operation.
func (t *tally) measure(inst instance, d, slice time.Duration, tr *tracer, each func(opResult)) {
	t.marks = t.marks[:0]
	t.mark()
	first := t.marks[0]
	inst.run(func() bool { return time.Since(first.at) >= d }, tr, func(r opResult) {
		t.add(r)
		if each != nil {
			each(r)
		}
		if slice > 0 && time.Since(t.marks[len(t.marks)-1].at) >= slice {
			t.mark()
		}
	})
	// Close the last slice, unless an operation just did; a stub shorter
	// than half a slice is folded into its predecessor.
	if last := t.marks[len(t.marks)-1]; last.ops < t.attempted || len(t.marks) == 1 {
		if len(t.marks) > 1 && time.Since(last.at) < slice/2 {
			t.marks = t.marks[:len(t.marks)-1]
		}
		t.mark()
	}
	last := t.marks[len(t.marks)-1]
	t.elapsed += last.at.Sub(first.at)
	t.cpu += last.cpu - first.cpu
	t.alloc += last.alloc - first.alloc
}

// warm runs a fixed number of discarded operations and returns how many
// failed.
func warm(inst instance, ops int) (failed int, first error) {
	done := 0
	inst.run(func() bool { return done >= ops }, nil, func(r opResult) {
		done++
		if r.err != nil {
			failed++
			if first == nil {
				first = r.err
			}
		}
	})
	return failed, first
}

// goodputMBps is verified object bytes delivered per second, over the
// whole window.
func (t *tally) goodputMBps() float64 {
	return float64(t.bytes) / 1e6 / t.elapsed.Seconds()
}

// cpuNsPerByte is process CPU per verified byte, over the whole window.
func (t *tally) cpuNsPerByte() float64 {
	if t.bytes == 0 {
		return 0
	}
	return float64(t.cpu.Nanoseconds()) / float64(t.bytes)
}

// wastePct is the paper's wasted network resources — packets sent beyond
// the minimum, as a share of the minimum — over operations that opened a
// data flow, over the whole window.
func (t *tally) wastePct() float64 {
	return ratioPct(t.sent-t.needed, t.needed)
}

// Per slice; the end-to-end metrics are medians over these, so a second of
// interference from the machine does not decide a run.

func (t *tally) sliceGoodputMBps() []float64 {
	return t.perSlice(func(a, b mark) (float64, bool) {
		return float64(b.bytes-a.bytes) / 1e6 / b.at.Sub(a.at).Seconds(), b.bytes > a.bytes
	})
}

func (t *tally) sliceCPUNsPerByte() []float64 {
	return t.perSlice(func(a, b mark) (float64, bool) {
		return float64((b.cpu - a.cpu).Nanoseconds()) / float64(b.bytes-a.bytes), b.bytes > a.bytes
	})
}

func (t *tally) sliceAllocKiBPerOp() []float64 {
	return t.perSlice(func(a, b mark) (float64, bool) {
		return float64(b.alloc-a.alloc) / 1024 / float64(b.ops-a.ops), b.ops > a.ops
	})
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kib); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
