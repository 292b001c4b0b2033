package metrics

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a lock-free log-bucketed latency histogram in the HDR
// style: values are binned by a power-of-two exponent with histSubCount
// linear sub-buckets per octave, giving a constant ~6% relative
// resolution across the full int64 range with a fixed 8 KiB footprint and
// an Observe that is two shifts, a bit-length, and two atomic adds. The zero
// value is ready to use; construct with new(Histogram).
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

const (
	// histSubBits sets the linear resolution within each octave:
	// 2^histSubBits sub-buckets, so relative error <= 2^-histSubBits.
	histSubBits  = 4
	histSubCount = 1 << histSubBits
	// histBuckets covers the whole non-negative int64 range: values below
	// 2*histSubCount are exact, and each further octave adds histSubCount
	// buckets (59 octaves for 63-bit values).
	histBuckets = 2*histSubCount + (63-histSubBits)*histSubCount
)

// histBucket maps a non-negative value to its bucket index. Monotone:
// larger values never map to smaller indices.
func histBucket(v int64) int {
	u := uint64(v)
	if u < 2*histSubCount {
		return int(u) // exact region
	}
	exp := bits.Len64(u) - (histSubBits + 1) // >= 1
	sub := int(u >> uint(exp))               // in [histSubCount, 2*histSubCount)
	return exp<<histSubBits + sub
}

// bucketLow returns the smallest value mapping to bucket idx.
func bucketLow(idx int) int64 {
	if idx < 2*histSubCount {
		return int64(idx)
	}
	exp := idx>>histSubBits - 1
	sub := idx%histSubCount + histSubCount
	return int64(sub) << uint(exp)
}

// Observe records one value. Negative values clamp to zero. Safe for
// concurrent use and safe on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Snapshot freezes the histogram into its portable form. Safe on nil
// (returns the zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Low: bucketLow(i), Count: c})
		}
	}
	s.fillQuantiles()
	return s
}

// HistogramBucket is one non-empty bucket of a snapshot: Count values at
// least Low (and below the next bucket's Low).
type HistogramBucket struct {
	Low   int64 `json:"low"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a frozen histogram: totals, derived quantiles, and
// the non-empty buckets (ascending by Low). Values are in the unit the
// observer used — nanoseconds for the runtime's latency histograms.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`

	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the arithmetic mean of the observed values, or zero.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the lower bound of the bucket holding the q-quantile
// observation (0 <= q <= 1), or zero when empty.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= target {
			return b.Low
		}
	}
	return s.Max
}

// Merge folds o into s (bucket-wise), recomputing the derived quantiles.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if o.Count == 0 {
		return
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	merged := make([]HistogramBucket, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Low < o.Buckets[j].Low):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Low < s.Buckets[i].Low:
			merged = append(merged, o.Buckets[j])
			j++
		default:
			merged = append(merged, HistogramBucket{Low: s.Buckets[i].Low, Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
	s.fillQuantiles()
}

func (s *HistogramSnapshot) fillQuantiles() {
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
}
