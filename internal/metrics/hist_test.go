package metrics

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hpcnet/fobs/internal/obs"
)

func TestHistBucketMonotoneAndInvertible(t *testing.T) {
	probes := []int64{0, 1, 2, 31, 32, 33, 100, 1000, 12345, 1 << 20, 1 << 40, 1<<62 + 12345}
	prev := -1
	for _, v := range probes {
		idx := histBucket(v)
		if idx < prev {
			t.Fatalf("histBucket(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
		low := bucketLow(idx)
		if low > v {
			t.Errorf("bucketLow(%d) = %d exceeds its member %d", idx, low, v)
		}
		if histBucket(low) != idx {
			t.Errorf("bucketLow(%d) = %d maps back to bucket %d", idx, low, histBucket(low))
		}
	}
}

func TestHistogramRelativeResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := rng.Int63n(1 << 40)
		low := bucketLow(histBucket(v))
		if v >= 2*histSubCount {
			if err := float64(v-low) / float64(v); err > 1.0/histSubCount {
				t.Fatalf("value %d binned at %d: relative error %.3f > %.3f", v, low, err, 1.0/histSubCount)
			}
		} else if low != v {
			t.Fatalf("exact region value %d binned at %d", v, low)
		}
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	h := new(Histogram)
	values := make([]int64, 0, 1000)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		v := rng.Int63n(1_000_000)
		values = append(values, v)
		h.Observe(v)
	}
	h.Observe(-5) // clamps to zero
	values = append(values, 0)
	s := h.Snapshot()
	if s.Count != int64(len(values)) {
		t.Fatalf("count = %d, want %d", s.Count, len(values))
	}
	var sum, max int64
	for _, v := range values {
		sum += v
		if v > max {
			max = v
		}
	}
	if s.Sum != sum || s.Max != max {
		t.Fatalf("sum=%d max=%d, want %d %d", s.Sum, s.Max, sum, max)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", bucketTotal, s.Count)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	exact := values[len(values)/2]
	// The p50 estimate must land within one bucket's resolution of truth.
	if s.P50 > exact || float64(exact-s.P50) > float64(exact)/histSubCount+1 {
		t.Errorf("p50 = %d, exact median %d", s.P50, exact)
	}
	var nilH *Histogram
	nilH.Observe(5) // must not panic
	if ns := nilH.Snapshot(); ns.Count != 0 {
		t.Errorf("nil snapshot count = %d", ns.Count)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := new(Histogram), new(Histogram)
	for i := int64(1); i <= 100; i++ {
		a.Observe(i)
		b.Observe(i * 1000)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 200 {
		t.Fatalf("merged count = %d, want 200", s.Count)
	}
	var total int64
	lastLow := int64(-1)
	for _, bk := range s.Buckets {
		if bk.Low <= lastLow {
			t.Fatalf("merged buckets out of order at low=%d", bk.Low)
		}
		lastLow = bk.Low
		total += bk.Count
	}
	if total != 200 {
		t.Fatalf("merged bucket total = %d, want 200", total)
	}
	if s.Max != b.Snapshot().Max {
		t.Fatalf("merged max = %d, want %d", s.Max, b.Snapshot().Max)
	}
}

// TestSenderLatencyHistograms: a sender's RTT histogram holds one sample per
// round trip its probe measured — a publication that brings none observes
// nothing — and there is no other latency histogram; a receiver has none.
func TestSenderLatencyHistograms(t *testing.T) {
	r := New()
	tm := r.StartSender(1, 4, 4096)
	tm.Publish(Counts{PacketsSent: 4}, 1, 3*time.Millisecond)
	tm.Publish(Counts{PacketsSent: 5}, 1, 3*time.Millisecond) // no new round trip
	tm.Publish(Counts{PacketsSent: 6}, 2, 5*time.Millisecond)
	tm.Event(obs.KindComplete, 0)
	s := tm.Snapshot()
	if s.RTT == nil || s.RTT.Count != 2 || s.RTT.Max < int64(5*time.Millisecond) {
		t.Fatalf("rtt: %+v", s.RTT)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("ack_delay")) {
		t.Errorf("snapshot still carries a per-packet ack-delay histogram: %s", b)
	}
	rcv := r.StartReceiver(2, 4, 4096)
	if snap := rcv.Snapshot(); snap.RTT != nil {
		t.Error("receiver grew a latency histogram")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	tm := r.StartSender(1, 2, 2048)
	tm.Publish(Counts{PacketsSent: 2, AcksReceived: 1, KnownReceived: 2}, 1, time.Millisecond)
	tm.Event(obs.KindComplete, 0)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE fobs_active_transfers gauge",
		"fobs_packets_sent_total 2",
		"fobs_acks_received_total 1",
		"fobs_transfers_completed_total 1",
		"# TYPE fobs_rtt_seconds histogram",
		`fobs_rtt_seconds_bucket{le="+Inf"} 1`,
		"fobs_rtt_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fobs_ack_delay_seconds") {
		t.Errorf("prometheus output still has the per-packet ack-delay histogram:\n%s", out)
	}
	// Bucket counts must be cumulative: the last finite bucket equals count.
	var nilReg *Registry
	nilReg.WritePrometheus(&sb) // must not panic
}
