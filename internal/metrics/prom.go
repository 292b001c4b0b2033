package metrics

import (
	"fmt"
	"io"
	"strings"
)

// MergedRTT folds the round-trip histograms of every sender transfer in the
// snapshot into one distribution.
func (s Snapshot) MergedRTT() HistogramSnapshot {
	var out HistogramSnapshot
	for _, t := range s.Transfers {
		if t.RTT != nil {
			out.Merge(*t.RTT)
		}
	}
	return out
}

// WritePrometheus renders the registry's aggregate counters and round-trip
// histogram in the Prometheus text exposition format (no client library —
// the format is a stable line protocol). Counters aggregate over every
// transfer the registry has seen; histograms are in seconds, as the
// convention demands.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	snap := r.Snapshot()
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("fobs_active_transfers", "Transfers currently in flight.", float64(snap.Active))
	t := snap.Totals
	counter("fobs_packets_sent_total", "Data packets placed on the wire.", t.PacketsSent)
	counter("fobs_retransmits_total", "Data packets sent more than once.", t.Retransmits)
	counter("fobs_bytes_sent_total", "Payload bytes placed on the wire.", t.BytesSent)
	counter("fobs_acks_received_total", "Acknowledgements consumed by senders.", t.AcksReceived)
	counter("fobs_rounds_total", "Batch-send rounds that placed at least one packet.", t.Rounds)
	counter("fobs_stalls_total", "Sender stall-watchdog firings.", t.Stalls)
	counter("fobs_data_demuxed_total", "Well-formed data packets routed to receivers.", t.DataDemuxed)
	counter("fobs_packets_fresh_total", "Data packets delivering new payload.", t.Fresh)
	counter("fobs_duplicates_total", "Data packets already held by the receiver.", t.Duplicates)
	counter("fobs_rejected_total", "Data packets the receiver state machine refused.", t.Rejected)
	counter("fobs_bytes_received_total", "Fresh payload bytes delivered.", t.BytesReceived)
	counter("fobs_acks_sent_total", "Acknowledgements emitted by receivers.", t.AcksSent)
	counter("fobs_idle_timeouts_total", "Receiver idle-watchdog firings.", t.IdleTimeouts)
	counter("fobs_transfers_completed_total", "Transfers that delivered their whole object.", t.Completed)
	counter("fobs_transfers_aborted_total", "Transfers that terminated early.", t.Aborted)
	if names := snap.GaugeNames(); len(names) > 0 {
		fmt.Fprintf(w, "# HELP fobs_gauge Named registry gauges (queue depths, worker occupancy, rate caps).\n# TYPE fobs_gauge gauge\n")
		for _, name := range names {
			fmt.Fprintf(w, "fobs_gauge{name=%q} %g\n", name, snap.Gauges[name])
		}
	}
	writePromHistogram(w, "fobs_rtt_seconds",
		"Round trips measured by the senders, one sample each.", snap.MergedRTT(), 1e-9)
	for _, name := range snap.HistogramNames() {
		// Nanosecond-valued histograms (by the "_ns" naming convention)
		// become *_seconds per the Prometheus unit rules; anything else is
		// emitted in its native unit.
		prom, scale := "fobs_"+promName(name), 1.0
		if n, ok := strings.CutSuffix(prom, "_ns"); ok {
			prom, scale = n+"_seconds", 1e-9
		}
		writePromHistogram(w, prom, "Named registry histogram "+name+".",
			snap.Histograms[name], scale)
	}
}

// promName maps an arbitrary histogram name onto the Prometheus metric
// name alphabet [a-zA-Z0-9_:], replacing every other rune with '_'. The
// caller prefixes "fobs_", so a leading digit can never start the metric
// name.
func promName(name string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == ':':
			return c
		}
		return '_'
	}, name)
}

// writePromHistogram renders one snapshot as a Prometheus histogram, its
// values multiplied by scale (1e-9 for nanosecond-valued snapshots, whose
// unit is then seconds; 1 for dimensionless ones like attempt counts). Our
// buckets are sparse (only non-empty ones survive the snapshot) with
// recorded lower bounds; each bucket's upper bound is recovered from the
// bucketing function, and counts are accumulated into the cumulative form
// the exposition format requires.
func writePromHistogram(w io.Writer, name, help string, s HistogramSnapshot, scale float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		upper := bucketLow(histBucket(b.Low) + 1)
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(upper)*scale, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(s.Sum)*scale)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}
