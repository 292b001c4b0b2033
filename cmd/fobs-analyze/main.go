// Command fobs-analyze replays a .fobrec flight recording offline: it
// mechanically verifies the circular-buffer fairness invariant on sender
// streams, reconstructs goodput/retransmission time series as ASCII charts
// or CSV, prints retransmit-count and ack-delay histograms, and
// cross-checks the record stream against the final metrics snapshot
// embedded in the file trailer.
//
// With -events it additionally joins one or more JSONL span logs (from
// udprt tracing or fobsd's -span-log) against the recording by transfer
// id and prints a per-trace, per-endpoint phase waterfall — where the
// handshake, rounds, drain and verify time went on each side.
//
// Usage:
//
//	fobs-analyze transfer.fobrec
//	fobs-analyze -csv - transfer.fobrec          # time series as CSV on stdout
//	fobs-analyze -buckets 120 -width 80 file.fobrec
//	fobs-analyze -events send.events -events recv.events transfer.fobrec
//
// Exit status: 0 when every stream is consistent and every checked
// invariant holds; 1 when the file is unreadable or corrupt; 2 when a
// protocol invariant was violated or the records disagree with the
// embedded metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/hpcnet/fobs/internal/flight"
	"github.com/hpcnet/fobs/internal/metrics"
	"github.com/hpcnet/fobs/internal/obs"
	"github.com/hpcnet/fobs/internal/trace"
)

// spanPaths collects repeated -events span-log flags.
type spanPaths []string

func (sp *spanPaths) String() string { return strings.Join(*sp, ",") }

func (sp *spanPaths) Set(s string) error {
	*sp = append(*sp, s)
	return nil
}

func main() {
	var events spanPaths
	var (
		csvPath = flag.String("csv", "", "write reconstructed time series as CSV to this path ('-': stdout) instead of charts")
		buckets = flag.Int("buckets", 60, "time bins for the reconstructed series")
		width   = flag.Int("width", 60, "ASCII chart width in glyphs")
	)
	flag.Var(&events, "events", "JSONL span log to join with the recording by transfer id (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fobs-analyze [flags] <file.fobrec>")
		flag.PrintDefaults()
		os.Exit(1)
	}
	path := flag.Arg(0)
	eps, err := flight.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fobs-analyze: %v\n", err)
		os.Exit(1)
	}

	exit := 0
	for i, ep := range eps {
		if i > 0 {
			fmt.Println()
		}
		a, err := flight.Analyze(ep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fobs-analyze: %s %v stream: %v\n", path, ep.Meta.Role, err)
			os.Exit(1)
		}
		report(ep, a)
		if a.ViolationCount > 0 {
			exit = 2
		}
		if mismatches, checked := a.CrossCheck(ep.Snapshot); checked && len(mismatches) > 0 {
			exit = 2
		}

		series := flight.SeriesFor(ep, *buckets)
		switch {
		case *csvPath == "-":
			fmt.Print(trace.CSV(series...))
		case *csvPath != "":
			name := *csvPath
			if len(eps) > 1 {
				name = fmt.Sprintf("%s.%s", *csvPath, strings.ToLower(fmt.Sprint(ep.Meta.Role)))
			}
			if err := os.WriteFile(name, []byte(trace.CSV(series...)), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "fobs-analyze: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", name)
		default:
			fmt.Print(trace.Dashboard(*width, series...))
		}
	}
	if len(events) > 0 {
		if err := reportWaterfalls(events, eps, *width); err != nil {
			fmt.Fprintf(os.Stderr, "fobs-analyze: %v\n", err)
			os.Exit(1)
		}
	}
	os.Exit(exit)
}

// reportWaterfalls joins the span logs by trace id and prints a phase
// waterfall for every timeline whose transfer id appears in the
// recording. Trace ids propagate over the wire, so the sender- and
// receiver-side halves of one transfer land under the same heading.
func reportWaterfalls(paths spanPaths, eps []*flight.EndpointLog, width int) error {
	logs := make([][]obs.Event, 0, len(paths))
	for _, p := range paths {
		evs, err := obs.ReadFile(p)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		logs = append(logs, evs)
	}
	recorded := make(map[uint32]bool, len(eps))
	for _, ep := range eps {
		recorded[ep.Meta.Transfer] = true
	}
	joined := obs.Join(logs...)
	traces := make([]string, 0, len(joined))
	for tr := range joined {
		traces = append(traces, tr)
	}
	sort.Strings(traces)

	matched := 0
	for _, tr := range traces {
		var keep []obs.Timeline
		for _, tl := range joined[tr] {
			if recorded[tl.Transfer] {
				keep = append(keep, tl)
			}
		}
		if len(keep) == 0 {
			continue
		}
		matched++
		label := tr
		if label == "" {
			label = "(untraced events)"
		}
		fmt.Printf("\n== trace %s\n", label)
		for _, tl := range keep {
			printWaterfall(tl, width)
		}
	}
	if matched == 0 {
		fmt.Println("\nno span-log trace matches the recording's transfer ids")
	}
	return nil
}

// printWaterfall renders one endpoint timeline as offset phase bars on a
// shared time axis, so the eye can line the two endpoints up.
func printWaterfall(tl obs.Timeline, width int) {
	spans := obs.Waterfall(tl)
	if len(spans) == 0 {
		return
	}
	total := spans[len(spans)-1].End
	fmt.Printf("   %v transfer %d: %d events over %v\n",
		tl.Role, tl.Transfer, len(tl.Events), total.Round(time.Microsecond))
	for _, sp := range spans {
		// A non-zero Arg rides on the phase name — drain(3) on a receiver is
		// three leaves still unhashed when the last packet landed.
		name := sp.Kind.String()
		if sp.Arg != 0 {
			name = fmt.Sprintf("%s(%d)", name, sp.Arg)
		}
		fmt.Printf("     %-14s %10v +%-10v %s\n",
			name, sp.Start.Round(time.Microsecond), sp.Duration().Round(time.Microsecond),
			gantt(sp.Start, sp.End, total, width))
	}
}

// gantt draws one waterfall row: dots up to the span's start, then hash
// marks for its extent, on a width-glyph axis ending at total.
func gantt(start, end, total time.Duration, width int) string {
	if total <= 0 || width <= 0 {
		return ""
	}
	s := int(int64(start) * int64(width) / int64(total))
	e := int(int64(end) * int64(width) / int64(total))
	if e <= s {
		e = s + 1
	}
	if e > width {
		e = width
		if s >= e {
			s = e - 1
		}
	}
	return strings.Repeat(".", s) + strings.Repeat("#", e-s)
}

// report prints one endpoint's analysis: totals, invariant verdicts,
// histograms, and the records-vs-metrics cross-check.
func report(ep *flight.EndpointLog, a *flight.Analysis) {
	m := ep.Meta
	fmt.Printf("== %v transfer %d: %d packets x %d bytes (%d object bytes), span %v\n",
		m.Role, m.Transfer, m.PacketsNeeded, m.PacketSize, m.ObjectBytes,
		a.Span.Round(time.Millisecond))
	if !a.Ended {
		fmt.Println("   recording CUT OFF mid-transfer (no trailer)")
	}
	if a.Dropped > 0 {
		fmt.Printf("   PARTIAL capture: %d records lost to ring overrun; strict checks skipped\n", a.Dropped)
	}

	if m.Role == obs.RoleSender {
		fmt.Printf("   sent %d packets (%d retransmits, %d bytes) in %d batches' worth; acks %d (%d stale), acked %d, peer holds %d\n",
			a.PacketsSent, a.Retransmits, a.BytesSent,
			a.PacketsSent, a.AcksReceived, a.StaleAcks, a.AckedPackets, a.KnownReceived)
		fmt.Printf("   outcome %v%s, handshakes %d, stalls %d\n",
			a.Outcome, abortSuffix(a), a.Handshakes, a.Stalls)
	} else {
		fmt.Printf("   demuxed %d packets: %d fresh (%d bytes), %d duplicate, %d rejected; acks sent %d\n",
			a.DataDemuxed, a.Fresh, a.BytesReceived, a.Duplicates, a.Rejected, a.AcksSent)
		fmt.Printf("   outcome %v%s, handshakes %d, idle firings %d\n",
			a.Outcome, abortSuffix(a), a.Handshakes, a.Idles)
	}

	switch {
	case a.FairnessChecked && a.ViolationCount == 0:
		fmt.Println("   fairness: OK — circular-buffer invariant holds (transmit spread <= 1 over unacked packets)")
	case a.FairnessChecked:
		fmt.Printf("   fairness: VIOLATED %d time(s):\n", a.ViolationCount)
		for _, v := range a.Violations {
			fmt.Printf("     - %s\n", v)
		}
		if int64(len(a.Violations)) < a.ViolationCount {
			fmt.Printf("     ... and %d more\n", a.ViolationCount-int64(len(a.Violations)))
		}
	default:
		fmt.Println("   fairness: not checked (needs a complete circular-schedule sender stream)")
	}

	if len(a.RetransmitCounts) > 0 {
		fmt.Println("   transmissions per acknowledged packet:")
		printCounts(a.RetransmitCounts)
	}
	if a.AckDelay.Count > 0 {
		fmt.Printf("   ack delay (first send -> acked): mean %v p50 %v p90 %v p99 %v max %v\n",
			ns(int64(a.AckDelay.Mean())), ns(a.AckDelay.P50), ns(a.AckDelay.P90), ns(a.AckDelay.P99), ns(a.AckDelay.Max))
		printHistogram(a.AckDelay, 12)
	}
	if a.RTT.Count > 0 {
		fmt.Printf("   rtt (last send -> acked):       mean %v p50 %v p90 %v p99 %v max %v\n",
			ns(int64(a.RTT.Mean())), ns(a.RTT.P50), ns(a.RTT.P90), ns(a.RTT.P99), ns(a.RTT.Max))
	}

	mismatches, checked := a.CrossCheck(ep.Snapshot)
	switch {
	case !checked:
		fmt.Println("   cross-check: skipped (no embedded metrics snapshot or partial capture)")
	case len(mismatches) == 0:
		fmt.Println("   cross-check: OK — record totals match the embedded metrics snapshot exactly")
	default:
		fmt.Printf("   cross-check: MISMATCH (%d):\n", len(mismatches))
		for _, mm := range mismatches {
			fmt.Printf("     - %s\n", mm)
		}
	}
}

func abortSuffix(a *flight.Analysis) string {
	if a.Outcome == metrics.OutcomeAborted {
		return fmt.Sprintf(" (reason %d)", a.AbortReason)
	}
	return ""
}

// printCounts renders transmissions-per-packet as bars: row k is the number
// of packets acknowledged after exactly k transmissions.
func printCounts(counts map[uint32]int64) {
	var max int64
	ks := make([]uint32, 0, len(counts))
	for k, c := range counts {
		if c > max {
			max = c
		}
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	for _, k := range ks {
		fmt.Printf("     %3dx %8d %s\n", k, counts[k], bar(counts[k], max, 40))
	}
}

// printHistogram renders a latency snapshot coalesced into at most rows
// display buckets.
func printHistogram(s metrics.HistogramSnapshot, rows int) {
	if len(s.Buckets) == 0 {
		return
	}
	step := (len(s.Buckets) + rows - 1) / rows
	type row struct {
		low   int64
		count int64
	}
	var merged []row
	for i := 0; i < len(s.Buckets); i += step {
		r := row{low: s.Buckets[i].Low}
		for j := i; j < i+step && j < len(s.Buckets); j++ {
			r.count += s.Buckets[j].Count
		}
		merged = append(merged, r)
	}
	var max int64
	for _, r := range merged {
		if r.count > max {
			max = r.count
		}
	}
	for _, r := range merged {
		fmt.Printf("     >= %-9v %8d %s\n", ns(r.low), r.count, bar(r.count, max, 40))
	}
}

func bar(v, max int64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v * int64(width) / max)
	if n == 0 && v > 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}

func ns(v int64) time.Duration { return time.Duration(v).Round(time.Microsecond) }
