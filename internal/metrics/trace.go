package metrics

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/hpcnet/fobs/internal/trace"
)

// samplerState feeds periodic registry snapshots into internal/trace rate
// meters, so a live transfer produces the same CSV/ASCII chart artefacts
// the simulated runtime does. It is embedded in Registry and lazily
// initialised on first use.
type samplerState struct {
	mu      sync.Mutex
	lastAt  time.Duration
	active  *trace.Series
	goodput *trace.Rate // receive side, Mb/s
	sendMbs *trace.Rate // send side, Mb/s
	pkts    *trace.Rate // data packets sent per second
	retx    *trace.Rate // retransmissions per second
	acks    *trace.Rate // acknowledgements sent per second
}

func (s *samplerState) initLocked() {
	if s.active != nil {
		return
	}
	s.active = trace.NewSeries("active", "transfers")
	s.goodput = trace.NewRate("goodput", "Mb/s", 8e-6)
	s.sendMbs = trace.NewRate("send", "Mb/s", 8e-6)
	s.pkts = trace.NewRate("pkts", "pkt/s", 1)
	s.retx = trace.NewRate("retx", "pkt/s", 1)
	s.acks = trace.NewRate("acks", "ack/s", 1)
}

// Sample takes one observation of the registry's aggregate counters at the
// current instant and appends it to the trace series. Sampling is what
// turns the monotone counters into the paper's reported quantities: the
// goodput curve is the rate-of-change of bytes received, the
// retransmission curve the rate-of-change of the retransmit counter.
func (r *Registry) Sample() {
	if r == nil {
		return
	}
	snap := r.Snapshot()
	s := &r.sampler
	s.mu.Lock()
	defer s.mu.Unlock()
	s.initLocked()
	if snap.At <= s.lastAt {
		return // trace.Series requires non-decreasing time
	}
	s.lastAt = snap.At
	s.active.Sample(snap.At, float64(snap.Active))
	s.goodput.Observe(snap.At, float64(snap.Totals.BytesReceived))
	s.sendMbs.Observe(snap.At, float64(snap.Totals.BytesSent))
	s.pkts.Observe(snap.At, float64(snap.Totals.PacketsSent))
	s.retx.Observe(snap.At, float64(snap.Totals.Retransmits))
	s.acks.Observe(snap.At, float64(snap.Totals.AcksSent))
}

// StartSampler samples the registry every interval until the returned stop
// function is called. Stop is idempotent and takes a final sample so short
// transfers still get at least two observations (a rate needs both).
func (r *Registry) StartSampler(interval time.Duration) (stop func()) {
	if r == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	r.Sample() // prime the rate meters
	return every(interval, r.Sample)
}

// every calls fn every interval on a goroutine of its own until the returned
// stop function is called; stop calls fn a last time, waits for it, and is
// idempotent.
func every(interval time.Duration, fn func()) (stop func()) {
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fn()
			case <-done:
				fn()
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// TraceSeries returns the sampled series (active transfers, goodput, send
// rate, packet/retransmit/ack rates). The slices share state with the
// sampler; treat them as read-only.
func (r *Registry) TraceSeries() []*trace.Series {
	if r == nil {
		return nil
	}
	s := &r.sampler
	s.mu.Lock()
	defer s.mu.Unlock()
	s.initLocked()
	return []*trace.Series{
		s.active,
		s.goodput.Series(),
		s.sendMbs.Series(),
		s.pkts.Series(),
		s.retx.Series(),
		s.acks.Series(),
	}
}

// TraceCSV renders every sampled series as one CSV table with a shared
// time column — the same artefact shape the sim harness emits.
func (r *Registry) TraceCSV() string {
	if r == nil {
		return ""
	}
	return trace.CSV(r.TraceSeries()...)
}

// Charts renders each sampled series as a one-line ASCII sparkline chart,
// width glyphs wide.
func (r *Registry) Charts(width int) string {
	if r == nil {
		return ""
	}
	return trace.Dashboard(width, r.TraceSeries()...)
}

// StartReporter samples the registry every interval and writes a one-line
// aggregate summary to w each time, until the returned stop function is
// called. It is what the CLI binaries' -stats-interval flag turns on.
func (r *Registry) StartReporter(w io.Writer, interval time.Duration) (stop func()) {
	if r == nil || w == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	r.Sample()
	var prev Totals
	var prevAt time.Duration
	report := func() {
		r.Sample()
		snap := r.Snapshot()
		dt := (snap.At - prevAt).Seconds()
		if dt <= 0 {
			dt = interval.Seconds()
		}
		goodput := float64(snap.Totals.BytesReceived-prev.BytesReceived) * 8e-6 / dt
		sendRate := float64(snap.Totals.BytesSent-prev.BytesSent) * 8e-6 / dt
		lat := ""
		if d := snap.MergedRTT(); d.Count > 0 {
			lat = fmt.Sprintf(" rtt=%s/%s", time.Duration(d.P50).Round(10*time.Microsecond),
				time.Duration(d.P99).Round(10*time.Microsecond))
		}
		fmt.Fprintf(w, "[fobs] t=%.1fs active=%d sent=%d pkts (%d retx) recv=%d (%d dup) acks=%d/%d send=%.1fMb/s goodput=%.1fMb/s%s done=%d/%d\n",
			snap.At.Seconds(), snap.Active,
			snap.Totals.PacketsSent, snap.Totals.Retransmits,
			snap.Totals.Fresh, snap.Totals.Duplicates,
			snap.Totals.AcksReceived, snap.Totals.AcksSent,
			sendRate, goodput, lat,
			snap.Totals.Completed, snap.Totals.Completed+snap.Totals.Aborted)
		prev, prevAt = snap.Totals, snap.At
	}
	return every(interval, report) // stop writes one final line with the end-of-run totals
}
