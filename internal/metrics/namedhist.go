// Named histograms: registry-level distributions for orchestration-layer
// quantities that are not per-transfer latencies — a task's queue wait,
// its time-to-done, its attempt count — fed by the transfer daemon on
// state transitions and surfaced through Snapshot, /debug/fobs and the
// Prometheus exposition. Like the named gauges they are coarse
// instruments (a mutex-guarded name lookup per observation), but the
// histograms themselves are the same lock-free log-bucketed structure
// the hot paths use, so an observation is still cheap and the snapshot
// math (quantiles, merging, Prometheus cumulative form) is shared.
package metrics

// ObserveHistogram records one value into the named histogram, creating
// it on first use. By convention names carry their unit as a suffix
// ("_ns" for nanoseconds); the Prometheus renderer converts "_ns"
// histograms to seconds. Safe on a nil registry and for concurrent use.
func (r *Registry) ObserveHistogram(name string, v int64) {
	if r == nil {
		return
	}
	r.hmu.Lock()
	h := r.hists[name]
	if h == nil {
		if r.hists == nil {
			r.hists = make(map[string]*Histogram)
		}
		h = new(Histogram)
		r.hists[name] = h
	}
	r.hmu.Unlock()
	// Observe outside the lock: the histogram is atomic, and holding hmu
	// here would serialize observers on different names.
	h.Observe(v)
}

// NamedHistogram freezes one named histogram; ok reports whether it
// exists. Safe on a nil registry.
func (r *Registry) NamedHistogram(name string) (s HistogramSnapshot, ok bool) {
	if r == nil {
		return s, false
	}
	r.hmu.Lock()
	h := r.hists[name]
	r.hmu.Unlock()
	if h == nil {
		return s, false
	}
	return h.Snapshot(), true
}

// histsSnapshot freezes every named histogram for a Snapshot; nil when
// none was ever observed, so JSON omits the field entirely.
func (r *Registry) histsSnapshot() map[string]HistogramSnapshot {
	r.hmu.Lock()
	defer r.hmu.Unlock()
	if len(r.hists) == 0 {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(r.hists))
	for k, h := range r.hists {
		out[k] = h.Snapshot()
	}
	return out
}

// HistogramNames returns the snapshot's named-histogram names sorted, so
// renderers emit a deterministic order.
func (s Snapshot) HistogramNames() []string { return sortedNames(s.Histograms) }
