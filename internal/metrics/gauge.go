// Named gauges: registry-level instantaneous values for quantities that
// are not per-transfer counters — queue depths, worker occupancy, a
// tenant's configured rate cap — fed by orchestration layers like the
// transfer daemon and surfaced through Snapshot, /debug/fobs and the
// Prometheus exposition. Gauges are deliberately coarse instruments: a
// mutex-guarded map touched on state transitions (a task changing state,
// a worker starting), never on the per-packet hot paths, which keeps the
// package's allocation and locking constraints where they matter.
package metrics

import (
	"maps"
	"slices"
)

// SetGauge sets the named gauge to v, creating it on first use. Safe on a
// nil registry and for concurrent use.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.gmu.Lock()
	if r.gauges == nil {
		r.gauges = make(map[string]float64)
	}
	r.gauges[name] = v
	r.gmu.Unlock()
}

// AddGauge adjusts the named gauge by delta (negative deltas decrement),
// creating it at delta on first use. Safe on a nil registry.
func (r *Registry) AddGauge(name string, delta float64) {
	if r == nil {
		return
	}
	r.gmu.Lock()
	if r.gauges == nil {
		r.gauges = make(map[string]float64)
	}
	r.gauges[name] += delta
	r.gmu.Unlock()
}

// DeleteGauge drops the named gauge from the registry (a retired tenant's
// instruments should disappear, not linger at their last value). Safe on
// a nil registry and on unknown names.
func (r *Registry) DeleteGauge(name string) {
	if r == nil {
		return
	}
	r.gmu.Lock()
	delete(r.gauges, name)
	r.gmu.Unlock()
}

// Gauge reads one gauge; ok reports whether it exists. Safe on a nil
// registry.
func (r *Registry) Gauge(name string) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	r.gmu.Lock()
	v, ok = r.gauges[name]
	r.gmu.Unlock()
	return v, ok
}

// gaugesSnapshot copies the gauge map for a Snapshot; nil when no gauge
// was ever set, so JSON omits the field entirely.
func (r *Registry) gaugesSnapshot() map[string]float64 {
	r.gmu.Lock()
	defer r.gmu.Unlock()
	if len(r.gauges) == 0 {
		return nil
	}
	return maps.Clone(r.gauges)
}

// GaugeNames returns the snapshot's gauge names sorted, so renderers emit
// a deterministic order.
func (s Snapshot) GaugeNames() []string { return sortedNames(s.Gauges) }

// sortedNames returns m's keys in order, nil for an empty map.
func sortedNames[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
