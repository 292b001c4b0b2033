package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSmokeEveryWorkload sets each workload up once, runs a short window
// and checks that nothing failed and every end-to-end metric is a usable,
// non-zero number (the acceptance driver refuses metrics that read zero).
func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res := newResult()
			inst, took, err := w.ready(1, false, res)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			var tl tally
			tl.measure(inst, 200*time.Millisecond, 50*time.Millisecond, nil, nil)
			if err := res.fillEndToEnd(&tl, []float64{took.Seconds()}); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted <= w.warmOps {
				t.Fatalf("%d of %d operations failed, first: %v", res.Failed, res.Attempted, res.firstErr)
			}
			for _, n := range endToEndNames {
				if m, ok := res.Metrics[n]; !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s = %+v", n, m)
				}
			}
			if len(res.Metrics) != len(endToEndNames) {
				t.Errorf("run reported %d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEndNames))
			}
		})
	}
}

// TestTracedRun runs the whole traced pass, reduced, on the cheapest
// workload: every per-layer metric must be reported, the dedup repeats
// must be a quarter of the tasks, and in the span file every span's self
// time plus what its children cover must equal its duration.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every isolated stage")
	}
	w, _ := findWorkload("small_objects")
	path := filepath.Join(t.TempDir(), "spans.json")
	res, err := w.perLayer(1, 300*time.Millisecond, path, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%d of %d operations failed, first: %v", res.Failed, res.Attempted, res.firstErr)
	}
	for _, n := range perLayerNames() {
		if m, ok := res.Metrics[n]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
			t.Errorf("%s = %+v", n, m)
		}
	}
	if len(res.Metrics) != len(perLayerNames()) {
		t.Errorf("run reported %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayerNames()))
	}
	if hit := res.Metrics["tasks.dedup_hit_pct"].Value; hit < 20 || hit > 30 {
		t.Errorf("tasks.dedup_hit_pct = %.1f, want about 25", hit)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	kids := make(map[int][]int)
	names := make(map[string]int)
	for i, s := range spans {
		names[s.Name]++
		if s.ID != i || s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent >= 0 {
			if spans[s.Parent].Op != s.Op {
				t.Fatalf("span %d belongs to op %d, its parent to op %d", i, s.Op, spans[s.Parent].Op)
			}
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i, s := range spans {
		if got := s.Self + covered(spans, kids[i], s.Start, s.End); got != s.End-s.Start {
			t.Fatalf("span %d: self %d + covered = %d, duration %d", i, s.Self, got, s.End-s.Start)
		}
	}
	for _, n := range []string{"op", "stamp", "send", "accept", "verify"} {
		if names[n] == 0 || names[n] != names["op"] {
			t.Errorf("%d %q spans for %d operations", names[n], n, names["op"])
		}
	}
}

// TestTaskSpans checks the fobsd_tasks span tree: submit, then queued and
// running rebuilt from the task's own timeline, then observe.
func TestTaskSpans(t *testing.T) {
	w, _ := findWorkload("fobsd_tasks")
	inst, err := w.setUp(1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	tr := newTracer()
	var tl tally
	repeats := 0
	inst.run(func() bool { return tl.attempted >= 8 }, tr, func(r opResult) {
		tl.add(r)
		if r.repeat {
			repeats++
		}
	})
	if tl.failed > 0 {
		t.Fatal(tl.firstErr)
	}
	if repeats != tl.attempted/repeatEvery {
		t.Errorf("%d dedup repeats among %d tasks", repeats, tl.attempted)
	}
	fillSelfTimes(tr.spans)
	count := make(map[string]int)
	for _, s := range tr.spans {
		count[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Parent >= 0 {
			if p := tr.spans[s.Parent]; s.Start < p.Start || s.End > p.End {
				t.Errorf("%s [%d,%d] outside its op [%d,%d]", s.Name, s.Start, s.End, p.Start, p.End)
			}
		}
	}
	for _, n := range []string{"submit", "queued", "running", "observe"} {
		if count[n] != count["op"] {
			t.Errorf("%d %q spans for %d tasks", count[n], n, count["op"])
		}
	}
	if count["stamp"] != count["op"]-repeats {
		t.Errorf("%d stamp spans: repeats write no file", count["stamp"])
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // op
		{ID: 1, Parent: 0, Start: 5, End: 10},     // stamp
		{ID: 2, Parent: 0, Start: 10, End: 80},    // send
		{ID: 3, Parent: 0, Start: 8, End: 90},     // accept, overlapping both
		{ID: 4, Parent: 0, Start: 92, End: 97},    // verify
		{ID: 5, Parent: 2, Start: 20, End: 30},    // a grandchild
		{ID: 6, Parent: 0, Start: 95, End: 120},   // overruns its parent: clipped
		{ID: 7, Parent: -1, Start: 200, End: 200}, // empty
	}
	fillSelfTimes(spans)
	// The children cover [5,90] and [92,100] of the op: 7 units are its own.
	want := []int64{7, 5, 60, 82, 5, 10, 25, 0}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %d self = %d, want %d", i, s.Self, want[i])
		}
	}
}

func TestTailPercentRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		got := tailPercent(c.n)
		if got != c.want {
			t.Errorf("tailPercent(%d) = %g, want %g", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (100 - got) / 100; got != 50 && beyond < 10-1e-9 {
			t.Errorf("p%g of %d samples leaves only %.1f beyond it", got, c.n, beyond)
		}
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if pct, val := tail(v); pct != 99 || val != 990 {
		t.Errorf("tail of 1..1000 = p%g %g, want p99 990", pct, val)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which is what the acceptance driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{12, 7, 3, 9, 15, 21, 4, 8, 10, 30}
	q1, q2, q3 := quartiles(v)
	if q1 != 6.25 || q2 != 9.5 || q3 != 16.5 {
		t.Errorf("quartiles = %g %g %g, Python says 6.25 9.5 16.5", q1, q2, q3)
	}
	if got, want := spread(v), (16.5-6.25)/9.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestNamesAndBenchmarkFile checks every name against the character rule
// (starts with a letter or digit; letters, digits, '_', '.', '-'; at most
// 64), that no name is used twice, and that BENCHMARK.json lists exactly
// the workloads and metrics this harness reports.
func TestNamesAndBenchmarkFile(t *testing.T) {
	ok := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !ok.MatchString(n) {
			t.Errorf("name %q breaks the character rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i := range workloads {
		check(workloads[i].name)
	}
	for _, n := range endToEndNames {
		check(n)
	}
	for _, n := range perLayerNames() {
		check(n)
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	var e2e, layer []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		layer = append(layer, m.Name)
	}
	same := func(what string, got, want []string) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the harness reports %d", len(got), what, len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d is %q in BENCHMARK.json, %q in the harness", what, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", e2e, endToEndNames)
	same("per-layer", layer, perLayerNames())
}
