// Command benchmark is the repository's benchmark: six loopback/WAN
// workloads timed from outside the program, a per-layer ledger and a
// traced pass. See README.md.
//
// With -workload it runs that workload in this process and prints one JSON
// result as its last line (the acceptance driver's protocol). Without, it
// runs every workload — an untraced and a traced run each, every run a
// child process of this binary so CPU, peak RSS and allocation figures
// belong to one workload — and prints the lot. With -aa N it runs N
// alternating pairs of untraced runs of this same binary per workload and
// prints each metric's median, quartiles and spread: the evidence the
// bounds in BENCHMARK.json rest on.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", 1, "seeds object bytes, the emulator's loss stream and the scheduler exchange's drops")
		seconds = flag.Float64("seconds", 12, "length of the timed window; the traced pass is capped at 4 s")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke   = flag.Bool("smoke", false, "1 s windows and reduced ledger iteration counts")
		aa      = flag.Int("aa", 0, "A/A mode: this many alternating pairs of untraced runs per workload")
		ledger  = flag.Bool("ledger", true, "traced run: include the workload-independent stage ledger (the full pass runs it once, not per workload)")
	)
	flag.Parse()
	if *smoke {
		*seconds = 1
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *aa > 0:
		err = aaMode(*aa, *name, *seed, *seconds)
	case *name == "":
		err = fullPass(*seed, *seconds, *smoke)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		window := time.Duration(*seconds * float64(time.Second))
		var res *result
		if *trace == 0 {
			res, err = w.endToEnd(*seed, window)
		} else {
			res, err = w.perLayer(*seed, window, spansFile(w.name), *ledger, *smoke)
		}
		if err == nil {
			// A run whose operations failed still reports: the result
			// carries the count, and deciding what it means is the
			// caller's business (the full pass exits non-zero on it).
			err = report(os.Stdout, res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report prints every metric by name with its unit, then the result object
// as the last line.
func report(out *os.File, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-32s %16.4f %s\n", n, m.Value, m.Unit)
	}
	if res.firstErr != nil {
		fmt.Fprintf(out, "# first failure: %v\n", res.firstErr)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// child runs this binary on one workload and parses the result object off
// the last line of its output; the lines before it are dropped.
func child(w *workload, seed int64, seconds float64, extra ...string) (*result, error) {
	args := append([]string{
		"-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
	}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", w.name, strings.Join(extra, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	res := &result{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s: last output line is not a result: %w", w.name, err)
	}
	return res, nil
}

// fullPass runs every workload untraced, then traced, and prints each
// metric by name with its unit. Any failed operation fails the pass.
func fullPass(seed int64, seconds float64, smoke bool) error {
	start := time.Now()
	printEnvironment()
	failed := 0
	show := func(w *workload, kind string, res *result, names []string) {
		fmt.Printf("\n== %s (%s): %d operations, %d failed\n", w.name, kind, res.Attempted, res.Failed)
		for _, n := range names {
			if m, ok := res.Metrics[n]; ok {
				fmt.Printf("%-32s %16.4f %s\n", n, m.Value, m.Unit)
			}
		}
		failed += res.Failed
	}
	var extra []string
	if smoke {
		extra = []string{"-smoke"}
	}
	for i := range workloads {
		w := &workloads[i]
		res, err := child(w, seed, seconds, append(extra, "-trace", "0")...)
		if err != nil {
			return err
		}
		show(w, "untraced, "+w.why, res, endToEndNames)
	}
	for i := range workloads {
		w := &workloads[i]
		// The stage ledger does not depend on the workload: once is enough.
		args := append(extra, "-trace", "1", "-ledger="+strconv.FormatBool(i == 0))
		res, err := child(w, seed, seconds, args...)
		if err != nil {
			return err
		}
		show(w, "traced", res, perLayerNames())
	}
	fmt.Printf("\nfull pass took %.0fs\n", time.Since(start).Seconds())
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// aaMode runs pairs of untraced runs of this one binary — set A and set B,
// alternating, a fresh seed per pair — and prints for every end-to-end
// metric each set's median and quartile spread and the gap between the two
// medians. Both sets are the same code, so the gap is noise: a bound must
// clear it. Failures are reported, not fatal.
func aaMode(pairs int, only string, seed int64, seconds float64) error {
	printEnvironment()
	for i := range workloads {
		w := &workloads[i]
		if only != "" && only != w.name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		failed := 0
		for p := 0; p < pairs; p++ {
			for side := range sets {
				res, err := child(w, seed+int64(p), seconds, "-trace", "0")
				if err != nil {
					return err
				}
				failed += res.Failed
				for n, m := range res.Metrics {
					sets[side][n] = append(sets[side][n], m.Value)
				}
			}
		}
		fmt.Printf("\n== %s: %d pairs of %gs runs, %d failed operations\n", w.name, pairs, seconds, failed)
		fmt.Printf("%-18s %12s %9s %12s %9s %9s\n", "metric", "median A", "spread A", "median B", "spread B", "B vs A")
		for _, n := range endToEndNames {
			a, b := sets[0][n], sets[1][n]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			gap := 0.0
			if ma != 0 {
				gap = 100 * (mb - ma) / ma
			}
			fmt.Printf("%-18s %12.4f %8.2f%% %12.4f %8.2f%% %+8.2f%%\n",
				n, ma, 100*spread(a), mb, 100*spread(b), gap)
		}
	}
	return nil
}
