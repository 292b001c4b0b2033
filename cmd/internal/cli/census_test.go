package cli

import (
	"bufio"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/hpcnet/fobs"
)

// censusRow is one row of EXPERIMENTS.md's knob census: the knob
// (Options.X, Config.X or -flag), its callers and its verdict.
type censusRow struct {
	knob, callers, verdict string
}

// readCensus parses the table of EXPERIMENTS.md's "Knob census" section,
// the one whose header starts "| Knob |".
func readCensus(t *testing.T) []censusRow {
	t.Helper()
	f, err := os.Open("../../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []censusRow
	section, table := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			section = strings.HasPrefix(line, "## Knob census")
		case section && strings.HasPrefix(line, "| Knob |"):
			table = true
		case !strings.HasPrefix(line, "|"):
			table = false
		}
		if !table || !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), " | ")
		if len(cells) != 4 {
			t.Fatalf("census row with %d cells, want 4: %s", len(cells), line)
		}
		knob := strings.TrimSpace(cells[0])
		rows = append(rows, censusRow{
			knob:    strings.Trim(knob, "`"),
			callers: cells[1],
			verdict: strings.TrimSpace(cells[3]),
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("EXPERIMENTS.md has no knob census table")
	}
	return rows
}

// knobs is every knob as the tree has it: each exported field of
// fobs.Options and fobs.Config, and each flag of the four commands, with
// the commands that offer it.
func knobs() map[string][]string {
	have := map[string][]string{}
	for prefix, v := range map[string]any{"Options.": fobs.Options{}, "Config.": fobs.Config{}} {
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			if f.IsExported() {
				have[prefix+f.Name] = nil
			}
		}
	}
	for _, spec := range []Spec{Send, Recv, Copy, Loopbench} {
		Parse(spec, nil).fs.VisitAll(func(f *flag.Flag) {
			have["-"+f.Name] = append(have["-"+f.Name], spec.Name)
		})
	}
	return have
}

// census checks rows against have and returns what disagrees: a knob
// without a row, a row twice, a keep or simulator-only row naming nothing,
// a test-only or gone row naming a knob that still exists, a flag row whose
// callers leave out a command that offers the flag.
func census(rows []censusRow, have map[string][]string) []string {
	var bad []string
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.knob] {
			bad = append(bad, fmt.Sprintf("%s: two rows", r.knob))
		}
		seen[r.knob] = true
		cmds, exists := have[r.knob]
		verdict := strings.TrimRight(strings.Fields(r.verdict + " ?")[0], ":;")
		switch verdict {
		case "keep", "simulator-only":
			if !exists {
				bad = append(bad, fmt.Sprintf("%s: the row says %q, but it no longer exists", r.knob, verdict))
			}
			for _, cmd := range cmds {
				if !strings.Contains(r.callers, "`"+cmd+"`") {
					bad = append(bad, fmt.Sprintf("%s: %s offers it, but the row's callers do not name it", r.knob, cmd))
				}
			}
		case "test-only", "gone":
			if exists {
				bad = append(bad, fmt.Sprintf("%s: the row says %q, but it still exists", r.knob, verdict))
			}
		default:
			bad = append(bad, fmt.Sprintf("%s: unknown verdict %q", r.knob, r.verdict))
		}
	}
	for k := range have {
		if !seen[k] {
			bad = append(bad, fmt.Sprintf("%s: no row in the knob census", k))
		}
	}
	sort.Strings(bad)
	return bad
}

// TestKnobCensus holds EXPERIMENTS.md's knob census to the tree: every
// Options and Config field and every flag of fobs-send, fobs-recv, fobs-cp
// and fobs-loopbench has a row, and every row names a knob that exists, or says that
// it went. It logs the counts `make knobs` prints.
func TestKnobCensus(t *testing.T) {
	have := knobs()
	for _, problem := range census(readCensus(t), have) {
		t.Error(problem)
	}
	count := map[string]int{}
	for k, cmds := range have {
		kind, _, field := strings.Cut(k, ".")
		if !field {
			kind = "flag"
		}
		count[kind]++
		for _, cmd := range cmds {
			count[cmd]++
		}
	}
	t.Logf("fobs.Options: %d exported fields", count["Options"])
	t.Logf("fobs.Config: %d fields", count["Config"])
	for _, spec := range []Spec{Send, Recv, Copy, Loopbench} {
		t.Logf("%s: %d flags", spec.Name, count[spec.Name])
	}
	t.Logf("flag names across the four commands: %d", count["flag"])
}

// TestCensusNamesWhatWent: the check itself, on the knobs the tree had
// before the census, names each one the census removed.
func TestCensusNamesWhatWent(t *testing.T) {
	have := knobs()
	for _, k := range []string{"Options.ReadBuffer", "Options.WriteBuffer", "Options.IdlePoll", "Options.IOBatch"} {
		have[k] = nil
	}
	for _, k := range []string{"-ack-freq", "-batch", "-io-batch", "-no-fastpath"} {
		have[k] = []string{"fobs-send"}
	}
	got := strings.Join(census(readCensus(t), have), "\n")
	for _, k := range []string{"Options.IdlePoll", "Options.IOBatch", "Options.ReadBuffer", "-ack-freq", "-io-batch"} {
		if !strings.Contains(got, k+": the row says") {
			t.Errorf("census of the earlier knobs does not name %s:\n%s", k, got)
		}
	}
}

// TestCommandsDeclareNoFlags: the commands whose flags this package declares
// import no flag package of their own, so none can declare a flag a second
// time, with a second help text or a default of its own.
func TestCommandsDeclareNoFlags(t *testing.T) {
	for _, spec := range []Spec{Send, Recv, Copy, Loopbench} {
		srcs, err := filepath.Glob(filepath.Join("..", "..", spec.Name, "*.go"))
		if err != nil || len(srcs) == 0 {
			t.Fatalf("%s: no source (%v)", spec.Name, err)
		}
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), src, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"flag"` {
					t.Errorf("%s imports flag: its flags belong in cmd/internal/cli", src)
				}
			}
		}
	}
}
