package fobs

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.txt from this tree's exported declarations")

// TestAPIGolden pins the package's exported surface: one line per exported
// top-level declaration of its non-test files — its kind, its name and its
// alias target, value or signature — sorted by name, is the committed
// testdata/api.txt, line for line. A declaration added, removed or changed
// fails here until `go test -run '^TestAPIGolden$' -update .` rewrites the
// file, so the diff of api.txt shows every change to what a caller sees.
func TestAPIGolden(t *testing.T) {
	got := strings.Join(exportedAPI(t, "."), "\n") + "\n"
	golden := filepath.Join("testdata", "api.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	for _, l := range have {
		if !slices.Contains(want, l) {
			t.Errorf("not in %s: %s", golden, l)
		}
	}
	for _, l := range want {
		if !slices.Contains(have, l) {
			t.Errorf("in %s but not declared: %s", golden, l)
		}
	}
	if !t.Failed() && got != string(b) {
		t.Errorf("%s is not in this test's order and layout; rewrite it with -update", golden)
	}
}

// exportedAPI lists the exported top-level declarations of the non-test Go
// files in dir, one line each, sorted by name.
func exportedAPI(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	text := func(node any) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(buf.String()), " ")
	}
	type line struct{ name, text string }
	var lines []line
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.IsExported() {
					sig := &ast.FuncDecl{Name: decl.Name, Type: decl.Type}
					lines = append(lines, line{decl.Name.Name, text(sig)})
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							s := *spec
							s.Doc, s.Comment = nil, nil
							lines = append(lines, line{spec.Name.Name, "type " + text(&s)})
						}
					case *ast.ValueSpec:
						for i, n := range spec.Names {
							if !n.IsExported() {
								continue
							}
							l := decl.Tok.String() + " " + n.Name
							if spec.Type != nil {
								l += " " + text(spec.Type)
							}
							if i < len(spec.Values) {
								l += " = " + text(spec.Values[i])
							}
							lines = append(lines, line{n.Name, l})
						}
					}
				}
			}
		}
	}
	slices.SortFunc(lines, func(a, b line) int { return strings.Compare(a.name, b.name) })
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = l.text
	}
	return out
}
