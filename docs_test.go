package fobs

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameCodeThatExists: every backticked reference to code in
// DESIGN.md and README.md resolves against the source as it stands. A
// reference is a `pkg.Name` whose pkg is one of this repository's packages,
// a `Type.Member` whose Type is one of its types (a method or a field, its
// embedded types' included), the two combined (`pkg.Type.Member`), a
// `path/file.go` or a bare `file.go`. Names of the
// benchmark's ledger metrics (BENCHMARK.json) and of the repository's files
// (`BENCHMARK.json`) resolve too. A dotted span whose first word is neither a
// package nor a type of the repository must still start with a name the
// source knows: a package some file imports (`time.Now`), or an identifier
// declared somewhere — a variable, parameter, field or constant (`opts.Pace`).
// Narration of code that is gone belongs in CHANGES.md, where history is
// kept.
func TestDocsNameCodeThatExists(t *testing.T) {
	idx := indexSource(t, ".")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(b), "\n") {
			for _, m := range backticked.FindAllStringSubmatch(line, -1) {
				if ref := m[1]; !idx.resolves(ref) {
					t.Errorf("%s:%d: `%s` names no code of this repository", doc, n+1, ref)
				}
			}
		}
	}
}

// TestDocsResolves pins what resolves: code that exists, a standard package,
// a name declared somewhere and a file of the repository do; a dotted span
// that starts with a name the source does not know, or names a member a
// type lacks, does not.
func TestDocsResolves(t *testing.T) {
	idx := indexSource(t, ".")
	for ref, want := range map[string]bool{
		"time.Now":                  true,
		"opts.Pace":                 true,
		"udprt.Options.Pace":        true,
		"core.Sender.Step()":        true,
		"BENCHMARK.json":            true,
		"fixed_schedule.golden":     true,
		"go test ./...":             true,
		"noSuchType.Member":         false,
		"udprt.noSuchName":          false,
		"Options.NoSuchField":       false,
		"internal/core/nosuch.go":   false,
		"noSuchFile.golden":         false,
		"slowedController.Tick":     false,
		"udprt.RateCap.Limit":       true,
		"udprt.slowedController":    false,
		"core.RateCap.noSuchMember": false,
	} {
		if got := idx.resolves(ref); got != want {
			t.Errorf("resolves(%q) = %v, want %v", ref, got, want)
		}
	}
}

// backticked matches an inline code span in Markdown.
var backticked = regexp.MustCompile("`([^`]+)`")

// dotted is a candidate reference: dot-separated identifiers, with an
// optional call's parentheses.
var dotted = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+(\(\))?$`)

// sourceIndex is what the repository declares: by package name, its
// top-level names; by type name, its methods and fields and the types it
// embeds (across packages); every name its files import or declare at any
// scope; the base names of its files; and the ledger's metric names.
type sourceIndex struct {
	root    string
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
	names   map[string]bool
	files   map[string]bool
	metrics map[string]bool
}

// indexSource parses every Go file under root, the benchmark's module
// included, and reads the metric names BENCHMARK.json declares.
func indexSource(t *testing.T, root string) *sourceIndex {
	t.Helper()
	idx := &sourceIndex{root: root, pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, names: map[string]bool{}, files: map[string]bool{}, metrics: map[string]bool{}}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() {
			return nil
		}
		idx.files[d.Name()] = true
		if !strings.HasSuffix(path, ".go") || strings.Contains(filepath.ToSlash(path), "testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		idx.declared(f)
		pkg := f.Name.Name
		if pkg == "main" {
			pkg = filepath.Base(filepath.Dir(path))
		}
		pkg = strings.TrimSuffix(pkg, "_test")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(idx.pkgs, pkg, decl.Name.Name)
				} else {
					add(idx.members, receiverType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(idx.pkgs, pkg, spec.Name.Name)
						if idx.members[spec.Name.Name] == nil { // a type with no members is still a type
							idx.members[spec.Name.Name] = map[string]bool{}
						}
						addFields(spec.Type, func(name string, embedded bool) {
							add(idx.members, spec.Name.Name, name)
							if embedded {
								idx.embeds[spec.Name.Name] = append(idx.embeds[spec.Name.Name], name)
							}
						})
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(idx.pkgs, pkg, n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"end_to_end", "per_layer"} {
		var rows []struct{ Name string }
		if err := json.Unmarshal(raw[key], &rows); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			idx.metrics[r.Name] = true
		}
	}
	return idx
}

// declared adds to the index every name f imports — its alias, or its path's
// last element — and every identifier f declares at any scope.
func (idx *sourceIndex) declared(f *ast.File) {
	for _, imp := range f.Imports {
		name := filepath.Base(strings.Trim(imp.Path.Value, `"`))
		if imp.Name != nil {
			name = imp.Name.Name
		}
		idx.names[name] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		var ids []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				ids = n.Lhs
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				ids = []ast.Expr{n.Key, n.Value}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				ids = append(ids, id)
			}
		case *ast.Field:
			for _, id := range n.Names {
				ids = append(ids, id)
			}
		}
		for _, e := range ids {
			if id, ok := e.(*ast.Ident); ok {
				idx.names[id.Name] = true
			}
		}
		return true
	})
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// addFields reports the fields of a struct type and the methods of an
// interface type, embedded ones by their type's name.
func addFields(e ast.Expr, add func(name string, embedded bool)) {
	var list *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		list = x.Fields
	case *ast.InterfaceType:
		list = x.Methods
	default:
		return
	}
	for _, f := range list.List {
		for _, n := range f.Names {
			add(n.Name, false)
		}
		if len(f.Names) == 0 {
			add(receiverType(f.Type), true)
		}
	}
}

// resolves reports whether a backticked span is not a reference to code, or
// is one to code that exists.
func (idx *sourceIndex) resolves(ref string) bool {
	if strings.HasSuffix(ref, ".go") && !strings.ContainsAny(ref, "*{ ") {
		if !strings.Contains(ref, "/") {
			return idx.files[ref]
		}
		_, err := os.Stat(filepath.Join(idx.root, ref))
		return err == nil
	}
	if idx.metrics[ref] || idx.files[ref] || !dotted.MatchString(ref) {
		return true
	}
	parts := strings.Split(strings.TrimSuffix(ref, "()"), ".")
	if decls, ok := idx.pkgs[parts[0]]; ok {
		if !decls[parts[1]] {
			return false
		}
		if len(parts) == 2 {
			return true
		}
		parts = parts[1:]
	}
	if _, ok := idx.members[parts[0]]; !ok {
		return idx.names[parts[0]] // neither a package nor a type of the repository
	}
	return len(parts) == 2 && idx.hasMember(parts[0], parts[1], 0)
}

// hasMember reports whether typ has the method or field name, its embedded
// types' included.
func (idx *sourceIndex) hasMember(typ, name string, depth int) bool {
	if idx.members[typ][name] {
		return true
	}
	for _, e := range idx.embeds[typ] {
		if depth < 4 && idx.hasMember(e, name, depth+1) {
			return true
		}
	}
	return false
}
