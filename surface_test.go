package qucloud

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported internal/ functions that only tests
// call and that stay on purpose, each with its reason.
var testOnlyExports = map[string]string{
	"arch.Grid":          "cross-package test fixture",
	"arch.Linear":        "cross-package test fixture",
	"arch.Ring":          "cross-package test fixture",
	"router.RouteSingle": "cross-package test fixture",
	"fp.Eq":              "the comparison the floateq lint check prescribes",
	"lint.CheckFile":     "the lint fixtures' loader",
	"srb.EstimateMatrix": "awaits a consumer or its deletion (ROADMAP, SRB item)",
}

// TestNoTestOnlyExports guards against library surface nothing runs: an
// exported top-level function under internal/ must be named by some
// non-test file besides its own declaration. Every non-test .go file in
// the tree counts as a caller, bench/ (its own module), cmd/ and
// examples/ included; analyzer fixtures under testdata/ do not. Matching
// is by identifier name only, so a same-named identifier elsewhere can
// hide a dead function but never flags a live one.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}    // identifier names outside those declarations
	decls := map[string]string{} // "pkg.Name" -> Name, per exported internal/ function
	declIdents := map[*ast.Ident]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				decls[f.Name.Name+"."+fn.Name.Name] = fn.Name.Name
				declIdents[fn.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var dead []string
	for name, ident := range decls {
		if _, ok := testOnlyExports[name]; !ok && !used[ident] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is exported but no non-test file calls it: delete it, or allowlist it with a reason", name)
	}
	for name := range testOnlyExports {
		if _, ok := decls[name]; !ok {
			t.Errorf("allowlisted %s is not an exported internal/ function", name)
		}
	}
}
