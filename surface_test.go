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

// testOnlyExports lists the exported internal/ functions ("pkg.Name")
// and methods ("pkg.Type.Name") that only tests call and that stay on
// purpose, each with its reason.
var testOnlyExports = map[string]string{
	"arch.Grid":                    "cross-package test fixture",
	"arch.Linear":                  "cross-package test fixture",
	"arch.Ring":                    "cross-package test fixture",
	"arch.Device.HostilePairs":     "cross-package test fixture",
	"circuit.Circuit.S":            "the goldenPST fixtures build circuits with it",
	"circuit.Circuit.Sdg":          "the goldenPST fixtures build circuits with it",
	"circuit.Circuit.Z":            "the goldenPST fixtures build circuits with it",
	"circuit.Circuit.SWAP":         "the goldenPST fixtures build circuits with it",
	"circuit.Circuit.MeasureCount": "cross-package test fixture",
	"graph.Graph.Connected":        "cross-package test fixture",
	"graph.Graph.SubsetConnected":  "cross-package test fixture",
	"core.Strategy.MarshalJSON":    "encoding/json calls it",
	"core.Strategy.UnmarshalJSON":  "encoding/json calls it",
	"router.RouteSingle":           "cross-package test fixture",
	"fp.Eq":                        "the comparison the floateq lint check prescribes",
	"lint.CheckFile":               "the lint fixtures' loader",
	"srb.EstimateMatrix":           "awaits a consumer or its deletion (ROADMAP, SRB item)",
}

// surfaceSkip lists internal/ packages the guard does not inspect.
var surfaceSkip = map[string]string{
	"internal/faultinject": "its API belongs to the chaos suite; Config.Faults is nil in production",
}

// TestNoTestOnlyExports guards against library surface nothing runs.
// An exported top-level function under internal/ must be named by some
// non-test file besides its own declaration; an exported method must
// appear as a selector (x.Name) or as an interface method in some
// non-test file. Every non-test .go file in the tree counts as a caller,
// bench/ (its own module), cmd/ and examples/ included; analyzer
// fixtures under testdata/ do not. Matching is by name only, so a
// same-named identifier elsewhere can hide dead code but never flags
// live code.
func TestNoTestOnlyExports(t *testing.T) {
	used := map[string]bool{}      // identifier names outside those declarations
	selected := map[string]bool{}  // selector and interface-method names
	funcs := map[string]string{}   // "pkg.Name" -> Name, per exported function
	methods := map[string]string{} // "pkg.Type.Name" -> Name, per exported method
	declIdents := map[*ast.Ident]bool{}
	files := nonTestFiles(t)
	for _, sf := range files {
		if !sf.inspected() {
			continue
		}
		f := sf.f
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				funcs[f.Name.Name+"."+fn.Name.Name] = fn.Name.Name
				declIdents[fn.Name] = true
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
				methods[f.Name.Name+"."+id.Name+"."+fn.Name.Name] = fn.Name.Name
			}
		}
	}
	for _, sf := range files {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declIdents[n] {
					used[n.Name] = true
				}
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						selected[name.Name] = true
					}
				}
			}
			return true
		})
	}
	var dead []string
	for name, ident := range funcs {
		if _, ok := testOnlyExports[name]; !ok && !used[ident] {
			dead = append(dead, name)
		}
	}
	for name, ident := range methods {
		if _, ok := testOnlyExports[name]; !ok && !selected[ident] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is exported but no non-test file calls it: delete it, or allowlist it with a reason", name)
	}
	for name := range testOnlyExports {
		_, isFunc := funcs[name]
		_, isMethod := methods[name]
		if !isFunc && !isMethod {
			t.Errorf("allowlisted %s is not an exported internal/ function or method", name)
		}
	}
}

// srcFile is one parsed non-test Go file and its slash-separated
// directory.
type srcFile struct {
	dir string
	f   *ast.File
}

// inspected reports whether the file belongs to an internal/ package
// the guards inspect.
func (sf srcFile) inspected() bool {
	_, skip := surfaceSkip[sf.dir]
	return !skip && strings.HasPrefix(sf.dir, "internal/")
}

// nonTestFiles parses every non-test .go file in the tree, bench/ (its
// own module), cmd/ and examples/ included; analyzer fixtures under
// testdata/ and hidden directories are skipped.
func nonTestFiles(t *testing.T) []srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
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
		files = append(files, srcFile{dir: filepath.ToSlash(filepath.Dir(path)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// testOnlyConfigFields lists the exported fields of internal/ Config
// and *Options structs ("pkg.Type.Field") that no program sets and that
// stay on purpose, each with its reason.
var testOnlyConfigFields = map[string]string{
	"service.Config.Faults": "the chaos suite's fault-injection hook; nil in production",
	"srb.Config.Length":     "awaits a consumer or its deletion (ROADMAP, SRB item)",
}

// TestNoConfigFieldOnlyTestsSet guards against knobs no program turns.
// Every exported field of an internal/ struct named Config or *Options
// must be set by some non-test file outside a Default* function: as a
// composite-literal key, an assignment or inc/dec target, or the
// operand of &x.Field (a flag binding). Matching is by name only, as in
// TestNoTestOnlyExports, so a same-named field elsewhere can hide a
// dead knob but never flags a live one.
func TestNoConfigFieldOnlyTestsSet(t *testing.T) {
	files := nonTestFiles(t)
	fields := map[string]string{} // "pkg.Type.Field" -> Field
	for _, sf := range files {
		if !sf.inspected() {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || (ts.Name.Name != "Config" && !strings.HasSuffix(ts.Name.Name, "Options")) {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.IsExported() {
						fields[sf.f.Name.Name+"."+ts.Name.Name+"."+name.Name] = name.Name
					}
				}
			}
			return false
		})
	}
	set := map[string]bool{}
	setTarget := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			set[sel.Sel.Name] = true
		}
	}
	for _, sf := range files {
		for _, d := range sf.f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Default") {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								set[key.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setTarget(lhs)
					}
				case *ast.IncDecStmt:
					setTarget(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setTarget(n.X)
					}
				}
				return true
			})
		}
	}
	var dead []string
	for name, field := range fields {
		if _, ok := testOnlyConfigFields[name]; !ok && !set[field] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is never set outside tests and Default* functions: make it a constant, or allowlist it with a reason", name)
	}
	for name := range testOnlyConfigFields {
		if _, ok := fields[name]; !ok {
			t.Errorf("allowlisted %s is not an exported field of an internal/ Config or *Options struct", name)
		} else if set[fields[name]] {
			t.Errorf("allowlisted %s is set by a program: drop it from the allowlist", name)
		}
	}
}
