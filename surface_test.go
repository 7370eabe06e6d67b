package qucloud

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
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
	"circuit.Circuit.Y":            "the goldenPST fixtures build circuits with it",
	"circuit.Circuit.Z":            "the goldenPST fixtures build circuits with it",
	"circuit.Circuit.SWAP":         "the goldenPST fixtures build circuits with it",
	"circuit.Circuit.MeasureCount": "cross-package test fixture",
	"graph.Graph.Connected":        "cross-package test fixture",
	"graph.Graph.SubsetConnected":  "cross-package test fixture",
	"fp.Eq":                        "the comparison the floateq lint check prescribes",
	"lint.CheckFile":               "the lint fixtures' loader",
}

// TestNoTestOnlyExports guards against library surface nothing runs.
// An exported top-level function or method under internal/ must be
// referenced by some non-test file besides its own declaration, or, for
// a method, its receiver type must implement an interface that has the
// method (fmt.Stringer, fleet.Policy, ...: callers reach it through
// the interface). References and implementations are resolved by type,
// so a same-named function or method elsewhere never hides a dead one.
// Every non-test package that lint.LoadModule loads counts as a caller:
// cmd/, examples/ and bench/ (its own module, type-checked here from
// the same source) included; analyzer fixtures under testdata/ do not.
func TestNoTestOnlyExports(t *testing.T) {
	t.Parallel()
	pkgs, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[*types.Func]string{} // exported internal/ funcs and methods -> "pkg.Name" / "pkg.Type.Name"
	used := map[*types.Func]bool{}    // referenced outside their declaration
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: %v", p.Rel, p.TypeErrors[0])
		}
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		if !strings.HasPrefix(p.Rel, "internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				name := fn.Pkg().Name() + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					typ := recv.Type()
					if ptr, ok := typ.(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					named := typ.(*types.Named).Obj()
					if !named.Exported() {
						continue
					}
					name = fn.Pkg().Name() + "." + named.Name() + "." + fn.Name()
				}
				decls[fn] = name
			}
		}
	}
	ifaces := interfacesByMethod(pkgs)
	listed := map[string]bool{}
	var dead []string
	for fn, name := range decls {
		listed[name] = true
		if _, ok := testOnlyExports[name]; !ok && !used[fn] && !implementsWith(fn, ifaces[fn.Name()]) {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is exported but no non-test file calls it: delete it, or allowlist it with a reason", name)
	}
	for name := range testOnlyExports {
		if !listed[name] {
			t.Errorf("allowlisted %s is not an exported internal/ function or method", name)
		}
	}
}

// interfacesByMethod indexes, by method name, the named interfaces of
// the loaded packages and of everything they import, standard library
// included. Generic interfaces are left out: go/types cannot test an
// uninstantiated one.
func interfacesByMethod(pkgs []*lint.Package) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return byName
}

// implementsWith reports whether fn is a method whose receiver type, as
// a value or a pointer, implements one of the interfaces.
func implementsWith(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for _, it := range ifaces {
		if types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it) {
			return true
		}
	}
	return false
}

// srcFile is one parsed non-test Go file and its slash-separated
// directory.
type srcFile struct {
	dir string
	f   *ast.File
}

// inspected reports whether the file belongs to an internal/ package.
func (sf srcFile) inspected() bool {
	return strings.HasPrefix(sf.dir, "internal/")
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
var testOnlyConfigFields = map[string]string{}

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
