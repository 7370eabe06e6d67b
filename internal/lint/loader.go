package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// LoadModule discovers, parses, and type-checks every non-test package
// under the module rooted at dir (the directory containing go.mod).
// Module-internal imports are type-checked from source in dependency
// order; standard-library imports resolve through go/importer's
// "source" importer, so the loader needs no compiled export data and
// no dependencies beyond the standard library.
func LoadModule(dir string) ([]*Package, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	ld := &loader{
		fset:    token.NewFileSet(),
		modPath: modPath,
		root:    root,
		byPath:  map[string]*Package{},
	}
	for _, d := range dirs {
		p, err := ld.parseDir(d)
		if err != nil {
			return nil, err
		}
		if p != nil {
			ld.byPath[p.Path] = p
		}
	}
	var paths []string
	for path := range ld.byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var pkgs []*Package
	for _, path := range paths {
		p := ld.byPath[path]
		if err := ld.check(p); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if q, err := strconv.Unquote(rest); err == nil {
				return q, nil
			}
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module declaration", gomod)
}

// packageDirs lists every directory under root that holds at least one
// non-test .go file, skipping testdata, vendor, hidden, and
// underscore-prefixed directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			n := e.Name()
			if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// stdImporter loads standard-library packages once per process from
// the compiler's export data, which the "gc" importer reads from the
// local build cache through `go list -export`: every LoadModule and
// CheckFile call shares its results (imported packages are immutable).
// The importer keeps an unsynchronised package map, hence the mutex;
// its file set positions only standard-library objects, which no
// finding points at.
type stdImporter struct {
	mu  sync.Mutex
	imp types.Importer // guarded by mu
}

var std = &stdImporter{imp: importer.ForCompiler(token.NewFileSet(), "gc", nil)}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.imp.Import(path)
}

type loader struct {
	fset    *token.FileSet
	modPath string
	root    string
	byPath  map[string]*Package
	stack   []string // import path chain, for cycle reporting
}

// parseDir parses every non-test .go file in dir into one Package.
func (ld *loader) parseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	path := ld.modPath
	if rel != "" {
		path = ld.modPath + "/" + rel
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &Package{
		ModulePath: ld.modPath,
		Path:       path,
		Rel:        rel,
		Dir:        dir,
		Fset:       ld.fset,
		Files:      files,
	}, nil
}

// check type-checks p (and, recursively, its module-internal imports
// first). It is idempotent; already-checked packages return
// immediately.
func (ld *loader) check(p *Package) error {
	if p.Types != nil {
		return nil
	}
	for _, prev := range ld.stack {
		if prev == p.Path {
			return fmt.Errorf("import cycle: %s", strings.Join(append(ld.stack, p.Path), " -> "))
		}
	}
	ld.stack = append(ld.stack, p.Path)
	defer func() { ld.stack = ld.stack[:len(ld.stack)-1] }()

	// Check module-internal dependencies first so Import can hand back
	// completed packages.
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if dep, ok := ld.byPath[ipath]; ok {
				if err := ld.check(dep); err != nil {
					return err
				}
			}
		}
	}

	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:    ld,
		FakeImportC: true,
		Error:       func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	pkg, err := conf.Check(p.Path, ld.fset, p.Files, p.Info)
	if pkg == nil {
		return err
	}
	p.Types = pkg
	return nil
}

// Import implements types.Importer over the module map plus the
// standard library's source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ld.byPath[path]; ok {
		if err := ld.check(p); err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return std.Import(path)
}

// CheckFile type-checks a single standalone source file (used by
// fixture tests). rel positions the file as if it lived in that
// directory of the module, so path-scoped checks behave as they would
// on real packages.
func CheckFile(fset *token.FileSet, file *ast.File, modPath, rel string) (*Package, error) {
	path := modPath
	if rel != "" {
		path = modPath + "/" + rel
	}
	p := &Package{
		ModulePath: modPath,
		Path:       path,
		Rel:        rel,
		Fset:       fset,
		Files:      []*ast.File{file},
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer:    std,
		FakeImportC: true,
		Error:       func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	pkg, err := conf.Check(path, fset, p.Files, p.Info)
	if pkg == nil {
		return nil, err
	}
	p.Types = pkg
	return p, nil
}
