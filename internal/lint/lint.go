// Package lint is a small stdlib-only static-analysis framework for
// this repository. It loads every non-test file of every package in the
// module with go/parser + go/types (no golang.org/x/tools dependency)
// and runs nine domain-specific checks, one per invariant, that keep the
// QuCloud reproduction's fidelity numbers trustworthy: determinism (no
// global math/rand, no wall-clock reads in compiler/simulator packages,
// no unordered map iteration feeding results — norandglobal,
// nowallclock, maporder), numeric safety (no exact float equality —
// floateq), library hygiene (no printing from internal/ — noprint),
// concurrency hygiene (fields documented as guarded by a mutex are only
// touched under it, mutexes are acquired in one order and released on
// every path, atomics are typed — guardedby, lockorder, atomicmix) and
// cancellation plumbing (ctxflow). ctxflow and lockorder are
// interprocedural (callgraph.go); the other seven read one package at a
// time.
//
// Checks assume complete type information: a caller must treat any
// Package.TypeErrors as fatal and run nothing (cmd/qulint exits 2).
// _test.go files are never loaded, so nothing here applies to tests.
//
// Findings can be suppressed per line with
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// placed on the offending line or the line directly above it. The
// reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by a check.
type Finding struct {
	Check   string
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Check)
}

// Package is one loaded, type-checked package handed to checks.
type Package struct {
	// ModulePath is the module's import-path prefix (from go.mod).
	ModulePath string
	// Path is the package's full import path.
	Path string
	// Rel is the package directory relative to the module root, using
	// forward slashes ("" for the root package).
	Rel string
	// Dir is the absolute package directory.
	Dir string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Info holds type information; always non-nil, complete unless
	// TypeErrors is non-empty.
	Info *types.Info
	// Types is the type-checked package object (may be marked
	// incomplete if checking failed part-way).
	Types *types.Package
	// TypeErrors collects type-checker diagnostics. Checks assume there
	// are none: callers report them and run no check.
	TypeErrors []error
}

// Check is one named analysis pass. Exactly one of Run and RunModule
// is set: Run is a per-package pass; RunModule sees the whole module
// at once (with its call graph) for interprocedural checks.
type Check struct {
	// Name is the identifier used by -checks and //lint:ignore.
	Name string
	// Doc is a one-line description shown by qulint -list.
	Doc string
	// Run produces the check's findings for one package.
	Run func(p *Package) []Finding
	// RunModule produces the check's findings for the whole module.
	RunModule func(m *Module) []Finding
}

// Checks returns every registered check in stable order.
func Checks() []Check {
	return []Check{
		checkNoRandGlobal(),
		checkNoWallClock(),
		checkMapOrder(),
		checkFloatEq(),
		checkNoPrint(),
		checkGuardedBy(),
		checkCtxFlow(),
		checkLockOrder(),
		checkAtomicMix(),
	}
}

// CheckNames returns the registered check names in stable order.
func CheckNames() []string {
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	return names
}

// SelectChecks resolves a comma-separated -checks value against the
// registry. An empty spec selects every check.
func SelectChecks(spec string) ([]Check, error) {
	all := Checks()
	if strings.TrimSpace(spec) == "" {
		return all, nil
	}
	byName := make(map[string]Check, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []Check
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (known: %s)", name, strings.Join(CheckNames(), ", "))
		}
		if !seen[name] {
			out = append(out, c)
			seen[name] = true
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -checks selection")
	}
	return out, nil
}

// SuppressionStats summarizes the //lint:ignore directives seen by one
// Analyze pass.
type SuppressionStats struct {
	// Directives is the total number of well-formed directives.
	Directives int
	// Used counts directives that suppressed at least one finding.
	Used int
	// Unused counts auditable directives that suppressed nothing (each
	// also produces an "unusedignore" finding).
	Unused int
}

// Result is the full output of an Analyze pass.
type Result struct {
	Findings     []Finding
	Suppressions SuppressionStats
}

// Names of the engine-level pseudo-checks (they have no Check entry:
// the engine itself produces them). Every //lint:ignore directive must
// name a known check and carry a reason (lintdirective), and one that
// suppresses nothing is stale and must be removed (unusedignore).
const (
	directiveCheck   = "lintdirective"
	unusedIgnoreName = "unusedignore"
)

// Analyze runs the checks over the packages and returns findings plus
// suppression statistics. Module-scope checks (RunModule) always see
// every package — the call graph needs the whole module — but their
// findings, like everything else, are reported only for packages
// accepted by include (nil includes all). Suppression directives are
// collected from included packages; auditable directives that suppress
// nothing become "unusedignore" findings, so stale exemptions cannot
// accumulate silently.
func Analyze(pkgs []*Package, checks []Check, include func(*Package) bool) Result {
	if include == nil {
		include = func(*Package) bool { return true }
	}
	known := map[string]bool{"all": true, directiveCheck: true, unusedIgnoreName: true}
	for _, c := range Checks() {
		known[c.Name] = true
	}

	var out []Finding
	index := ignoreIndex{}
	var directives []*directive
	included := map[string]bool{} // package dir -> reported
	for _, p := range pkgs {
		if !include(p) {
			continue
		}
		included[p.Dir] = true
		ds, bad := collectIgnores(p, known)
		out = append(out, bad...)
		directives = append(directives, ds...)
		index.add(ds)
	}

	keep := func(f Finding) {
		if index.suppresses(f) {
			return
		}
		out = append(out, f)
	}

	needModule := false
	for _, c := range checks {
		if c.RunModule != nil {
			needModule = true
			continue
		}
		for _, p := range pkgs {
			if !include(p) {
				continue
			}
			for _, f := range c.Run(p) {
				keep(f)
			}
		}
	}
	if needModule {
		m := NewModule(pkgs)
		dirOf := map[string]bool{} // file directory -> included
		for _, p := range pkgs {
			dirOf[p.Dir] = included[p.Dir]
		}
		for _, c := range checks {
			if c.RunModule == nil {
				continue
			}
			for _, f := range c.RunModule(m) {
				if in, ok := dirOf[filepath.Dir(f.File)]; ok && !in {
					continue
				}
				keep(f)
			}
		}
	}

	// Stale-suppression audit: a directive is auditable when every
	// check it names ran in this pass (so `-checks floateq` does not
	// condemn a norandglobal exemption); the "all" wildcard is audited
	// only under the full registry.
	res := Result{}
	selected := map[string]bool{}
	for _, c := range checks {
		selected[c.Name] = true
	}
	fullRun := len(checks) == len(Checks())
	for _, d := range directives {
		res.Suppressions.Directives++
		if d.used {
			res.Suppressions.Used++
			continue
		}
		auditable := true
		for _, name := range d.names {
			if name == "all" {
				auditable = auditable && fullRun
			} else {
				auditable = auditable && selected[name]
			}
		}
		if !auditable {
			continue
		}
		res.Suppressions.Unused++
		out = append(out, Finding{
			Check:   unusedIgnoreName,
			File:    d.file,
			Line:    d.line,
			Col:     d.col,
			Message: fmt.Sprintf("//lint:ignore %s suppresses nothing: remove the stale exemption", strings.Join(d.names, ",")),
		})
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	res.Findings = out
	return res
}

// directive is one well-formed //lint:ignore, tracked for the stale-
// suppression audit.
type directive struct {
	file      string
	line, col int
	names     []string
	used      bool
}

// ignoreIndex locates directives by file and line.
type ignoreIndex map[string]map[int][]*directive

func (s ignoreIndex) add(ds []*directive) {
	for _, d := range ds {
		if s[d.file] == nil {
			s[d.file] = map[int][]*directive{}
		}
		s[d.file][d.line] = append(s[d.file][d.line], d)
	}
}

// suppresses reports whether a directive on the finding's line or the
// line directly above names the finding's check, marking the directive
// used.
func (s ignoreIndex) suppresses(f Finding) bool {
	lines := s[f.File]
	if lines == nil {
		return false
	}
	for _, l := range []int{f.Line, f.Line - 1} {
		for _, d := range lines[l] {
			for _, name := range d.names {
				if name == "all" || name == f.Check {
					d.used = true
					return true
				}
			}
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// collectIgnores gathers the package's suppression directives. A
// directive missing its mandatory reason, or naming a check the
// registry does not know, is returned as a finding so suppressions
// stay auditable.
func collectIgnores(p *Package, known map[string]bool) ([]*directive, []Finding) {
	var ds []*directive
	var bad []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Check:   directiveCheck,
						File:    pos.Filename,
						Line:    pos.Line,
						Col:     pos.Column,
						Message: "malformed //lint:ignore directive: need a check name and a reason",
					})
					continue
				}
				d := &directive{file: pos.Filename, line: pos.Line, col: pos.Column}
				for _, name := range strings.Split(fields[0], ",") {
					if name = strings.TrimSpace(name); name == "" {
						continue
					}
					if !known[name] {
						bad = append(bad, Finding{
							Check:   directiveCheck,
							File:    pos.Filename,
							Line:    pos.Line,
							Col:     pos.Column,
							Message: fmt.Sprintf("//lint:ignore names unknown check %q", name),
						})
						continue
					}
					d.names = append(d.names, name)
				}
				if len(d.names) > 0 {
					ds = append(ds, d)
				}
			}
		}
	}
	return ds, bad
}

// --- shared helpers for checks ---

// finding builds a Finding at the node's position.
func (p *Package) finding(check string, n ast.Node, format string, args ...any) Finding {
	pos := p.Fset.Position(n.Pos())
	return Finding{
		Check:   check,
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// pkgFunc resolves an identifier to the package-level function of
// importPath it refers to (methods do not count) and returns the
// function's name. It goes through the type checker's object, so
// renamed and dot imports match and a shadowing local does not.
func (p *Package) pkgFunc(id *ast.Ident, importPath string) (string, bool) {
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != importPath ||
		fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	return fn.Name(), true
}

// pkgFuncCall returns the name of the package-level function of
// importPath that the call invokes directly.
func (p *Package) pkgFuncCall(call *ast.CallExpr, importPath string) (string, bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.pkgFunc(fun, importPath)
	case *ast.SelectorExpr:
		return p.pkgFunc(fun.Sel, importPath)
	}
	return "", false
}

// pkgFuncRefs visits every reference in the package to a package-level
// function of importPath — a call, or the function taken as a value
// (`var clock = time.Now`), which a call-site match would let escape.
// ref is the referring expression: the qualified selector, or the bare
// identifier under a dot import.
func (p *Package) pkgFuncRefs(importPath string, visit func(ref ast.Expr, name string)) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr:
				if name, ok := p.pkgFunc(v.Sel, importPath); ok {
					visit(v, name)
					return false
				}
			case *ast.Ident:
				if name, ok := p.pkgFunc(v, importPath); ok {
					visit(v, name)
				}
			}
			return true
		})
	}
}

// exprString renders a (small) expression for messages and lexical
// comparisons.
func exprString(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch v := e.(type) {
	case *ast.Ident:
		b.WriteString(v.Name)
	case *ast.SelectorExpr:
		writeExpr(b, v.X)
		b.WriteByte('.')
		b.WriteString(v.Sel.Name)
	case *ast.ParenExpr:
		writeExpr(b, v.X)
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, v.X)
	case *ast.IndexExpr:
		writeExpr(b, v.X)
		b.WriteByte('[')
		writeExpr(b, v.Index)
		b.WriteByte(']')
	case *ast.CallExpr:
		writeExpr(b, v.Fun)
		b.WriteString("(…)")
	case *ast.BasicLit:
		b.WriteString(v.Value)
	case *ast.UnaryExpr:
		b.WriteString(v.Op.String())
		writeExpr(b, v.X)
	case *ast.BinaryExpr:
		writeExpr(b, v.X)
		b.WriteString(v.Op.String())
		writeExpr(b, v.Y)
	default:
		b.WriteString("…")
	}
}

// rootIdent returns the leftmost identifier of a selector/index chain
// (x in x.a.b[i]), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// lastSelName returns the final identifier of an expression like
// a.b.mu (-> "mu") or mu (-> "mu"), or "".
func lastSelName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.ParenExpr:
		return lastSelName(v.X)
	}
	return ""
}

// mentionsIdent reports whether the expression tree contains an
// identifier with the given name.
func mentionsIdent(e ast.Node, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return !found
	})
	return found
}

var guardedByRe = regexp.MustCompile(`(?i)guarded by\s+([A-Za-z_][A-Za-z0-9_.]*)`)
