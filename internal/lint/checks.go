package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// --- norandglobal -----------------------------------------------------

// randConstructors are the math/rand functions that build explicit
// generators — the only sanctioned entry points. Everything else on
// the package (Intn, Float64, Shuffle, Seed, …) consults or mutates
// the shared global source and breaks run-to-run determinism.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func checkNoRandGlobal() Check {
	return Check{
		Name: "norandglobal",
		Doc:  "forbid the global math/rand source; randomness must flow through an explicit *rand.Rand",
		Run: func(p *Package) []Finding {
			var out []Finding
			for _, path := range []string{"math/rand", "math/rand/v2"} {
				// Any non-constructor package function is a global-state
				// entry point, called or passed around as a value; types
				// and conversions (rand.Source(x)) are not functions.
				p.pkgFuncRefs(path, func(ref ast.Expr, name string) {
					if !randConstructors[name] {
						out = append(out, p.finding("norandglobal", ref,
							"call to global rand.%s: thread an explicit *rand.Rand (rand.New(rand.NewSource(seed))) instead", name))
					}
				})
			}
			return out
		},
	}
}

// --- nowallclock ------------------------------------------------------

// deterministicPkgs are the compiler/simulator packages whose results
// must be a pure function of their inputs: reading the wall clock
// there either leaks into a result or tempts someone to make it. That
// includes the scheduler kernel (sched) and its virtual-clock driver
// (cloudsim), whose time is an argument. service, cmd/, and the root
// experiment driver are deliberately NOT listed — they measure real
// latency.
var deterministicPkgs = map[string]bool{
	"internal/arch":      true,
	"internal/ccache":    true,
	"internal/circuit":   true,
	"internal/cloudsim":  true,
	"internal/community": true,
	"internal/core":      true,
	"internal/fleet":     true,
	"internal/fp":        true,
	"internal/graph":     true,
	"internal/nisqbench": true,
	"internal/partition": true,
	"internal/pool":      true,
	"internal/router":    true,
	"internal/sched":     true,
	"internal/sim":       true,
	"internal/viz":       true,
	"internal/wal":       true,
}

// latencyPkgs are the internal packages deliberately exempt from the
// determinism discipline: they measure real latency or host the
// analyzer itself. Every internal/* package must appear in exactly one
// of deterministicPkgs and latencyPkgs — enforced by
// TestPackageClassification — so new packages are classified on
// purpose, not by omission.
var latencyPkgs = map[string]bool{
	"internal/lint":    true,
	"internal/service": true,
}

// wallClockFuncs are the time package's wall-clock reads.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func checkNoWallClock() Check {
	return Check{
		Name: "nowallclock",
		Doc:  "forbid time.Now/Since/Until in the deterministic compiler/simulator packages",
		Run: func(p *Package) []Finding {
			if !deterministicPkgs[p.Rel] {
				return nil
			}
			var out []Finding
			p.pkgFuncRefs("time", func(ref ast.Expr, name string) {
				if wallClockFuncs[name] {
					out = append(out, p.finding("nowallclock", ref,
						"time.%s in deterministic package %s: results must not depend on the wall clock", name, p.Rel))
				}
			})
			return out
		},
	}
}

// --- maporder ---------------------------------------------------------

func checkMapOrder() Check {
	return Check{
		Name: "maporder",
		Doc:  "forbid result assembly (appends/output) inside unordered map iteration unless sorted afterwards",
		Run: func(p *Package) []Finding {
			var out []Finding
			for _, file := range p.Files {
				// Walk function bodies so each range statement can see
				// its enclosing block (for the sorted-afterwards
				// exemption).
				ast.Inspect(file, func(n ast.Node) bool {
					block, ok := n.(*ast.BlockStmt)
					if !ok {
						return true
					}
					for i, stmt := range block.List {
						rs, ok := stmt.(*ast.RangeStmt)
						if !ok || !p.isMapType(rs.X) {
							continue
						}
						out = append(out, p.mapRangeFindings(rs, block.List[i+1:])...)
					}
					return true
				})
			}
			return out
		},
	}
}

// isMapType reports whether the expression's underlying type is a map.
func (p *Package) isMapType(e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// mapRangeFindings flags order-sensitive operations in the body of a
// range over a map. Appending to a slice is exempt when a later
// statement in the same block sorts that slice (the collect-then-sort
// idiom); writes to streams/builders have no such repair and are
// always flagged.
func (p *Package) mapRangeFindings(rs *ast.RangeStmt, rest []ast.Stmt) []Finding {
	var out []Finding
	ranged := exprString(rs.X)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(call) || i >= len(v.Lhs) {
					continue
				}
				target := rootIdent(v.Lhs[i])
				if target != nil && sortedLater(rest, target.Name) {
					continue
				}
				out = append(out, p.finding("maporder", v,
					"append inside range over map %s is order-dependent: sort the keys first (or sort %s before use)",
					ranged, exprString(v.Lhs[i])))
			}
		case *ast.CallExpr:
			if name, ok := outputCall(v); ok {
				out = append(out, p.finding("maporder", v,
					"%s inside range over map %s emits in nondeterministic order: iterate sorted keys instead", name, ranged))
			}
		}
		return true
	})
	return out
}

func isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// outputCall recognizes calls that write human- or machine-visible
// output: fmt printers, io/builder Write* methods, and the print
// builtins.
func outputCall(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "print" || fun.Name == "println" {
			return fun.Name, true
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln",
			"Write", "WriteString", "WriteByte", "WriteRune":
			return exprString(fun), true
		}
	}
	return "", false
}

// sortedLater reports whether a following statement sorts the named
// slice (sort.*/slices.Sort* call mentioning it).
func sortedLater(rest []ast.Stmt, name string) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
				return true
			}
			for _, arg := range call.Args {
				if mentionsIdent(arg, name) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// --- floateq ----------------------------------------------------------

func checkFloatEq() Check {
	return Check{
		Name: "floateq",
		Doc:  "forbid ==/!= between floating-point operands (test files are not analysed); use fp.Eq",
		Run: func(p *Package) []Finding {
			var out []Finding
			for _, file := range p.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					be, ok := n.(*ast.BinaryExpr)
					if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
						return true
					}
					if !p.isFloat(be.X) || !p.isFloat(be.Y) {
						return true
					}
					// Both sides constant folds at compile time — no
					// runtime rounding hazard.
					if p.isConst(be.X) && p.isConst(be.Y) {
						return true
					}
					// x != x is the portable NaN probe; leave it alone.
					if exprString(be.X) == exprString(be.Y) {
						return true
					}
					out = append(out, p.finding("floateq", be,
						"exact float comparison %s: use an epsilon helper (fp.Eq) or //lint:ignore with justification",
						exprString(be)))
					return true
				})
			}
			return out
		},
	}
}

func (p *Package) isFloat(e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func (p *Package) isConst(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// --- noprint ----------------------------------------------------------

var stdoutPrinters = map[string]bool{"Print": true, "Printf": true, "Println": true}

func checkNoPrint() Check {
	return Check{
		Name: "noprint",
		Doc:  "forbid fmt.Print*/print/println in internal/ library packages; logging belongs to callers",
		Run: func(p *Package) []Finding {
			if !strings.HasPrefix(p.Rel, "internal/") {
				return nil
			}
			var out []Finding
			for _, file := range p.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name, ok := p.pkgFuncCall(call, "fmt"); ok && stdoutPrinters[name] {
						out = append(out, p.finding("noprint", call,
							"fmt.%s in library package %s writes to stdout: return data or take an io.Writer", name, p.Rel))
						return true
					}
					if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "print" || id.Name == "println") {
						if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
							return true // shadowed by a local function
						}
						out = append(out, p.finding("noprint", call,
							"builtin %s in library package %s writes to stderr: return data or take an io.Writer", id.Name, p.Rel))
					}
					return true
				})
			}
			return out
		},
	}
}

// --- guardedby --------------------------------------------------------

// guardedField records one "// guarded by <mu>" annotation.
type guardedField struct {
	structName string
	fieldName  string
	mu         string // final path component of the annotated mutex
}

func checkGuardedBy() Check {
	return Check{
		Name: "guardedby",
		Doc:  "fields annotated '// guarded by <mu>' must only be touched in methods that lock <mu> (lexical, best-effort)",
		Run: func(p *Package) []Finding {
			guards := collectGuardedFields(p)
			if len(guards) == 0 {
				return nil
			}
			byStruct := map[string]map[string]string{} // struct -> field -> mu
			for _, g := range guards {
				if byStruct[g.structName] == nil {
					byStruct[g.structName] = map[string]string{}
				}
				byStruct[g.structName][g.fieldName] = g.mu
			}
			var out []Finding
			for _, file := range p.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv == nil || fn.Body == nil {
						continue
					}
					recvName, structName := receiver(fn)
					fields := byStruct[structName]
					if recvName == "" || len(fields) == 0 {
						continue
					}
					// Convention: a *Locked suffix documents that the
					// caller already holds the lock.
					if strings.HasSuffix(fn.Name.Name, "Locked") {
						continue
					}
					locked := locksInBody(fn.Body)
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						sel, ok := n.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						id, ok := sel.X.(*ast.Ident)
						if !ok || id.Name != recvName {
							return true
						}
						mu, guarded := fields[sel.Sel.Name]
						if !guarded || locked[mu] {
							return true
						}
						out = append(out, p.finding("guardedby", sel,
							"%s.%s is guarded by %s but method %s never locks it", recvName, sel.Sel.Name, mu, fn.Name.Name))
						return true
					})
				}
			}
			return out
		},
	}
}

// collectGuardedFields scans struct declarations for fields whose doc
// or line comment says "guarded by <path>".
func collectGuardedFields(p *Package) []guardedField {
	var out []guardedField
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field.Doc, field.Comment)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					out = append(out, guardedField{
						structName: ts.Name.Name,
						fieldName:  name.Name,
						mu:         mu,
					})
				}
			}
			return true
		})
	}
	return out
}

// guardAnnotation extracts the mutex name from "guarded by a.b.mu"
// (the final path component), or "".
func guardAnnotation(groups ...*ast.CommentGroup) string {
	for _, g := range groups {
		if g == nil {
			continue
		}
		m := guardedByRe.FindStringSubmatch(g.Text())
		if m == nil {
			continue
		}
		path := strings.TrimSuffix(m[1], ".")
		if i := strings.LastIndex(path, "."); i >= 0 {
			path = path[i+1:]
		}
		return path
	}
	return ""
}

// receiver returns the receiver identifier name and the receiver's
// (dereferenced) type name.
func receiver(fn *ast.FuncDecl) (recvName, structName string) {
	if len(fn.Recv.List) != 1 {
		return "", ""
	}
	field := fn.Recv.List[0]
	if len(field.Names) == 1 {
		recvName = field.Names[0].Name
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		structName = id.Name
	}
	return recvName, structName
}

// locksInBody collects the final path components of every mutex the
// body locks — e.g. s.mu.Lock() and w.svc.mu.RLock() both yield "mu".
func locksInBody(body *ast.BlockStmt) map[string]bool {
	locked := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock", "TryLock", "TryRLock":
			if name := lastSelName(sel.X); name != "" {
				locked[name] = true
			}
		case "Wait":
			// cond.Wait reacquires the associated lock; treat a wait on
			// a sync.Cond named like the mutex's sibling conservatively:
			// do nothing — Wait callers must have locked explicitly.
		}
		return true
	})
	return locked
}

// --- atomicmix --------------------------------------------------------

// checkAtomicMix keeps plain and atomic accesses to one variable from
// mixing — a data race the race detector only catches if both paths run
// under test — by forbidding the API that allows it: every function of
// package sync/atomic takes the address of an ordinary variable, which
// other code can still read or write plainly. The typed atomics
// (atomic.Int64, atomic.Pointer[T], …) have no plain access to mix
// with, so with the functions gone the mix is a compile error.
func checkAtomicMix() Check {
	return Check{
		Name: "atomicmix",
		Doc: "forbid the sync/atomic functions (atomic.AddInt64(&x, 1), …): use the typed atomics " +
			"(atomic.Int64, atomic.Pointer[T]), which cannot be accessed plainly",
		Run: func(p *Package) []Finding {
			var out []Finding
			p.pkgFuncRefs("sync/atomic", func(ref ast.Expr, name string) {
				out = append(out, p.finding("atomicmix", ref,
					"atomic.%s works on a variable that plain loads and stores can still reach: give it a typed atomic (atomic.Int64, atomic.Pointer[T], …)", name))
			})
			return out
		},
	}
}
