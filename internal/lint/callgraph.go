package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural layer under ctxflow and lockorder:
// a module-wide static call graph plus a deterministic fixpoint driver
// for propagating per-function facts along it.
//
// The graph is intentionally conservative and simple:
//
//   - only *static* callees are resolved — direct function calls,
//     package-qualified calls, and concrete method calls (through
//     go/types.Selections). Calls through function values, interface
//     methods, and reflection are unresolved and contribute no edge;
//   - a callee is in the graph only if its body lives in this module
//     (standard-library internals are summarized by the checks
//     themselves, e.g. "time.Sleep blocks");
//   - iteration order everywhere is source order (package path, file
//     name, declaration offset), so every analysis built on top is
//     byte-stable across runs and GOMAXPROCS settings.

// FuncInfo is one module function (or method) with a body, as a call
// graph node.
type FuncInfo struct {
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Decl is the declaration; Decl.Body is non-nil.
	Decl *ast.FuncDecl
}

// Name renders the function name with its receiver type, e.g.
// "(*Service).Submit" or "backoffDelay".
func (f *FuncInfo) Name() string {
	if f.Decl.Recv == nil || len(f.Decl.Recv.List) == 0 {
		return f.Decl.Name.Name
	}
	return "(" + exprString(f.Decl.Recv.List[0].Type) + ")." + f.Decl.Name.Name
}

// Module is the unit interprocedural checks run over: every loaded
// package plus the resolved call graph.
type Module struct {
	// Pkgs are the analyzed packages, sorted by import path.
	Pkgs []*Package

	funcs map[*types.Func]*FuncInfo
	order []*FuncInfo
}

// NewModule indexes the packages' function declarations into a call
// graph.
func NewModule(pkgs []*Package) *Module {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	m := &Module{Pkgs: sorted, funcs: map[*types.Func]*FuncInfo{}}
	for _, p := range sorted {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				fi := &FuncInfo{Pkg: p, Decl: fn}
				if obj, ok := p.Info.Defs[fn.Name].(*types.Func); ok {
					m.funcs[obj] = fi
				}
				m.order = append(m.order, fi)
			}
		}
	}
	return m
}

// Funcs returns every module function in deterministic source order.
func (m *Module) Funcs() []*FuncInfo { return m.order }

// FuncOf maps a type-checker function object back to its module
// declaration (nil for functions defined outside the module, without a
// body, or unresolved).
func (m *Module) FuncOf(obj *types.Func) *FuncInfo {
	if obj == nil {
		return nil
	}
	return m.funcs[obj.Origin()]
}

// StaticCallee resolves the call's target to a function object: a
// plain function, a package-qualified function, or a concrete method.
// Calls through function values and interface methods return nil.
func StaticCallee(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return f.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f.Origin()
			}
			return nil
		}
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return f.Origin()
		}
	}
	return nil
}

// Callee resolves a call to its module declaration, nil when the
// target is outside the module or not statically known.
func (m *Module) Callee(p *Package, call *ast.CallExpr) *FuncInfo {
	return m.FuncOf(StaticCallee(p, call))
}

// Fixpoint runs step over every function in source order, repeatedly,
// until one full sweep changes nothing. step reports whether it
// changed the summary it maintains for f. Facts must be monotone (only
// grow) for termination; the sweep count is additionally capped at
// len(funcs)+2 sweeps as a defensive bound, which suffices for any
// monotone boolean fact to reach its fixpoint.
func (m *Module) Fixpoint(step func(f *FuncInfo) bool) {
	for sweep := 0; sweep <= len(m.order)+2; sweep++ {
		changed := false
		for _, f := range m.order {
			if step(f) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// posLess orders two positions by file name then offset (byte-stable
// across runs).
func posLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}
