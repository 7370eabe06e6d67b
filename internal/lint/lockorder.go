package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// checkLockOrder builds a module-wide lock-acquisition graph: an edge
// A → B is recorded whenever B is acquired (directly, or transitively
// through a static call) while A is held. Cycles in the graph are
// potential deadlocks. The held-set is tracked with a small abstract
// interpreter that understands defer mu.Unlock() (including inside a
// deferred closure), branch joins (a lock held on only one arm is
// dropped at the join), and early returns — so it also reports paths
// that can return with a mutex still held, and re-acquisition of a
// mutex already held. Methods named *Locked (callee runs under the
// caller's lock) and mutex-wrapper methods named Lock/Unlock/RLock/
// RUnlock are exempt from the return-with-lock rule.
func checkLockOrder() Check {
	return Check{
		Name: "lockorder",
		Doc: "consistent mutex acquisition order module-wide: no cyclic lock orders, no " +
			"returning with a mutex held (defer-aware), no re-acquiring a held mutex",
		RunModule: runLockOrder,
	}
}

type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

// lockCall classifies a call as a sync mutex acquire/release and
// returns the canonical identity of the mutex. Only methods declared
// in package sync count; a custom Lock method is an ordinary call.
func lockCall(p *Package, call *ast.CallExpr) (string, lockKind) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockNone
	}
	var kind lockKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return "", lockNone
	}
	s, ok := p.Info.Selections[sel]
	if !ok {
		return "", lockNone
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", lockNone
	}
	return muKey(p, sel.X), kind
}

// muKey renders a stable identity for the mutex expression: struct
// fields become pkg.Type.field (so s.mu and w.svc.mu agree), package
// variables become pkg.name, and locals are position-qualified.
func muKey(p *Package, e ast.Expr) string {
	e = unparen(e)
	switch v := e.(type) {
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[v]; ok {
			if fv, ok := s.Obj().(*types.Var); ok && fv.IsField() {
				recv := s.Recv()
				for {
					ptr, ok := recv.(*types.Pointer)
					if !ok {
						break
					}
					recv = ptr.Elem()
				}
				if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
					return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + fv.Name()
				}
				return fv.Name()
			}
		}
		if obj, ok := p.Info.Uses[v.Sel]; ok && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return exprString(v)
	case *ast.Ident:
		if obj, ok := p.Info.Uses[v].(*types.Var); ok {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + obj.Name()
			}
			pos := p.Fset.Position(obj.Pos())
			return fmt.Sprintf("%s@%s:%d", v.Name, filepath.Base(pos.Filename), pos.Line)
		}
		return v.Name
	}
	return exprString(e)
}

// lockSummary is the per-function fact for the fixpoint: the set of
// mutexes a call to this function may acquire (transitively).
type lockSummary struct {
	acquires map[string]bool
}

func runLockOrder(m *Module) []Finding {
	sums := map[*FuncInfo]*lockSummary{}
	for _, f := range m.Funcs() {
		sums[f] = &lockSummary{acquires: map[string]bool{}}
	}
	m.Fixpoint(func(f *FuncInfo) bool {
		s := sums[f]
		before := len(s.acquires)
		p := f.Pkg
		inspectSameThread(f.Decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if key, kind := lockCall(p, call); kind == lockAcquire {
				s.acquires[key] = true
			} else if kind == lockNone {
				if callee := m.Callee(p, call); callee != nil {
					for k := range sums[callee].acquires {
						s.acquires[k] = true
					}
				}
			}
		})
		return len(s.acquires) > before
	})

	w := &lockOrderPass{
		m:       m,
		sums:    sums,
		edgePos: map[lockEdge]token.Pos{},
		edgeFn:  map[lockEdge]string{},
	}
	if len(m.Pkgs) > 0 {
		w.fset = m.Pkgs[0].Fset
	}
	for _, f := range m.Funcs() {
		w.checkFunc(f)
	}
	return append(w.findings, w.cycleFindings()...)
}

// inspectSameThread walks n skipping go statements and function
// literals: what a spawned goroutine or a stored closure acquires is
// its own business, not the enclosing function's.
func inspectSameThread(n ast.Node, visit func(ast.Node)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		}
		if c != nil {
			visit(c)
		}
		return true
	})
}

type lockEdge struct{ from, to string }

type lockOrderPass struct {
	m        *Module
	sums     map[*FuncInfo]*lockSummary
	fset     *token.FileSet
	edgePos  map[lockEdge]token.Pos // representative (earliest) site
	edgeFn   map[lockEdge]string    // function holding `from` there
	findings []Finding
}

func (w *lockOrderPass) addEdge(from, to string, pos token.Pos, fn string) {
	if from == to {
		return
	}
	e := lockEdge{from, to}
	if old, ok := w.edgePos[e]; !ok || posLess(w.fset, pos, old) {
		w.edgePos[e] = pos
		w.edgeFn[e] = fn
	}
}

// checkFunc abstract-interprets one function body with a held-set.
func (w *lockOrderPass) checkFunc(f *FuncInfo) {
	name := f.Decl.Name.Name
	switch {
	case f.Decl.Body == nil,
		strings.HasSuffix(name, "Locked"),
		name == "Lock", name == "Unlock", name == "RLock", name == "RUnlock":
		return
	}
	st := &lockFnState{w: w, f: f, deferred: map[string]bool{}}
	st.collectDeferred(f.Decl.Body)
	held := map[string]bool{}
	if !st.stmts(f.Decl.Body.List, held) {
		// Fell off the end of the body: an implicit return.
		st.exit(f.Decl.Name, held)
	}
}

type lockFnState struct {
	w        *lockOrderPass
	f        *FuncInfo
	deferred map[string]bool // mutexes released by a defer (flow-insensitive)
}

// collectDeferred records defer mu.Unlock() and deferred closures that
// unlock, anywhere in the body.
func (st *lockFnState) collectDeferred(body *ast.BlockStmt) {
	p := st.f.Pkg
	noteUnlocks := func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if key, kind := lockCall(p, call); kind == lockRelease {
					st.deferred[key] = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a non-deferred closure's unlocks don't count
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if key, kind := lockCall(p, ds.Call); kind == lockRelease {
			st.deferred[key] = true
			return true
		}
		if fl, ok := unparen(ds.Call.Fun).(*ast.FuncLit); ok {
			noteUnlocks(fl.Body)
		}
		return true
	})
}

// stmts runs the statements in order; true means the path terminated
// (returned, panicked, or branched away).
func (st *lockFnState) stmts(list []ast.Stmt, held map[string]bool) bool {
	for _, s := range list {
		if st.stmt(s, held) {
			return true
		}
	}
	return false
}

func (st *lockFnState) stmt(s ast.Stmt, held map[string]bool) bool {
	switch v := s.(type) {
	case *ast.BlockStmt:
		return st.stmts(v.List, held)
	case *ast.ExprStmt:
		if call, ok := unparen(v.X).(*ast.CallExpr); ok && terminatingCall(call) {
			return true
		}
		st.expr(v.X, held)
	case *ast.AssignStmt:
		for _, r := range v.Rhs {
			st.expr(r, held)
		}
	case *ast.SendStmt:
		st.expr(v.Value, held)
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred unlocks are handled by collectDeferred; a spawned
		// goroutine does not change the caller's held-set.
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			st.expr(r, held)
		}
		st.exit(v, held)
		return true
	case *ast.BranchStmt:
		return true // stop tracking this path (break/continue/goto)
	case *ast.IfStmt:
		if v.Init != nil {
			st.stmt(v.Init, held)
		}
		st.expr(v.Cond, held)
		thenHeld := cloneSet(held)
		thenTerm := st.stmts(v.Body.List, thenHeld)
		elseHeld := cloneSet(held)
		elseTerm := false
		if v.Else != nil {
			elseTerm = st.stmt(v.Else, elseHeld)
		}
		switch {
		case thenTerm && elseTerm && v.Else != nil:
			return true
		case thenTerm:
			replaceSet(held, elseHeld)
		case elseTerm:
			replaceSet(held, thenHeld)
		default:
			replaceSet(held, intersectSets(thenHeld, elseHeld))
		}
	case *ast.ForStmt:
		if v.Init != nil {
			st.stmt(v.Init, held)
		}
		if v.Cond != nil {
			st.expr(v.Cond, held)
		}
		body := cloneSet(held)
		st.stmts(v.Body.List, body)
		// The loop may run zero times; keep the entry held-set.
	case *ast.RangeStmt:
		st.expr(v.X, held)
		body := cloneSet(held)
		st.stmts(v.Body.List, body)
	case *ast.SwitchStmt:
		if v.Init != nil {
			st.stmt(v.Init, held)
		}
		if v.Tag != nil {
			st.expr(v.Tag, held)
		}
		return st.clauses(caseBodies(v.Body), hasDefaultCase(v.Body), held)
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			st.stmt(v.Init, held)
		}
		return st.clauses(caseBodies(v.Body), hasDefaultCase(v.Body), held)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range v.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			body := cc.Body
			if cc.Comm != nil {
				body = append([]ast.Stmt{cc.Comm}, cc.Body...)
			}
			bodies = append(bodies, body)
		}
		// A select always takes some case (or blocks forever): no
		// fall-through path outside the clauses.
		return st.clauses(bodies, true, held)
	case *ast.LabeledStmt:
		return st.stmt(v.Stmt, held)
	}
	return false
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// clauses evaluates each clause body from the entry held-set and joins
// with intersection; exhaustive says whether some clause must run.
func (st *lockFnState) clauses(bodies [][]ast.Stmt, exhaustive bool, held map[string]bool) bool {
	var outs []map[string]bool
	for _, b := range bodies {
		h := cloneSet(held)
		if !st.stmts(b, h) {
			outs = append(outs, h)
		}
	}
	if !exhaustive {
		outs = append(outs, cloneSet(held))
	}
	if len(outs) == 0 {
		return len(bodies) > 0 // every clause terminated
	}
	replaceSet(held, intersectAll(outs))
	return false
}

// expr visits the calls inside an expression (skipping closures).
func (st *lockFnState) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			st.call(call, held)
		}
		return true
	})
}

func (st *lockFnState) call(call *ast.CallExpr, held map[string]bool) {
	p := st.f.Pkg
	if key, kind := lockCall(p, call); kind != lockNone {
		switch kind {
		case lockAcquire:
			if held[key] {
				st.w.findings = append(st.w.findings, p.finding("lockorder", call,
					"%s acquires %s while already holding it", st.f.Name(), key))
				return
			}
			for _, h := range sortedSet(held) {
				st.w.addEdge(h, key, call.Pos(), st.f.Name())
			}
			held[key] = true
		case lockRelease:
			delete(held, key)
		}
		return
	}
	callee := st.w.m.Callee(p, call)
	if callee == nil || len(held) == 0 {
		return
	}
	for _, a := range sortedSet(st.w.sums[callee].acquires) {
		if held[a] {
			st.w.findings = append(st.w.findings, p.finding("lockorder", call,
				"%s calls %s while holding %s, which %s also acquires (self-deadlock)",
				st.f.Name(), callee.Name(), a, callee.Name()))
			continue
		}
		for _, h := range sortedSet(held) {
			st.w.addEdge(h, a, call.Pos(), st.f.Name())
		}
	}
}

// exit reports mutexes still held when the function leaves, net of
// deferred unlocks.
func (st *lockFnState) exit(n ast.Node, held map[string]bool) {
	p := st.f.Pkg
	for _, k := range sortedSet(held) {
		if st.deferred[k] {
			continue
		}
		st.w.findings = append(st.w.findings, p.finding("lockorder", n,
			"%s can return while still holding %s (no unlock or defer on this path)", st.f.Name(), k))
	}
}

// terminatingCall recognizes calls after which control does not
// continue on this path.
func terminatingCall(call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if root, ok := fun.X.(*ast.Ident); ok {
			if root.Name == "os" && name == "Exit" {
				return true
			}
			if name == "Fatal" || name == "Fatalf" || name == "Fatalln" {
				return true
			}
		}
	}
	return false
}

// cycleFindings enumerates each elementary cycle in the acquisition
// graph once (anchored at its lexicographically smallest node) and
// reports it at the earliest edge site.
func (w *lockOrderPass) cycleFindings() []Finding {
	adj := map[string][]string{}
	for e := range w.edgePos {
		adj[e.from] = append(adj[e.from], e.to)
	}
	var nodes []string
	for n := range adj {
		sort.Strings(adj[n])
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	var out []Finding
	seen := map[string]bool{}
	for _, start := range nodes {
		path := []string{start}
		onPath := map[string]bool{start: true}
		var dfs func(n string)
		dfs = func(n string) {
			for _, next := range adj[n] {
				if next == start {
					key := strings.Join(path, "→")
					if !seen[key] {
						seen[key] = true
						out = append(out, w.cycleFinding(path))
					}
					continue
				}
				if next < start || onPath[next] {
					continue
				}
				path = append(path, next)
				onPath[next] = true
				dfs(next)
				path = path[:len(path)-1]
				delete(onPath, next)
			}
		}
		dfs(start)
	}
	return out
}

func (w *lockOrderPass) cycleFinding(cycle []string) Finding {
	var parts []string
	for i, from := range cycle {
		to := cycle[(i+1)%len(cycle)]
		e := lockEdge{from, to}
		pos := w.fset.Position(w.edgePos[e])
		parts = append(parts, fmt.Sprintf("%s → %s (%s, %s:%d)",
			from, to, w.edgeFn[e], filepath.Base(pos.Filename), pos.Line))
	}
	first := lockEdge{cycle[0], cycle[1%len(cycle)]}
	pos := w.fset.Position(w.edgePos[first])
	return Finding{
		Check: "lockorder",
		File:  pos.Filename,
		Line:  pos.Line,
		Col:   pos.Column,
		Message: "lock-order cycle (potential deadlock): " +
			strings.Join(parts, "; "),
	}
}

// --- small set helpers ------------------------------------------------

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func replaceSet(dst, src map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	for k := range src {
		dst[k] = true
	}
}

func intersectSets(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func intersectAll(sets []map[string]bool) map[string]bool {
	out := cloneSet(sets[0])
	for _, s := range sets[1:] {
		out = intersectSets(out, s)
	}
	return out
}

func sortedSet(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
