package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ctxScopePkgs are the concurrency-heavy layers where cancellation must
// be plumbed end to end: a goroutine stuck in one of these without a
// context or stop channel can outlive Shutdown and strand a backend.
var ctxScopePkgs = map[string]bool{
	"internal/service": true,
	"internal/fleet":   true,
	"internal/ccache":  true,
}

// checkCtxFlow verifies cancellation plumbing in ctxScopePkgs with the
// call graph: a function that *transitively* reaches a blocking
// operation must accept a context.Context (or a stop channel, or an
// *http.Request it can take one from); context.Background()/TODO() are
// forbidden there outside main/init; a received ctx parameter must
// actually be used.
//
// "Blocking" means unbounded waits: channel operations, select without
// a default, time.Sleep, sync.Cond/WaitGroup Wait, and network or
// subprocess calls. Plain mutex critical sections are deliberately NOT
// blockers — they are bounded by their holders and are lockorder's
// business; flagging them would force a context into every accessor.
// Operations inside `go` statements and function literals are
// attributed to the goroutine/closure, not the enclosing function.
func checkCtxFlow() Check {
	return Check{
		Name: "ctxflow",
		Doc: "service/fleet/ccache functions that transitively block must accept a context " +
			"or stop channel; no context.Background/TODO there; no dropped ctx params",
		RunModule: runCtxFlow,
	}
}

// blockSource says what a function blocks on: the blocking operation
// plus the call chain that leads to it (nearest callee first).
type blockSource struct {
	desc string
	via  []string
}

// through extends the chain by one caller-side hop.
func (s blockSource) through(callee string) blockSource {
	return blockSource{desc: s.desc, via: append([]string{callee}, s.via...)}
}

func (s blockSource) String() string {
	if len(s.via) == 0 {
		return s.desc
	}
	return s.desc + " via " + strings.Join(s.via, " → ")
}

// blockSummary is the per-function fact: can a call to this function
// block the caller, and on what.
type blockSummary struct {
	blocks bool
	src    blockSource
}

func runCtxFlow(m *Module) []Finding {
	sums := map[*FuncInfo]*blockSummary{}
	for _, f := range m.Funcs() {
		sums[f] = &blockSummary{}
	}
	m.Fixpoint(func(f *FuncInfo) bool {
		if sums[f].blocks {
			return false // monotone
		}
		if src, ok := blockingIn(m, f, sums); ok {
			sums[f].blocks = true
			sums[f].src = src
			return true
		}
		return false
	})

	var out []Finding
	for _, f := range m.Funcs() {
		p := f.Pkg
		if !ctxScopePkgs[p.Rel] {
			continue
		}
		name := f.Decl.Name.Name
		if sums[f].blocks && !ctxAware(f) && name != "main" && name != "init" {
			out = append(out, p.finding("ctxflow", f.Decl.Name,
				"%s blocks on %s but accepts no context.Context or stop channel: plumb cancellation through",
				f.Name(), sums[f].src))
		}
		out = append(out, droppedCtx(f)...)
	}

	for _, p := range m.Pkgs {
		if !ctxScopePkgs[p.Rel] {
			continue
		}
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := p.pkgFuncCall(call, "context"); ok && (name == "Background" || name == "TODO") {
					out = append(out, p.finding("ctxflow", call,
						"context.%s() in %s: plumb the caller's context instead of minting a root", name, p.Rel))
				}
				return true
			})
		}
	}
	return out
}

// blockingIn reports the first blocking operation reachable from f's
// body on the current thread (skipping go statements and function
// literals), including calls to module functions already known to
// block.
func blockingIn(m *Module, f *FuncInfo, sums map[*FuncInfo]*blockSummary) (blockSource, bool) {
	if f.Decl.Body == nil {
		return blockSource{}, false
	}

	// Subtrees whose blocking belongs to someone else: spawned
	// goroutines, closure bodies, and the comm statements of a select
	// that has a default (those ops cannot block).
	type span struct{ lo, hi token.Pos }
	var skips []span
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			skips = append(skips, span{v.Pos(), v.End()})
		case *ast.FuncLit:
			skips = append(skips, span{v.Pos(), v.End()})
		case *ast.SelectStmt:
			if selectHasDefault(v) {
				for _, c := range v.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						skips = append(skips, span{cc.Comm.Pos(), cc.Comm.End()})
					}
				}
			}
		}
		return true
	})
	skipped := func(pos token.Pos) bool {
		for _, s := range skips {
			if pos >= s.lo && pos < s.hi {
				return true
			}
		}
		return false
	}

	var src blockSource
	found := false
	report := func(s blockSource) {
		if !found {
			src, found = s, true
		}
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if skipped(n.Pos()) {
			return false
		}
		switch v := n.(type) {
		case *ast.SelectStmt:
			if !selectHasDefault(v) {
				report(blockSource{desc: "select with no default case"})
			}
		case *ast.SendStmt:
			report(blockSource{desc: "channel send " + exprString(v.Chan) + " <- …"})
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				report(blockSource{desc: "channel receive <-" + exprString(v.X)})
			}
		case *ast.CallExpr:
			if s, ok := blockingCall(m, f, v, sums); ok {
				report(s)
			}
		}
		return !found
	})
	return src, found
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies a call as blocking: a curated set of
// standard-library waits plus any module callee whose summary blocks.
func blockingCall(m *Module, f *FuncInfo, call *ast.CallExpr, sums map[*FuncInfo]*blockSummary) (blockSource, bool) {
	p := f.Pkg
	if name, ok := p.pkgFuncCall(call, "time"); ok && name == "Sleep" {
		return blockSource{desc: "time.Sleep"}, true
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := p.Info.Selections[sel]; ok {
			recv := s.Recv().String()
			switch sel.Sel.Name {
			case "Wait":
				for _, t := range []string{"sync.Cond", "sync.WaitGroup", "exec.Cmd"} {
					if strings.Contains(recv, t) {
						return blockSource{desc: t + ".Wait"}, true
					}
				}
			case "Do":
				if strings.Contains(recv, "http.Client") {
					return blockSource{desc: "http.Client.Do"}, true
				}
			case "Run", "Output", "CombinedOutput":
				if strings.Contains(recv, "exec.Cmd") {
					return blockSource{desc: "exec.Cmd." + sel.Sel.Name}, true
				}
			}
		}
	}
	if name, ok := p.pkgFuncCall(call, "net/http"); ok {
		switch name {
		case "Get", "Post", "PostForm", "Head":
			return blockSource{desc: "http." + name}, true
		}
	}
	if name, ok := p.pkgFuncCall(call, "net"); ok && strings.HasPrefix(name, "Dial") {
		return blockSource{desc: "net." + name}, true
	}
	if callee := m.Callee(p, call); callee != nil {
		if cs := sums[callee]; cs != nil && cs.blocks {
			return cs.src.through(callee.Name()), true
		}
	}
	return blockSource{}, false
}

// ctxAware reports whether the function already has a cancellation
// input: a context.Context parameter, a struct{}-channel parameter
// (stop/done channel), or an *http.Request (which carries a context).
func ctxAware(f *FuncInfo) bool {
	params := f.Decl.Type.Params
	if params == nil {
		return false
	}
	for _, field := range params.List {
		t := f.Pkg.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		switch t.String() {
		case "context.Context", "*net/http.Request":
			return true
		}
		if ch, ok := t.Underlying().(*types.Chan); ok {
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true
			}
		}
	}
	return false
}

// droppedCtx flags context.Context parameters that the body never
// reads: cancellation that arrives but goes nowhere.
func droppedCtx(f *FuncInfo) []Finding {
	p := f.Pkg
	params := f.Decl.Type.Params
	if params == nil || f.Decl.Body == nil {
		return nil
	}
	var out []Finding
	for _, field := range params.List {
		t := p.Info.TypeOf(field.Type)
		if t == nil || t.String() != "context.Context" {
			continue
		}
		for _, id := range field.Names {
			if id.Name == "_" {
				continue
			}
			obj := p.Info.Defs[id]
			if obj == nil {
				continue
			}
			used := false
			ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
				if u, ok := n.(*ast.Ident); ok && p.Info.Uses[u] == obj {
					used = true
				}
				return !used
			})
			if !used {
				out = append(out, p.finding("ctxflow", id,
					"context parameter %s of %s is received but never used: forward it to the blocking calls or drop it",
					id.Name, f.Name()))
			}
		}
	}
	return out
}
