package lint

import (
	"go/parser"
	"go/token"
	"testing"
)

// TestOneMutationOneCheck is the non-overlap proof for the registry:
// each row seeds one defect, type-checked at the package path where its
// rule applies and run under ALL checks, and must produce exactly one
// finding, from the named check. Two checks firing on one row means two
// checks guard one invariant — one of them is redundant and goes. The
// determinism rows return their value from an exported function of
// internal/sched, the shape an interprocedural taint analysis would
// also report.
func TestOneMutationOneCheck(t *testing.T) {
	cases := []struct {
		name, check, rel, src string
	}{
		{"wall clock", "nowallclock", "internal/sched", `package sched

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`},
		{"wall clock behind a helper", "nowallclock", "internal/sched", `package sched

import "time"

func stamp() int64 { return time.Now().UnixNano() }

func Stamp() int64 { return stamp() }
`},
		{"wall clock as a function value", "nowallclock", "internal/sched", `package sched

import "time"

var clock = time.Now

func Stamp() int64 { return clock().UnixNano() }
`},
		{"global rand", "norandglobal", "internal/sched", `package sched

import "math/rand"

func Pick(n int) int { return rand.Intn(n) }
`},
		{"global rand as a function value", "norandglobal", "internal/sched", `package sched

import "math/rand"

var draw = rand.Intn

func Pick(n int) int { return draw(n) }
`},
		{"unsorted map range", "maporder", "internal/sched", `package sched

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`},
		{"exact float ==", "floateq", "internal/sched", `package sched

func Same(a, b float64) bool { return a == b }
`},
		{"print from a library", "noprint", "internal/demo", `package demo

import "fmt"

func Report(n int) { fmt.Println(n) }
`},
		{"minted root context", "ctxflow", "internal/service", `package service

import "context"

func Root() context.Context { return context.Background() }
`},
		{"function-style atomic", "atomicmix", "internal/demo", `package demo

import "sync/atomic"

type S struct{ n int64 }

func (s *S) Inc() { atomic.AddInt64(&s.n, 1) }
`},
		{"unlocked read of a guarded field", "guardedby", "internal/service", `package service

import "sync"

type S struct {
	mu   sync.Mutex
	jobs []int // guarded by mu
}

func (s *S) Len() int { return len(s.jobs) }
`},
		{"return with the mutex held", "lockorder", "internal/service", `package service

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) Get(ok bool) int {
	s.mu.Lock()
	if ok {
		return s.n
	}
	s.mu.Unlock()
	return 0
}
`},
		{"mutex re-entered through a callee", "lockorder", "internal/service", `package service

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) get() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func (s *S) Twice() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return 2 * s.get()
}
`},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.check] = true
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "mutation.go", c.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			p, err := CheckFile(fset, f, "repro", c.rel)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.TypeErrors) > 0 {
				t.Fatalf("mutation does not type-check: %v", p.TypeErrors)
			}
			findings := Analyze([]*Package{p}, Checks(), nil).Findings
			if len(findings) != 1 || findings[0].Check != c.check {
				t.Errorf("want exactly one finding, from %s; got %d: %v", c.check, len(findings), findings)
			}
		})
	}
	for _, name := range CheckNames() {
		if !covered[name] {
			t.Errorf("check %s has no mutation row", name)
		}
	}
}
