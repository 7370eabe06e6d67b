// Command qulint runs the repository's domain-specific static checks
// (internal/lint) over the non-test files of every package in the
// module: determinism (norandglobal, nowallclock, maporder), numeric
// safety (floateq), library/concurrency hygiene (noprint, guardedby,
// lockorder, atomicmix), and cancellation plumbing (ctxflow). The two
// interprocedural checks (ctxflow, lockorder) build a module-wide call
// graph, so the whole module is always loaded; patterns only filter
// which packages' findings are reported.
//
// Usage:
//
//	qulint [-checks a,b,c] [-list] [-C dir] [pattern ...]
//
// Patterns are ./...-style path filters relative to the module root
// (default ./...). Findings print as file:line:col diagnostics. The
// exit status is 1 when any finding survives, 2 on usage, load, or
// type-check errors (no check runs on a module that does not
// type-check). Suppress a finding with //lint:ignore <check> <reason>
// on or directly above the line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qulint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checksFlag := fs.String("checks", "", "comma-separated checks to run (default: all)")
	listFlag := fs.Bool("list", false, "list available checks and exit")
	dirFlag := fs.String("C", ".", "directory to resolve the module from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, c := range lint.Checks() {
			fmt.Fprintf(stdout, "%-14s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	checks, err := lint.SelectChecks(*checksFlag)
	if err != nil {
		fmt.Fprintln(stderr, "qulint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(*dirFlag)
	if err != nil {
		fmt.Fprintln(stderr, "qulint:", err)
		return 2
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "qulint:", err)
		return 2
	}
	// Type errors are a hard failure, distinct from findings: the checks
	// assume complete type information, so report and bail before any
	// of them runs.
	broken := false
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			fmt.Fprintf(stderr, "qulint: %s: %v\n", p.Rel, te)
			broken = true
		}
	}
	if broken {
		return 2
	}

	// The whole module always feeds Analyze (the interprocedural checks
	// need every function's summary); patterns restrict reporting only.
	patterns := fs.Args()
	include := func(p *lint.Package) bool { return matchesAny(p.Rel, patterns) }
	findings := lint.Analyze(pkgs, checks, include).Findings
	for _, f := range findings {
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "qulint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// matchesAny reports whether rel matches any ./...-style pattern. No
// patterns match everything.
func matchesAny(rel string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, pat := range patterns {
		if matchPattern(rel, pat) {
			return true
		}
	}
	return false
}

// matchPattern implements the subset of go-tool pattern syntax the
// driver needs: ".", "./...", "./dir", and "./dir/...".
func matchPattern(rel, pat string) bool {
	pat = filepath.ToSlash(pat)
	pat = strings.TrimPrefix(pat, "./")
	if pat == "..." || pat == "." || pat == "" {
		return true
	}
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == prefix || strings.HasPrefix(rel, prefix+"/")
	}
	return rel == pat
}
