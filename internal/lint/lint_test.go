package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixtureFile loads one testdata file as a standalone package
// rooted (virtually) at rel and runs the named check plus the
// suppression layer over it.
func runFixtureFile(t *testing.T, checkName, file, rel string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	path := filepath.Join("testdata", file)
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	p, err := CheckFile(fset, f, "repro", rel)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	if len(p.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", path, p.TypeErrors)
	}
	checks, err := SelectChecks(checkName)
	if err != nil {
		t.Fatalf("select %s: %v", checkName, err)
	}
	return Analyze([]*Package{p}, checks, nil).Findings
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wantedLines extracts the fixture's `// want "substring"` comments,
// keyed by line number.
func wantedLines(t *testing.T, file string) map[int]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			out[i+1] = m[1]
		}
	}
	if len(out) == 0 {
		t.Fatalf("fixture %s declares no // want expectations", file)
	}
	return out
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		check string
		file  string
		rel   string
	}{
		{"norandglobal", "norandglobal.go", "internal/demo"},
		{"nowallclock", "nowallclock.go", "internal/sim"},
		{"maporder", "maporder.go", "internal/partition"},
		{"floateq", "floateq.go", "internal/core"},
		{"floateq", "ignore.go", "internal/demo"},
		{"noprint", "noprint.go", "internal/demo"},
		{"guardedby", "guardedby.go", "internal/demo"},
		{"ctxflow", "ctxflow.go", "internal/service"},
		{"lockorder", "lockorder.go", "internal/demo"},
		{"atomicmix", "atomicmix.go", "internal/demo"},
	}
	for _, c := range cases {
		t.Run(c.file+"/"+c.check, func(t *testing.T) {
			findings := runFixtureFile(t, c.check, c.file, c.rel)
			want := wantedLines(t, c.file)
			got := map[int]Finding{}
			for _, f := range findings {
				if prev, dup := got[f.Line]; dup {
					t.Errorf("line %d has two findings: %q and %q", f.Line, prev.Message, f.Message)
				}
				got[f.Line] = f
			}
			for line, substr := range want {
				f, ok := got[line]
				if !ok {
					t.Errorf("line %d: want a finding containing %q, got none", line, substr)
					continue
				}
				if !strings.Contains(f.Message, substr) {
					t.Errorf("line %d: finding %q does not contain %q", line, f.Message, substr)
				}
				if f.Check != c.check {
					t.Errorf("line %d: finding from check %q, want %q", line, f.Check, c.check)
				}
				delete(got, line)
			}
			for line, f := range got {
				t.Errorf("line %d: unexpected finding %q", line, f.Message)
			}
		})
	}
}

// TestNoWallClockAllowlist re-runs the nowallclock fixture as if it
// lived in an allowlisted package: service code may read the clock.
func TestNoWallClockAllowlist(t *testing.T) {
	for _, rel := range []string{"internal/service", "cmd/qucloudd", ""} {
		findings := runFixtureFile(t, "nowallclock", "nowallclock.go", rel)
		if len(findings) != 0 {
			t.Errorf("rel %q: want no findings outside deterministic packages, got %v", rel, findings)
		}
	}
	// The virtual-clock driver takes its time as an argument: it is
	// held to the discipline like the scheduler kernel it drives.
	if findings := runFixtureFile(t, "nowallclock", "nowallclock.go", "internal/cloudsim"); len(findings) == 0 {
		t.Error("internal/cloudsim may read the wall clock: want it classified deterministic")
	}
}

// TestNoPrintScope re-runs the noprint fixture outside internal/:
// commands and examples may print.
func TestNoPrintScope(t *testing.T) {
	for _, rel := range []string{"cmd/qulint", "examples/quickstart", ""} {
		findings := runFixtureFile(t, "noprint", "noprint.go", rel)
		if len(findings) != 0 {
			t.Errorf("rel %q: want no findings outside internal/, got %v", rel, findings)
		}
	}
}

// parseSnippet type-checks an inline source string as internal/demo.
func parseSnippet(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "snippet.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse snippet: %v", err)
	}
	p, err := CheckFile(fset, f, "repro", "internal/demo")
	if err != nil {
		t.Fatalf("type-check snippet: %v", err)
	}
	return p
}

func TestMalformedIgnoreDirective(t *testing.T) {
	p := parseSnippet(t, `package demo

func eq(a, b float64) bool {
	//lint:ignore floateq
	return a == b
}
`)
	findings := Analyze([]*Package{p}, Checks(), nil).Findings
	var checks []string
	for _, f := range findings {
		checks = append(checks, f.Check)
	}
	// The reason-less directive must not suppress, and must itself be
	// reported.
	joined := strings.Join(checks, ",")
	if !strings.Contains(joined, "lintdirective") || !strings.Contains(joined, "floateq") {
		t.Errorf("want lintdirective + floateq findings, got %v", findings)
	}
}

func TestIgnoreAllWildcard(t *testing.T) {
	p := parseSnippet(t, `package demo

func eq(a, b float64) bool {
	//lint:ignore all migration shim, remove with the next calibration rework
	return a == b
}
`)
	if findings := Analyze([]*Package{p}, Checks(), nil).Findings; len(findings) != 0 {
		t.Errorf("want all findings suppressed, got %v", findings)
	}
}

func TestSelectChecks(t *testing.T) {
	all, err := SelectChecks("")
	if err != nil || len(all) != len(Checks()) {
		t.Fatalf("empty spec: got %d checks, err %v", len(all), err)
	}
	two, err := SelectChecks("floateq, maporder")
	if err != nil || len(two) != 2 {
		t.Fatalf("two-check spec: got %v, err %v", two, err)
	}
	if _, err := SelectChecks("nosuchcheck"); err == nil {
		t.Fatal("unknown check: want error, got nil")
	}
	if _, err := SelectChecks(","); err == nil {
		t.Fatal("empty selection: want error, got nil")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Check: "floateq", File: "x.go", Line: 3, Col: 9, Message: "boom"}
	if got, want := f.String(), "x.go:3:9: boom (floateq)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestEveryCheckHasFixture keeps the fixture suite in sync with the
// registry: a new check must ship a testdata file named after it.
func TestEveryCheckHasFixture(t *testing.T) {
	for _, c := range Checks() {
		path := filepath.Join("testdata", c.Name+".go")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("check %s has no fixture %s: %v", c.Name, path, err)
		}
		if c.Doc == "" {
			t.Errorf("check %s has no doc line", c.Name)
		}
	}
}

// TestLoadModule exercises the real loader against this module and
// asserts the lint package itself is among the results with type info
// attached.
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	byRel := map[string]*Package{}
	for _, p := range pkgs {
		byRel[p.Rel] = p
	}
	for _, rel := range []string{"", "internal/lint", "internal/core", "internal/sim", "cmd/qulint"} {
		p, ok := byRel[rel]
		if !ok {
			t.Errorf("module load missing package %q", rel)
			continue
		}
		if p.Types == nil || p.Info == nil {
			t.Errorf("package %q loaded without type info", rel)
		}
		if len(p.TypeErrors) > 0 {
			t.Errorf("package %q has type errors: %v", rel, p.TypeErrors[:min(3, len(p.TypeErrors))])
		}
	}
	if len(byRel) < 15 {
		t.Errorf("module load found only %d packages", len(byRel))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func ExampleFinding_String() {
	f := Finding{Check: "nowallclock", File: "internal/sim/engine.go", Line: 42, Col: 7, Message: "time.Now in deterministic package internal/sim"}
	fmt.Println(f)
	// Output: internal/sim/engine.go:42:7: time.Now in deterministic package internal/sim (nowallclock)
}
