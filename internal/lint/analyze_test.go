package lint

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestPackageClassification enforces the allowlist invariant the
// checks rely on: every internal/* package is classified as either
// deterministic or latency-measuring — exactly one, never both,
// never neither — and neither map carries stale entries for packages
// that no longer exist. A new internal package must be placed on
// purpose.
func TestPackageClassification(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		seen[rel] = true
		det, lat := deterministicPkgs[rel], latencyPkgs[rel]
		switch {
		case det && lat:
			t.Errorf("%s is in both deterministicPkgs and latencyPkgs", rel)
		case !det && !lat:
			t.Errorf("%s is in neither deterministicPkgs nor latencyPkgs: classify it in internal/lint/checks.go", rel)
		}
	}
	for rel := range deterministicPkgs {
		if strings.HasPrefix(rel, "internal/") && !seen[rel] {
			t.Errorf("deterministicPkgs lists %s, which no longer exists", rel)
		}
	}
	for rel := range latencyPkgs {
		if !seen[rel] {
			t.Errorf("latencyPkgs lists %s, which no longer exists", rel)
		}
	}
	if len(seen) == 0 {
		t.Fatal("packageDirs found no internal packages")
	}
}

// TestUnusedIgnoreAudit exercises the stale-suppression audit: a
// directive that suppresses nothing is itself reported, and the
// suppression statistics count it.
func TestUnusedIgnoreAudit(t *testing.T) {
	p := parseSnippet(t, `package demo

func less(a, b float64) bool {
	//lint:ignore floateq legacy tolerance kept for the calibration rework
	return a < b
}
`)
	res := Analyze([]*Package{p}, Checks(), nil)
	var audit []Finding
	for _, f := range res.Findings {
		if f.Check == unusedIgnoreName {
			audit = append(audit, f)
		}
	}
	if len(audit) != 1 || !strings.Contains(audit[0].Message, "floateq") {
		t.Errorf("want one unusedignore finding naming floateq, got %v", res.Findings)
	}
	want := SuppressionStats{Directives: 1, Used: 0, Unused: 1}
	if res.Suppressions != want {
		t.Errorf("suppressions = %+v, want %+v", res.Suppressions, want)
	}
}

// TestUsedIgnoreCounted is the audit's complement: a directive that
// earns its keep is counted used and produces no finding.
func TestUsedIgnoreCounted(t *testing.T) {
	p := parseSnippet(t, `package demo

func eq(a, b float64) bool {
	//lint:ignore floateq bit-exact comparison is the point here
	return a == b
}
`)
	res := Analyze([]*Package{p}, Checks(), nil)
	if len(res.Findings) != 0 {
		t.Errorf("want no findings, got %v", res.Findings)
	}
	want := SuppressionStats{Directives: 1, Used: 1, Unused: 0}
	if res.Suppressions != want {
		t.Errorf("suppressions = %+v, want %+v", res.Suppressions, want)
	}
}

// renderFixtureResults parses the finding-rich fixtures fresh (new
// FileSet, new type info, new maps — so any map-iteration order
// leaking into output would differ between calls) and renders every
// Analyze result as one JSON byte stream.
func renderFixtureResults(t *testing.T) []byte {
	t.Helper()
	cases := []struct{ file, rel string }{
		{"ctxflow.go", "internal/service"},
		{"lockorder.go", "internal/demo"},
		{"atomicmix.go", "internal/demo"},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range cases {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join("testdata", c.file), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		p, err := CheckFile(fset, f, "repro", c.rel)
		if err != nil {
			t.Fatal(err)
		}
		res := Analyze([]*Package{p}, Checks(), nil)
		if len(res.Findings) == 0 {
			t.Fatalf("fixture %s produced no findings; the determinism test needs non-trivial output", c.file)
		}
		if err := enc.Encode(res.Findings); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestOutputDeterminism asserts the analyzer's output is byte-stable:
// repeated runs over freshly parsed inputs, under different
// GOMAXPROCS values, must render identically, so two lint logs diff
// clean.
func TestOutputDeterminism(t *testing.T) {
	first := renderFixtureResults(t)
	for run := 0; run < 3; run++ {
		if got := renderFixtureResults(t); !bytes.Equal(got, first) {
			t.Fatalf("run %d differs from first run:\n--- first\n%s--- run\n%s", run, first, got)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := renderFixtureResults(t); !bytes.Equal(got, first) {
		t.Fatalf("GOMAXPROCS=1 run differs:\n--- first\n%s--- got\n%s", first, got)
	}
}
