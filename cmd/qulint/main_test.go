package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestModuleIsClean is the smoke test the Makefile's lint target
// relies on: qulint over the real module must exit 0 with no output.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "../..", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("qulint ./... = exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run wrote to stdout:\n%s", stdout.String())
	}
}

// writeTempModule lays out a scratch module for the exit-code tests.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.21\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestExitOneOnFindings drives the driver over a module with a real
// defect: findings must reach stdout and the exit status must be 1,
// distinct from the load-error status.
func TestExitOneOnFindings(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"internal/core/eq.go": "package core\n\n// Eq compares floats exactly.\nfunc Eq(a, b float64) bool {\n\treturn a == b\n}\n",
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "floateq") {
		t.Errorf("stdout missing the floateq finding:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing the finding count:\n%s", stderr.String())
	}
}

// TestExitTwoOnTypeError drives the driver over a module that does
// not type-check: the error is reported on stderr and the exit status
// is 2, so CI can tell "broken build" from "lint findings".
func TestExitTwoOnTypeError(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"internal/core/bad.go": "package core\n\nfunc broken() {\n\tundefinedIdent()\n}\n",
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "undefinedIdent") {
		t.Errorf("stderr missing the type error:\n%s", stderr.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, name := range lint.CheckNames() {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing check %q:\n%s", name, stdout.String())
		}
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checks", "nosuchcheck"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown check: exit %d, want 2", code)
	}
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"-C", "/nonexistent-dir"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad module dir: exit %d, want 2", code)
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		rel, pat string
		want     bool
	}{
		{"internal/sim", "./...", true},
		{"internal/sim", ".", true},
		{"", "./...", true},
		{"internal/sim", "./internal/sim", true},
		{"internal/sim", "./internal/...", true},
		{"internal/simx", "./internal/sim/...", false},
		{"internal/sim/sub", "./internal/sim/...", true},
		{"internal/sim", "./internal/sched", false},
		{"cmd/qulint", "./cmd/...", true},
		{"internal/sim", "internal/sim", true},
	}
	for _, c := range cases {
		if got := matchPattern(c.rel, c.pat); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.rel, c.pat, got, c.want)
		}
	}
}
