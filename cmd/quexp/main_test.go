package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected into a pipe and
// returns everything it printed. The experiment functions write to
// os.Stdout directly, so the smoke tests intercept it.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := f()
	w.Close()
	out := <-done
	os.Stdout = old
	if ferr != nil {
		t.Fatalf("experiment failed: %v\noutput so far:\n%s", ferr, out)
	}
	return out
}

// TestFig8Smoke regenerates the London dendrogram, the fastest and
// fully deterministic experiment: pure topology clustering, no
// simulation.
func TestFig8Smoke(t *testing.T) {
	out := captureStdout(t, fig8)
	for _, want := range []string{"Figure 8", "IBM Q London", "omega = 0.95"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8 output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n") < 5 {
		t.Errorf("fig8 output suspiciously short:\n%s", out)
	}
}

// TestFig8Golden: fig8 depends only on the fixed London coupling map,
// so repeated runs must be byte-identical.
func TestFig8Golden(t *testing.T) {
	first := captureStdout(t, fig8)
	second := captureStdout(t, fig8)
	if first != second {
		t.Fatalf("fig8 output differs across runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// TestRunRejectsUnknownExperiment: a mistyped -exp is an error that
// names the valid experiments, not a silent run of nothing.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run([]string{"-exp", "tabel2"})
	if err == nil || !strings.Contains(err.Error(), `"tabel2"`) || !strings.Contains(err.Error(), "table2, table3") {
		t.Fatalf("run -exp tabel2: error %v, want one naming it and the valid experiments", err)
	}
}

// TestExperimentsDocCurrent holds EXPERIMENTS.md to quexp: a fenced
// block whose info string is a quexp command line ("```quexp -exp
// table2 -seed 0") must be that command's output, line for line with
// trailing blanks trimmed and wall times masked, so the report cannot
// drift from the code.
func TestExperimentsDocCurrent(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	blocks := 0
	for i := 0; i < len(lines); i++ {
		cmd, ok := strings.CutPrefix(lines[i], "```quexp ")
		if !ok {
			continue
		}
		blocks++
		start := i + 1
		for i++; i < len(lines) && lines[i] != "```"; i++ {
		}
		want := trimBlanks(lines[start:i])
		got := trimBlanks(strings.Split(captureStdout(t, func() error { return run(strings.Fields(cmd)) }), "\n"))
		for k := 0; k < len(want) || k < len(got); k++ {
			var w, g string
			if k < len(want) {
				w = want[k]
			}
			if k < len(got) {
				g = got[k]
			}
			if w != g {
				t.Errorf("EXPERIMENTS.md:%d, block %q: doc says\n\t%q\nquexp prints\n\t%q", start+1+k, "quexp "+cmd, w, g)
				break
			}
		}
	}
	if blocks == 0 {
		t.Fatal("EXPERIMENTS.md has no quexp-tagged block")
	}
}

// wallTime is a wall-time token ("   5.2ms") with the blanks that pad
// it: the one part of quexp's text that differs from run to run.
var wallTime = regexp.MustCompile(`\s+[0-9.]+ms\b`)

// trimBlanks trims each line's trailing blanks, masks its wall-time
// tokens and drops trailing empty lines.
func trimBlanks(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = wallTime.ReplaceAllString(strings.TrimRight(l, " \t"), " ?ms")
	}
	for len(out) > 0 && out[len(out)-1] == "" {
		out = out[:len(out)-1]
	}
	return out
}
