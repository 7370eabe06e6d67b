package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmokeLondon drives the full command on the 5-qubit London
// chip with a two-job queue: it must schedule, compile, simulate, and
// report without error, and the report must carry the expected
// sections.
func TestRunSmokeLondon(t *testing.T) {
	args := []string{"-chip", "london", "-jobs", "bv_n3,3_17_13", "-trials", "64", "-eps", "0.15"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"chip london, 2 jobs", "batch  0", "bv_n3", "3_17_13", "avg PST", "TRF"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunDeterministic: the same arguments must print byte-identical
// reports, making the text output usable as a golden artifact.
func TestRunDeterministic(t *testing.T) {
	args := []string{"-chip", "london", "-jobs", "bv_n3", "-trials", "64"}
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run(args, &second); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if first.String() != second.String() {
		t.Fatalf("output differs across identical runs:\n--- first\n%s\n--- second\n%s", first.String(), second.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-chip", "nope"}, &out); err == nil {
		t.Error("unknown chip accepted")
	}
	if err := run([]string{"-chip", "london", "-jobs", "no_such_bench"}, &out); err == nil {
		t.Error("unknown benchmark accepted")
	}
	for _, eps := range []string{"NaN", "-1"} {
		if err := run([]string{"-chip", "london", "-jobs", "bv_n3,bv_n3", "-eps", eps}, &out); err == nil {
			t.Errorf("-eps %s accepted", eps)
		}
	}
	if err := run([]string{"-chip", "london", "stray"}, &out); err == nil || !strings.Contains(err.Error(), `unexpected argument "stray"`) {
		t.Errorf("positional argument: got %v", err)
	}
}
