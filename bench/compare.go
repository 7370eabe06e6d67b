package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worseBy is how much worse b is than the base a, as a share of a, in the
// metric's own direction (negative when b is better).
func worseBy(better string, a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies one end-to-end metric's bound to the runs of both sides. A
// median worse than the bound is a regression; when either side's own
// spread exceeds the bound the comparison is unresolved, unless every run of
// B reads better than every run of A.
func judge(def metricDef, a, b []float64) (verdict string, worse float64) {
	medA, medB := median(a), median(b)
	worse = worseBy(def.Better, medA, medB)
	// One run a side cannot show that B always reads better.
	allBetter := len(a) > 1 && len(b) > 1
	for _, x := range a {
		for _, y := range b {
			if worseBy(def.Better, x, y) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return verdictBetter, worse
	case math.Max(spreadShare(a), spreadShare(b)) > def.Bound:
		return verdictUnresolved, worse
	case worse > def.Bound:
		return verdictRegression, worse
	}
	return verdictOK, worse
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, the ratio with its base and the verdict, then the fingerprint
// comparison of the runs both files share, and returns the exit code: 1 on
// a regression or on differing fingerprints of exact outputs.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		f, err := readResultFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(files[0], files[1], stdout)
}

func compareResults(fa, fb *resultFile, stdout io.Writer) int {
	type key struct {
		workload string
		seed     int64
		trace    bool
	}
	values := func(f *resultFile, workload, metric string) []float64 {
		var xs []float64
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Trace {
				xs = append(xs, r.Metrics[metric])
			}
		}
		return xs
	}
	bad := false
	fmt.Fprintf(stdout, "%-14s %-12s %14s %14s %24s %8s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "verdict")
	for _, w := range workloadDefs {
		for _, def := range endToEndDefs {
			a, b := values(fa, w.Name, def.Name), values(fb, w.Name, def.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict, worse := judge(def, a, b)
			if verdict == verdictRegression {
				bad = true
			}
			medA, medB := median(a), median(b)
			ratio := "n/a"
			if medA > 0 {
				ratio = fmt.Sprintf("%.4f of %.6g", medB/medA, medA)
			}
			fmt.Fprintf(stdout, "%-14s %-12s %14.6g %14.6g %24s %7.0f%%  %s (%+.2f%% worse, n=%d/%d)\n",
				w.Name, def.Name, medA, medB, ratio, 100*def.Bound, verdict, 100*worse, len(a), len(b))
		}
	}
	prints := func(f *resultFile) map[key][]string {
		out := map[key][]string{}
		for _, r := range f.Runs {
			if r.Exact {
				k := key{r.Workload, r.Seed, r.Trace}
				out[k] = append(out[k], r.Fingerprint)
			}
		}
		return out
	}
	pa, pb := prints(fa), prints(fb)
	var keys []key
	for k := range pa {
		if _, ok := pb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		return !a.trace && b.trace
	})
	for _, k := range keys {
		same := true
		for _, x := range append(append([]string(nil), pa[k]...), pb[k]...) {
			same = same && x == pa[k][0]
		}
		state := "identical"
		if !same {
			state, bad = "DIFFER", true
		}
		fmt.Fprintf(stdout, "%-14s fingerprint seed=%d trace=%v %s\n", k.workload, k.seed, k.trace, state)
	}
	if bad {
		return 1
	}
	return 0
}
