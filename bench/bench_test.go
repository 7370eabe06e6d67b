package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json equal to the tables in
// spec.go and inside the limits of the benchmark contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			use(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q", d.Name, d.Unit)
			}
			if d.Better != lower && d.Better != higher {
				t.Errorf("metric %s: better %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayerDefs {
		if d.Layer == "" || d.Moves == "" || !strings.HasPrefix(d.Name, d.Layer+".") {
			t.Errorf("per-layer metric %s needs its layer as prefix and a written prediction", d.Name)
		}
	}
	setups := 0
	for _, d := range endToEndDefs {
		if d.Name == mSetup && d.Unit == "s" && d.Better == lower {
			setups++
		}
	}
	if setups != 1 {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestSmokeAllWorkloads runs every workload in both modes at smoke scale and
// checks that each emits exactly the metric names BENCHMARK.json lists,
// passes its own output checks, and renders a well-formed driver line.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			dir := ""
			if traced {
				dir = t.TempDir()
			}
			res, err := runWorkload(runOpts{workload: w.Name, seed: 7, seconds: 0.5, trace: traced, smoke: true, outDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			defs := res.defs()
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: metric %s = %v (present %v)", w.Name, traced, d.Name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v)
				}
			}
			if res.Fingerprint == "" {
				t.Errorf("%s trace=%v: no output fingerprint", w.Name, traced)
			}
			line, err := driverLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &obj); err != nil {
				t.Fatalf("driver line: %v", err)
			}
			var keys []string
			for k := range obj {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
				t.Errorf("driver line keys %s", got)
			}
			if traced {
				data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				var doc struct {
					TraceEvents []chromeEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: trace file has %d events, err %v", w.Name, len(doc.TraceEvents), err)
				}
				if got := res.Metrics["trace.spans"]; int(got) != len(doc.TraceEvents) {
					t.Errorf("%s: trace.spans %v, file has %d events", w.Name, got, len(doc.TraceEvents))
				}
			}
		}
	}
}

// TestSameSeedSameOutputs runs the deterministic workloads twice with one
// seed and requires identical output fingerprints, and a different seed to
// change the Monte-Carlo outputs.
func TestSameSeedSameOutputs(t *testing.T) {
	for _, name := range []string{wlPair16, wlDrain} {
		run := func(seed int64) *runResult {
			res, err := runWorkload(runOpts{workload: name, seed: seed, seconds: 0.3, smoke: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Exact {
				t.Fatalf("%s should declare an exact fingerprint", name)
			}
			return res
		}
		a, b, c := run(3), run(3), run(4)
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: two runs of seed 3 disagree: %s vs %s", name, a.Fingerprint, b.Fingerprint)
		}
		if a.Fingerprint == c.Fingerprint {
			t.Errorf("%s: seeds 3 and 4 produced the same outputs", name)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, beyond := percentile(xs, 0.90); !near(v, 90) || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, beyond := percentile(xs, 1); !near(v, 100) || beyond != 0 {
		t.Errorf("p100 = %v with %d beyond", v, beyond)
	}
	if v, used := tailPercentile(xs, 0.90); !near(v, 90) || !near(used, 0.90) {
		t.Errorf("tail p90 over 100 samples = %v (p%v), want the p90 itself", v, 100*used)
	}
	// 99 beyond-samples short: p99 over 100 samples has 1 beyond, so the
	// highest supported percentile, p90, is reported instead.
	if v, used := tailPercentile(xs, 0.99); !near(v, 90) || !near(used, 0.90) {
		t.Errorf("tail p99 over 100 samples = %v (p%v), want p90 = 90", v, 100*used)
	}
	// 30 samples support p66 (10 beyond).
	if v, used := tailPercentile(xs[:30], 0.90); !near(used, 1-10.0/30) || !near(v, 90) {
		t.Errorf("tail p90 over 30 samples = %v (p%v)", v, 100*used)
	}
	// Under 20 samples nothing above the median has ten beyond it.
	if v, used := tailPercentile([]float64{5, 1, 3}, 0.90); !near(v, 3) || !near(used, 0.5) {
		t.Errorf("tail p90 over 3 samples = %v (p%v), want the median", v, 100*used)
	}
	if v, used := tailPercentile(nil, 0.9); !near(v, 0) || !near(used, 0) {
		t.Errorf("tail of nothing = %v, %v", v, used)
	}
}

func TestTailMeanAndQuietTime(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := tailMean(ten, 0.80); !near(got, 9.5) {
		t.Errorf("mean of the slowest fifth of 1..10 = %v, want 9.5", got)
	}
	if got := tailMean([]float64{7}, 0.80); !near(got, 7) {
		t.Errorf("tail mean of one sample = %v", got)
	}
	// First quartile, nearest rank: the 3rd of 10, the 1st of up to 4.
	if got := quietTime(ten); !near(got, 3) {
		t.Errorf("quiet time of 1..10 = %v, want 3", got)
	}
	if got := quietTime([]float64{5, 4, 9}); !near(got, 4) {
		t.Errorf("quiet time of three passes = %v, want the fastest", got)
	}
}

func TestMedianGeomeanSpread(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{9, 1, 5}); !near(got, 5) {
		t.Errorf("median = %v", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %v", got)
	}
	if got := geomean([]float64{0, -1}); !near(got, 0) {
		t.Errorf("geomean of non-positive values = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spreadShare(ten); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0].
	if got := spreadShare([]float64{13, 10, 11}); !near(got, 3.0/11) {
		t.Errorf("spread of 10,11,13 = %v", got)
	}
}

func TestArrivalSchedule(t *testing.T) {
	const n, window = 300, 10 * time.Second
	a := arrivalSchedule(rand.New(rand.NewSource(5)), n, window)
	b := arrivalSchedule(rand.New(rand.NewSource(5)), n, window)
	c := arrivalSchedule(rand.New(rand.NewSource(6)), n, window)
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		differs = differs || a[i] != c[i]
		if a[i] < 0 || a[i] >= window || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v: outside the window or out of order", i, a[i])
		}
	}
	if !differs {
		t.Error("seeds 5 and 6 gave the same schedule")
	}
	// Uniform order statistics: the gaps average window/n and are far from
	// constant (a paced generator would have no gap above twice the mean).
	long := 0
	for i := 1; i < n; i++ {
		if a[i]-a[i-1] > 2*window/n {
			long++
		}
	}
	if long < n/20 {
		t.Errorf("only %d of %d gaps exceed twice the mean: not Poisson-like", long, n)
	}
}

func TestLateness(t *testing.T) {
	if got := lateness(time.Second, 1500*time.Millisecond); got != 500*time.Millisecond {
		t.Errorf("late send: %v", got)
	}
	if got := lateness(time.Second, 900*time.Millisecond); got != 0 {
		t.Errorf("early send counts as %v late", got)
	}
}

// TestSelfTimes checks self time on a nested fixture: children are
// subtracted once where they overlap, clipped to their parent, and a
// grandchild only reduces its own parent.
func TestSelfTimes(t *testing.T) {
	u := time.Millisecond
	spans := []span{
		{Name: "root", Layer: "harness", Start: 0, End: 100 * u, Parent: -1},
		{Name: "a", Layer: "router", Start: 10 * u, End: 40 * u, Parent: 0},
		{Name: "b", Layer: "router", Start: 30 * u, End: 60 * u, Parent: 0},     // overlaps a
		{Name: "c", Layer: "partition", Start: 90 * u, End: 120 * u, Parent: 0}, // runs past root
		{Name: "a1", Layer: "sim", Start: 15 * u, End: 25 * u, Parent: 1},
		{Name: "lone", Layer: "sim", Start: 200 * u, End: 205 * u, Parent: -1},
	}
	want := []time.Duration{40 * u, 20 * u, 30 * u, 30 * u, 10 * u, 5 * u}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	st := summarize(spans)
	if st.selfByKey["router.a"] != 20*u || st.selfByKey["router.b"] != 30*u {
		t.Errorf("self times by key %v", st.selfByKey)
	}
	if st.meanSelf("sim.a1") != 10*u || st.meanSelf("sim.none") != 0 {
		t.Errorf("mean self: %v, %v", st.meanSelf("sim.a1"), st.meanSelf("sim.none"))
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "y", "z", -1)
	tr.end(id)
	if id != -1 || tr.add("x", "y", "z", -1, time.Now(), time.Now()) != -1 {
		t.Error("a nil tracer must record nothing")
	}
}

// TestCompare drives -compare over synthetic result files: equal files pass,
// a median beyond the bound fails, a spread wider than the bound is
// unresolved rather than failed, and differing exact fingerprints fail.
func TestCompare(t *testing.T) {
	mk := func(opMid []float64, fp string) *resultFile {
		f := &resultFile{}
		for _, v := range opMid {
			f.Runs = append(f.Runs, &runResult{
				Workload: wlPair16, Seed: 1, Correct: true, Attempted: 1, Exact: true, Fingerprint: fp,
				Metrics: map[string]float64{mSetup: 0.05, mOpMid: v, mOpTail: 300, mWork: 50000, mPST: 0.65, mCNOTs: 342, mDepth: 316, mTRF: 2},
			})
		}
		return f
	}
	base := mk([]float64{100, 101, 99, 100}, "aa")
	var out bytes.Buffer
	if code := compareResults(base, mk([]float64{101, 100, 100, 99}, "aa"), &out); code != 0 {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(base, mk([]float64{140, 141, 139, 140}, "aa"), &out); code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("40%% slower: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "of 100") {
		t.Errorf("ratio printed without its base:\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(base, mk([]float64{70, 170, 100, 135}, "aa"), &out); code != 0 || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("wide spread: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(base, mk([]float64{50, 51, 49, 50}, "aa"), &out); code != 0 || !strings.Contains(out.String(), verdictBetter) {
		t.Errorf("twice as fast: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(base, mk([]float64{100, 101, 99, 100}, "bb"), &out); code != 1 || !strings.Contains(out.String(), "DIFFER") {
		t.Errorf("different outputs: exit %d\n%s", code, out.String())
	}

	// Through the files and the command line.
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", base), write("b.json", mk([]float64{140, 141, 139, 140}, "aa"))
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-compare", a, a}, &stdout, &stderr); code != 0 {
		t.Errorf("-compare a a: exit %d: %s", code, stderr.String())
	}
	if code := realMain([]string{"-compare", a, b}, &stdout, &stderr); code != 1 {
		t.Errorf("-compare a b: exit %d: %s", code, stderr.String())
	}
	if code := realMain([]string{"-compare", a}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with one file: exit %d", code)
	}
}

func TestFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope", "-trace", "0"},
		{"-trace", "2"},
		{"-scale", "huge"},
		{"-seconds", "0"},
	} {
		if code := realMain(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}
