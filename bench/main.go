// Command bench is the repository's benchmark: five workloads, a small set
// of end-to-end metrics every workload reports, and per-layer metrics taken
// in a separate traced run in which the harness records a span around every
// call it makes into a layer's public function. README.md in this directory
// defines every workload and metric; spec.go holds the same definitions as
// tables and generates BENCHMARK.json.
//
// Driver form (one workload, one mode, result object on the last line):
//
//	bash bench/run.sh --workload svc_open --seed 3 --seconds 15 --trace 0
//
// Everything, with result and trace files:
//
//	bash bench/run.sh -workload all -seed 0 -out bench/out
//
// Comparing two result files under the benchmark's own bounds:
//
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runOpts selects one run of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string // trace files go here; empty writes none
}

// budget is the run's measuring time as a duration.
func (o runOpts) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// infoRow is a printed number that is not a gated or per-layer metric: a
// per-input row, or the sample count behind a percentile.
type infoRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      []infoRow          `json:"info,omitempty"`
	// Fingerprint is a sha256 over the run's outputs (CNOTs, depth, PST
	// bits, batch composition). Exact marks it as a pure function of seed
	// and code, so two runs of one commit must agree on it.
	Fingerprint string   `json:"fingerprint"`
	Exact       bool     `json:"fingerprint_exact"`
	Failures    []string `json:"failures,omitempty"`
}

// tally counts operations attempted and failed. An operation that errors, is
// refused, or fails an output check counts as failed.
type tally struct {
	attempted int
	failed    int
	msgs      []string
}

func (t *tally) op() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// finish copies the tally into the result; a run with no failed operation
// and at least one attempted is correct.
func (t *tally) finish(r *runResult) {
	if t.failed > t.attempted {
		t.failed = t.attempted
	}
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.msgs
	r.Correct = t.failed == 0 && t.attempted > 0
}

// newResult starts the result of one run; exact declares its fingerprint a
// pure function of seed and code.
func newResult(o runOpts, exact bool) *runResult {
	return &runResult{Workload: o.workload, Seed: o.seed, Trace: o.trace, Metrics: map[string]float64{}, Exact: exact}
}

// defs returns the metric definitions of the result's mode.
func (r *runResult) defs() []metricDef {
	if r.Trace {
		return perLayerDefs
	}
	return endToEndDefs
}

func (r *runResult) info(name string, value float64, unit string) {
	r.Info = append(r.Info, infoRow{name, value, unit})
}

// runners maps each workload to its implementation.
var runners = map[string]func(runOpts) (*runResult, error){
	wlMix50:  runMix50,
	wlPair16: runPair16,
	wlCliff:  runCliff50,
	wlDrain:  runDrain,
	wlOpen:   runOpen,
}

// runWorkload runs one workload in one mode and completes the metric set:
// a run reports every metric of its mode, with 0 for a layer it never
// entered.
func runWorkload(o runOpts) (*runResult, error) {
	run, ok := runners[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	full := make(map[string]float64, len(res.defs()))
	for _, d := range res.defs() {
		full[d.Name] = res.Metrics[d.Name]
	}
	for name := range res.Metrics {
		if _, ok := full[name]; !ok {
			return nil, fmt.Errorf("%s: metric %q is not defined for this mode", o.workload, name)
		}
	}
	res.Metrics = full
	return res, nil
}

// printRows prints every metric as "workload metric value unit" in the
// definition order, then the info rows behind a "#".
func printRows(w io.Writer, res *runResult) {
	for _, d := range res.defs() {
		fmt.Fprintf(w, "%s %s %v %s\n", res.Workload, d.Name, res.Metrics[d.Name], d.Unit)
	}
	for _, row := range res.Info {
		fmt.Fprintf(w, "# %s %s %v %s\n", res.Workload, row.Name, row.Value, row.Unit)
	}
	fmt.Fprintf(w, "# %s fingerprint %s exact=%v attempted=%d failed=%d\n", res.Workload, res.Fingerprint, res.Exact, res.Attempted, res.Failed)
	for _, msg := range res.Failures {
		fmt.Fprintf(w, "# %s FAILED %s\n", res.Workload, msg)
	}
}

// driverLine renders the result object the driver reads from the last line
// of standard output.
func driverLine(res *runResult) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(res.defs()))
	for _, d := range res.defs() {
		metrics[d.Name] = mv{res.Metrics[d.Name], d.Unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(data), err
}

// runHeader describes the machine and build a result file came from.
type runHeader struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
}

// resultFile is the JSON document -out writes and -compare reads.
type resultFile struct {
	Header runHeader    `json:"header"`
	Runs   []*runResult `json:"runs"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 0, "workload seed: job and input order, Poisson schedule, Monte-Carlo seeds")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
	scale := fs.String("scale", "full", "full, or smoke (one input per workload, for tests)")
	out := fs.String("out", "", "directory for the result file and the trace files")
	runs := fs.Int("runs", 1, "repeat every selected run this many times (for -compare's spread)")
	commit := fs.String("commit", "unknown", "commit id to record in the result file")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	printSpec := fs.Bool("print-spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printSpec {
		data, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprint(stdout, string(data))
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	var names []string
	if *workload == "all" {
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	} else {
		names = []string{*workload}
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "bench: -trace must be 0, 1 or both, got %q\n", *trace)
		return 2
	}
	if *scale != "full" && *scale != "smoke" {
		fmt.Fprintf(stderr, "bench: -scale must be full or smoke, got %q\n", *scale)
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive")
		return 2
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	file := resultFile{Header: runHeader{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: *commit, Seconds: *seconds, Scale: *scale,
	}}
	fmt.Fprintf(stdout, "# bench nproc=%d gomaxprocs=%d go=%s seed=%d seconds=%v scale=%s commit=%s\n",
		file.Header.NProc, file.Header.GOMAXPROCS, file.Header.GoVersion, *seed, *seconds, *scale, *commit)
	ok := true
	var last *runResult
	for rep := 0; rep < *runs; rep++ {
		for _, name := range names {
			for _, traced := range modes {
				res, err := runWorkload(runOpts{
					workload: name, seed: *seed, seconds: *seconds, trace: traced,
					smoke: *scale == "smoke", outDir: *out,
				})
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				printRows(stdout, res)
				ok = ok && res.Correct
				file.Runs = append(file.Runs, res)
				last = res
			}
		}
	}
	if *out != "" {
		file.Header.CPUModel = cpuModel()
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(*out, fmt.Sprintf("result-%s-seed%d.json", *workload, *seed)), append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(file.Runs) == 1 {
		line, err := driverLine(last)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: an output check failed")
		return 1
	}
	return 0
}
