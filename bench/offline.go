package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	qucloud "repro"
	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/nisqbench"
	"repro/internal/partition"
	"repro/internal/router"
	"repro/internal/sim"
)

// calDay is the calibration day of every device the benchmark builds. It is
// fixed rather than taken from the seed: on IBMQ50 the day moves one pass
// over the Table III mixes between 6 s and 15 s and makes CDAP refuse
// Mix_9 on day 4, so a seed-chosen day would spread every compile metric
// far beyond any usable bound and fail operations. The seed drives input
// order, job order, the arrival schedule and every Monte-Carlo seed.
const calDay = 0

// trialsPerOp is the paper's Monte-Carlo budget per simulated workload.
const trialsPerOp = 8024

// pstPasses is how many leading passes pst_avg and the output fingerprint
// cover: enough for a spread well inside pst_avg's bound. A sim run always
// completes at least this many, whatever its budget, so both are functions
// of the seed and the code alone.
const pstPasses = 4

// Set-up is repeated and setup_s is the quiet-machine time over all
// repetitions: half of them before the timed phase and half after it, so a
// slow spell of the host at either end does not decide the number. Each half
// runs at least setupMinReps times, then on until setupMaxReps or until
// setupSpend has gone into it, so a millisecond set-up is sampled often
// enough and a half-second one does not eat the run.
const (
	setupMinReps = 3
	setupMaxReps = 12
	setupSpend   = 500 * time.Millisecond
)

// setupSampler repeats one workload's set-up and collects its wall times.
type setupSampler[T any] struct {
	smoke   bool
	setup   func() (T, error)
	discard func(T) // releases an environment that will not be used; may be nil
	secs    []float64
}

// sample runs one half of the repetitions (one under smoke) and returns the
// last environment built; the others are released outside the timed region.
func (s *setupSampler[T]) sample() (env T, err error) {
	spent := time.Duration(0)
	for i := 0; i < setupMaxReps; i++ {
		if s.smoke && i == 1 || i >= setupMinReps && spent >= setupSpend {
			break
		}
		if i > 0 && s.discard != nil {
			s.discard(env)
		}
		start := time.Now()
		if env, err = s.setup(); err != nil {
			return env, err
		}
		took := time.Since(start)
		spent += took
		s.secs = append(s.secs, took.Seconds())
	}
	return env, nil
}

// resample runs the second half after the timed phase and returns setup_s.
func (s *setupSampler[T]) resample() (float64, error) {
	env, err := s.sample()
	if err != nil {
		return 0, err
	}
	if s.discard != nil {
		s.discard(env)
	}
	return quietTime(s.secs), nil
}

// compileInput is one multi-program workload handed to the compiler.
type compileInput struct {
	name  string
	progs []*circuit.Circuit
}

func loadInput(name string, programs []string) (compileInput, error) {
	in := compileInput{name: name}
	for _, p := range programs {
		c, err := nisqbench.Get(p)
		if err != nil {
			return in, err
		}
		in.progs = append(in.progs, c)
	}
	return in, nil
}

// cliffordMixes are the 4-program stabilizer-only IBMQ50 mixes of
// cliff50_sim (28 to 40 qubits, beyond the statevector engine).
var cliffordMixes = [][]string{
	{"bv_n10", "ghz_n8", "dj_n4", "bv_n4"},
	{"bv_n10", "bv_n10", "bv_n10", "bv_n10"},
	{"ghz_n8", "ghz_n8", "ghz_n8", "ghz_n8"},
}

// offlineInputs returns the workload's inputs. Smoke keeps one cheap input.
func offlineInputs(workload string, smoke bool) ([]compileInput, error) {
	var lists [][]string
	var label func(i int) string
	keep := 0
	switch workload {
	case wlMix50:
		lists = qucloud.Table3Mixes
		label = func(i int) string { return fmt.Sprintf("Mix_%d", i+1) }
		keep = 2 // Mix_3, the cheapest with four distinct programs
	case wlPair16:
		for _, w := range qucloud.Table2Workloads {
			lists = append(lists, []string{w[0], w[1]})
		}
		label = func(i int) string { return strings.Join(lists[i], "+") }
		keep = 1
	case wlCliff:
		lists = cliffordMixes
		label = func(i int) string { return fmt.Sprintf("CMix_%d", i+1) }
	}
	var out []compileInput
	for i, l := range lists {
		if smoke && i != keep {
			continue
		}
		in, err := loadInput(label(i), l)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// offlineEnv is what an offline workload's set-up leaves behind.
type offlineEnv struct {
	dev     *arch.Device
	comp    *core.Compiler
	inputs  []compileInput
	results []*core.Result // set-up compiles (sim workloads only)
}

// setupOffline builds the device, its hierarchy tree and hop table, the
// input circuits and — for the sim workloads — the compiled results the
// timed phase simulates. Every call starts from a fresh device, so the
// device's artifact cache is cold each time.
func setupOffline(workload string, smoke bool, tr *tracer) (*offlineEnv, error) {
	root := tr.begin("setup", "harness", "setup", -1)
	defer tr.end(root)
	env := &offlineEnv{}
	if workload == wlPair16 {
		env.dev = arch.IBMQ16(calDay)
	} else {
		env.dev = arch.IBMQ50(calDay)
	}
	env.comp = core.NewCompiler(env.dev)
	env.comp.Workers = 1 // measure the program, not the scheduler
	if tr != nil {
		// The cached build below hides the cost; time an uncached one.
		s := tr.begin("Build", "community", "setup", root)
		community.Build(env.dev, env.comp.Omega)
		tr.end(s)
	}
	env.comp.Tree()
	env.dev.Hops()
	var err error
	if env.inputs, err = offlineInputs(workload, smoke); err != nil {
		return nil, err
	}
	if workload == wlMix50 {
		return env, nil
	}
	for _, in := range env.inputs {
		s := tr.begin("Compile", "core", in.name, root)
		res, err := env.comp.Compile(in.progs, core.CDAPXSwap)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("set-up compile %s: %w", in.name, err)
		}
		env.results = append(env.results, res)
	}
	return env, nil
}

// offlineSetups samples an offline workload's set-up.
func offlineSetups(o runOpts) *setupSampler[*offlineEnv] {
	return &setupSampler[*offlineEnv]{smoke: o.smoke, setup: func() (*offlineEnv, error) { return setupOffline(o.workload, o.smoke, nil) }}
}

// passes runs op over every input, in a seed-derived order that changes
// every pass, until starting another pass would overrun the budget; at least
// atLeast passes always run. It returns each input's wall times in ms and
// each pass's wall in seconds.
func passes(budget time.Duration, atLeast, inputs int, seed int64, op func(pass, input int) time.Duration) (samples [][]float64, passSecs []float64) {
	samples = make([][]float64, inputs)
	start := time.Now()
	for n := 0; ; n++ {
		passStart := time.Now()
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
		for _, i := range rng.Perm(inputs) {
			samples[i] = append(samples[i], ms(op(n, i)))
		}
		last := time.Since(passStart)
		passSecs = append(passSecs, last.Seconds())
		if n+1 >= atLeast && time.Since(start)+last > budget {
			return samples, passSecs
		}
	}
}

// quietRate is the work rate of the quiet machine: work units per pass over
// the quiet-machine pass time.
func quietRate(workPerPass int, passSecs []float64) float64 {
	return float64(workPerPass) / quietTime(passSecs)
}

// mcSeed derives the Monte-Carlo seed of one simulate call.
func mcSeed(seed int64, pass, input int) int64 {
	return seed*1_000_003 + int64(pass)*1009 + int64(input) + 1
}

// procSample is a snapshot of the process counters the proc.* metrics
// difference over the timed phase.
type procSample struct {
	mem runtime.MemStats
	cpu time.Duration
}

func sampleProc() procSample {
	var p procSample
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// procMetrics fills proc.* from two samples around the timed phase.
func procMetrics(m map[string]float64, before, after procSample) {
	m["proc.alloc_mb"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1e6
	m["proc.heap_peak_mb"] = float64(after.mem.HeapSys) / 1e6
	m["proc.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["proc.cpu_s"] = (after.cpu - before.cpu).Seconds()
}

// perInput reduces each input's samples to its quiet-machine time and
// returns them with an info row per input.
func perInput(res *runResult, inputs []compileInput, samples [][]float64) []float64 {
	quiet := make([]float64, len(inputs))
	for i, in := range inputs {
		quiet[i] = quietTime(samples[i])
		res.info("op_ms."+in.name, quiet[i], "ms")
	}
	return quiet
}

// fingerprint hashes the lines that describe a run's outputs.
func fingerprint(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// finishTrace writes the Chrome trace when an output directory was given
// and records the span count.
func finishTrace(o runOpts, res *runResult, tr *tracer) error {
	res.Metrics["trace.spans"] = float64(len(tr.spans))
	if o.outDir == "" {
		return nil
	}
	return writeChromeTrace(filepath.Join(o.outDir, "trace-"+o.workload+".json"), tr.spans)
}

// runMix50 is mix50_compile: compile-only passes over the Table III mixes.
func runMix50(o runOpts) (*runResult, error) {
	res := newResult(o, true)
	setups := offlineSetups(o)
	env, err := setups.sample()
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceMix50(o, res, env)
	}
	var tl tally
	first := make([]*core.Result, len(env.inputs))
	runtime.GC()
	samples, passSecs := passes(o.budget(), 1, len(env.inputs), o.seed, func(pass, i int) time.Duration {
		tl.op()
		start := time.Now()
		r, err := env.comp.Compile(env.inputs[i].progs, core.CDAPXSwap)
		el := time.Since(start)
		switch {
		case err != nil:
			tl.fail("%s: %v", env.inputs[i].name, err)
		case first[i] == nil:
			first[i] = r
		case r.CNOTs != first[i].CNOTs || r.Depth != first[i].Depth:
			tl.fail("%s: pass %d compiled to %d CNOTs depth %d, pass 0 to %d and %d", env.inputs[i].name, pass, r.CNOTs, r.Depth, first[i].CNOTs, first[i].Depth)
		}
		return el
	})
	quiet := perInput(res, env.inputs, samples)
	var lines []string
	cnots, depth, progs, espSum := 0, 0, 0, 0.0
	for i, r := range first {
		if r == nil {
			continue
		}
		if err := r.Validate(); err != nil {
			tl.fail("%s: Validate: %v", env.inputs[i].name, err)
		}
		esp, err := sim.AnalyticESP(env.dev, r.Schedules[0], len(r.Programs), sim.DefaultNoise().IdleErrPerLayer)
		if err != nil {
			tl.fail("%s: AnalyticESP: %v", env.inputs[i].name, err)
			continue
		}
		for _, e := range esp.PerProgram {
			espSum += e
			progs++
		}
		cnots += r.CNOTs
		depth += r.Depth
		lines = append(lines, fmt.Sprintf("%s %d %d %d %d", env.inputs[i].name, r.CNOTs, r.Depth, r.Swaps, r.InterSwaps))
	}
	if res.Metrics[mSetup], err = setups.resample(); err != nil {
		return nil, err
	}
	res.Metrics[mOpMid] = geomean(quiet)
	res.Metrics[mOpTail] = maxOf(quiet)
	res.Metrics[mWork] = quietRate(len(env.inputs), passSecs)
	res.Metrics[mCNOTs] = float64(cnots)
	res.Metrics[mDepth] = float64(depth)
	if progs > 0 {
		res.Metrics[mPST] = espSum / float64(progs)
	}
	res.Metrics[mTRF] = float64(progs) / float64(len(env.inputs))
	res.info("passes", float64(len(passSecs)), unitCount)
	res.Fingerprint = fingerprint(lines)
	tl.finish(res)
	return res, nil
}

// replayCompile is core.Compiler's CDAP+X-SWAP pipeline driven from outside
// with a span around every call into partition and router: per attempt,
// CDAP, the joint reverse traversal, the final route and the schedule's
// CNOT/depth accounting; the attempt with the fewest CNOTs wins. It must
// compile to exactly what Compile does, which the caller checks.
func replayCompile(tr *tracer, parent int, op string, comp *core.Compiler, progs []*circuit.Circuit) (best *core.Result, err error) {
	tree := comp.Tree()
	for seed := int64(1); seed <= int64(comp.Attempts); seed++ {
		s := tr.begin("CDAP", "partition", op, parent)
		part, perr := partition.CDAP(comp.Device, tree, progs)
		tr.end(s)
		if perr != nil {
			err = perr
			continue
		}
		opts := router.XSWAPOptions()
		opts.NoisePenalty = comp.NoisePenalty
		opts.UseBridge = comp.Bridge
		opts.Seed = seed
		initial := make([][]int, len(progs))
		for i, a := range part.Assignments {
			initial[i] = a.InitialMapping
		}
		s = tr.begin("ReverseTraversalMulti", "router", op, parent)
		refined, rerr := router.ReverseTraversalMulti(comp.Device, progs, initial, comp.Traversals, opts)
		tr.end(s)
		if rerr == nil {
			initial = refined
		}
		s = tr.begin("Route", "router", op, parent)
		sched, rerr := router.Route(comp.Device, progs, initial, opts)
		tr.end(s)
		if rerr != nil {
			err = rerr
			continue
		}
		s = tr.begin("Schedule.count", "router", op, parent)
		r := &core.Result{
			Strategy: core.CDAPXSwap, Programs: progs,
			Schedules: []*router.Schedule{sched}, Initial: [][][]int{initial},
			CNOTs: sched.CNOTCount(), Depth: sched.Depth(),
			Swaps: sched.SwapCount, InterSwaps: sched.InterSwapCount,
		}
		tr.end(s)
		if best == nil || r.CNOTs < best.CNOTs {
			best = r
		}
	}
	if best == nil {
		return nil, err
	}
	return best, nil
}

// traceSkipDirect names the mix the traced run leaves out of its untraced
// reference pass: Mix_5 alone takes as long as the other eleven together,
// and its spans are recorded by the replay either way.
const traceSkipDirect = "Mix_5"

// traceMix50 is the traced run of mix50_compile: per mix, one untraced
// reference Compile, then the same pipeline replayed with spans.
func traceMix50(o runOpts, res *runResult, env *offlineEnv) (*runResult, error) {
	var tl tally
	tr := newTracer()
	if _, err := setupOffline(o.workload, o.smoke, tr); err != nil {
		return nil, err
	}
	runtime.GC()
	before := sampleProc()
	direct := map[string]*core.Result{}
	directMS := map[string]float64{}
	var lines []string
	replayMS := map[string]float64{}
	swaps, inter := 0, 0
	// Each mix is compiled untraced and then replayed back to back, so a
	// slow spell of the host falls on both sides of the comparison.
	for _, in := range env.inputs {
		if in.name != traceSkipDirect {
			tl.op()
			s := tr.begin("Compile", "core", in.name, -1)
			start := time.Now()
			r, err := env.comp.Compile(in.progs, core.CDAPXSwap)
			directMS[in.name] = ms(time.Since(start))
			tr.end(s)
			if err != nil {
				tl.fail("%s: %v", in.name, err)
			} else {
				direct[in.name] = r
			}
		}
		tl.op()
		root := tr.begin("compile_replay", "harness", in.name, -1)
		start := time.Now()
		r, err := replayCompile(tr, root, in.name, env.comp, in.progs)
		replayMS[in.name] = ms(time.Since(start))
		tr.end(root)
		if err != nil {
			tl.fail("%s: replay: %v", in.name, err)
			continue
		}
		if err := r.Validate(); err != nil {
			tl.fail("%s: replay Validate: %v", in.name, err)
		}
		if d, ok := direct[in.name]; ok && (d.CNOTs != r.CNOTs || d.Depth != r.Depth) {
			tl.fail("%s: replay compiled to %d CNOTs depth %d, Compile to %d and %d: the replay no longer mirrors core", in.name, r.CNOTs, r.Depth, d.CNOTs, d.Depth)
		}
		swaps += r.Swaps
		inter += r.InterSwaps
		lines = append(lines, fmt.Sprintf("%s %d %d %d %d", in.name, r.CNOTs, r.Depth, r.Swaps, r.InterSwaps))
	}
	after := sampleProc()

	// Shares are taken over the mixes both passes ran.
	self := selfTimes(tr.spans)
	var partSelf, routeSelf, directSum, replaySum float64
	for i, s := range tr.spans {
		if _, ok := direct[s.OpID]; !ok {
			continue
		}
		switch s.Layer {
		case "partition":
			partSelf += ms(self[i])
		case "router":
			routeSelf += ms(self[i])
		}
	}
	var directAll []float64
	cheapest := -1
	for i, in := range env.inputs {
		v, ok := directMS[in.name]
		if !ok {
			continue
		}
		directAll = append(directAll, v)
		directSum += v
		replaySum += replayMS[in.name]
		if cheapest < 0 || v < directMS[env.inputs[cheapest].name] {
			cheapest = i
		}
	}
	st := summarize(tr.spans)
	m := res.Metrics
	m["community.build_ms"] = ms(st.meanSelf("community.Build"))
	m["partition.cdap_ms"] = ms(st.meanSelf("partition.CDAP"))
	m["router.traversal_ms"] = ms(st.meanSelf("router.ReverseTraversalMulti"))
	m["router.route_ms"] = ms(st.meanSelf("router.Route"))
	m["router.swaps_total"] = float64(swaps)
	m["router.inter_swaps_total"] = float64(inter)
	m["core.compile_ms"] = mean(directAll)
	if directSum > 0 {
		m["partition.share"] = partSelf / directSum
		m["router.share"] = routeSelf / directSum
		m["core.untraced_share"] = 1 - (partSelf+routeSelf)/directSum
		m["trace.overhead_pct"] = 100 * (replaySum - directSum) / directSum
	}

	// Multi-core scaling of the attempt fan-out, on the cheapest mix.
	if cheapest >= 0 {
		in := env.inputs[cheapest]
		par := *env.comp
		par.Workers = runtime.NumCPU()
		start := time.Now()
		if _, err := par.Compile(in.progs, core.CDAPXSwap); err != nil {
			tl.fail("%s: parallel compile: %v", in.name, err)
		} else if el := ms(time.Since(start)); el > 0 {
			m["core.parallel_speedup"] = directMS[in.name] / el
		}
	}
	procMetrics(m, before, after)
	res.Fingerprint = fingerprint(lines)
	tl.finish(res)
	return res, finishTrace(o, res, tr)
}

// simEngine is one of the two Monte-Carlo engines behind the sim workloads.
type simEngine struct {
	clifford bool
	// viaCompiler is the call the untraced run times.
	viaCompiler func(c *core.Compiler, r *core.Result, seed int64) ([]float64, error)
	// direct is the sim layer's own entry point, which the traced run wraps
	// in a span and the output check uses to read the compiled noiseless
	// outcome.
	direct func(d *arch.Device, r *core.Result, trials int, seed int64, workers int) (*sim.Outcome, error)
	// ideal is the logical-circuit interpreter the compiled outcome must
	// agree with; it never sees the router's output.
	ideal func(c *circuit.Circuit) (string, error)
}

var statevectorEngine = simEngine{
	viaCompiler: func(c *core.Compiler, r *core.Result, seed int64) ([]float64, error) {
		return c.Simulate(r, trialsPerOp, seed, sim.DefaultNoise())
	},
	direct: func(d *arch.Device, r *core.Result, trials int, seed int64, workers int) (*sim.Outcome, error) {
		return sim.SimulateScheduleCtx(context.Background(), d, r.Schedules[0], r.Programs, trials, seed, sim.DefaultNoise(), workers)
	},
	ideal: func(c *circuit.Circuit) (string, error) {
		all, _, err := sim.SimulateIdeal(c)
		if err != nil {
			return "", err
		}
		// SimulateIdeal reports every qubit; the compiled outcome only the
		// measured ones, in logical order.
		measured := make([]bool, c.NumQubits)
		for _, g := range c.Gates {
			if g.IsMeasure() {
				measured[g.Qubits[0]] = true
			}
		}
		var sb strings.Builder
		for q, on := range measured {
			if on {
				sb.WriteByte(all[q])
			}
		}
		return sb.String(), nil
	},
}

var cliffordEngine = simEngine{
	clifford: true,
	viaCompiler: func(c *core.Compiler, r *core.Result, seed int64) ([]float64, error) {
		return c.SimulateClifford(r, trialsPerOp, seed, sim.DefaultNoise())
	},
	direct: func(d *arch.Device, r *core.Result, trials int, seed int64, workers int) (*sim.Outcome, error) {
		return sim.SimulateScheduleCliffordCtx(context.Background(), d, r.Schedules[0], r.Programs, trials, seed, sim.DefaultNoise(), workers)
	},
	ideal: sim.CliffordOutcome,
}

func runPair16(o runOpts) (*runResult, error) { return runSim(o, statevectorEngine) }

func runCliff50(o runOpts) (*runResult, error) { return runSim(o, cliffordEngine) }

// activeQubits counts the physical qubits a schedule touches.
func activeQubits(s *router.Schedule) int {
	seen := map[int]bool{}
	for _, op := range s.Ops {
		for _, q := range op.Gate.Qubits {
			seen[q] = true
		}
	}
	return len(seen)
}

// checkOutcomes verifies one compiled input: the schedule validates against
// its sources, and each program's compiled noiseless outcome equals the
// logical interpreter's outcome on the source circuit.
func checkOutcomes(tl *tally, tr *tracer, env *offlineEnv, eng simEngine, i int) {
	in, r := env.inputs[i], env.results[i]
	if err := r.Validate(); err != nil {
		tl.fail("%s: Validate: %v", in.name, err)
	}
	s := tr.begin("ideal_check", "sim", in.name, -1)
	defer tr.end(s)
	out, err := eng.direct(env.dev, r, 1, 1, 1)
	if err != nil {
		tl.fail("%s: noiseless outcome: %v", in.name, err)
		return
	}
	for p, prog := range in.progs {
		want, err := eng.ideal(prog)
		if err != nil {
			tl.fail("%s: ideal %s: %v", in.name, prog.Name, err)
			continue
		}
		if out.Correct[p] != want {
			tl.fail("%s: %s compiled outcome %q, logical interpreter %q", in.name, prog.Name, out.Correct[p], want)
		}
	}
}

// runSim is pair16_sim and cliff50_sim: Monte-Carlo passes over results
// compiled in set-up.
func runSim(o runOpts, eng simEngine) (*runResult, error) {
	res := newResult(o, true)
	setups := offlineSetups(o)
	env, err := setups.sample()
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceSim(o, res, env, eng)
	}
	var tl tally
	var psts []float64
	var lines []string
	runtime.GC()
	samples, passSecs := passes(o.budget(), pstPasses, len(env.inputs), o.seed, func(pass, i int) time.Duration {
		tl.op()
		start := time.Now()
		p, err := eng.viaCompiler(env.comp, env.results[i], mcSeed(o.seed, pass, i))
		el := time.Since(start)
		if err != nil {
			tl.fail("%s: %v", env.inputs[i].name, err)
			return el
		}
		if pass < pstPasses {
			for _, v := range p {
				if !(v > 0 && v <= 1) {
					tl.fail("%s: PST %v outside (0,1]", env.inputs[i].name, v)
				}
				psts = append(psts, v)
				lines = append(lines, fmt.Sprintf("%d %s %016x", pass, env.inputs[i].name, math.Float64bits(v)))
			}
		}
		return el
	})
	quiet := perInput(res, env.inputs, samples)
	cnots, depth, progs := 0, 0, 0
	for i, r := range env.results {
		checkOutcomes(&tl, nil, env, eng, i)
		cnots += r.CNOTs
		depth += r.Depth
		progs += len(r.Programs)
		lines = append(lines, fmt.Sprintf("%s %d %d", env.inputs[i].name, r.CNOTs, r.Depth))
	}
	// PST lines arrive in the pass order, which the seed fixes.
	if res.Metrics[mSetup], err = setups.resample(); err != nil {
		return nil, err
	}
	res.Metrics[mOpMid] = geomean(quiet)
	res.Metrics[mOpTail] = maxOf(quiet)
	res.Metrics[mWork] = quietRate(len(env.inputs)*trialsPerOp, passSecs)
	res.Metrics[mPST] = mean(psts)
	res.Metrics[mCNOTs] = float64(cnots)
	res.Metrics[mDepth] = float64(depth)
	res.Metrics[mTRF] = float64(progs) / float64(len(env.inputs))
	res.info("passes", float64(len(passSecs)), unitCount)
	res.Fingerprint = fingerprint(lines)
	tl.finish(res)
	return res, nil
}

// traceSim is the traced run of a sim workload: untraced reference passes
// through core.Compiler for a third of the budget, then traced passes that
// call the sim layer directly inside spans for another third.
func traceSim(o runOpts, res *runResult, env *offlineEnv, eng simEngine) (*runResult, error) {
	var tl tally
	tr := newTracer()
	if _, err := setupOffline(o.workload, o.smoke, tr); err != nil {
		return nil, err
	}
	third := o.budget() / 3
	runtime.GC()
	before := sampleProc()
	plain, _ := passes(third, 1, len(env.inputs), o.seed, func(pass, i int) time.Duration {
		tl.op()
		start := time.Now()
		if _, err := eng.viaCompiler(env.comp, env.results[i], mcSeed(o.seed, pass, i)); err != nil {
			tl.fail("%s: %v", env.inputs[i].name, err)
		}
		return time.Since(start)
	})
	var lines []string
	traced, passSecs := passes(third, 1, len(env.inputs), o.seed, func(pass, i int) time.Duration {
		tl.op()
		in := env.inputs[i]
		start := time.Now()
		root := tr.begin("op", "harness", in.name, -1)
		s := tr.begin("SimulateSchedule", "sim", in.name, root)
		out, err := eng.direct(env.dev, env.results[i], trialsPerOp, mcSeed(o.seed, pass, i), 1)
		tr.end(s)
		if err != nil {
			tl.fail("%s: %v", in.name, err)
		} else if pass == 0 {
			for _, v := range out.PST {
				lines = append(lines, fmt.Sprintf("%s %016x", in.name, math.Float64bits(v)))
			}
		}
		tr.end(root)
		return time.Since(start)
	})
	after := sampleProc()

	st := summarize(tr.spans)
	m := res.Metrics
	simSelf := st.selfByKey["sim.SimulateSchedule"]
	perTrial := us(simSelf) / float64(len(passSecs)*len(env.inputs)*trialsPerOp)
	qubits := 0
	for _, r := range env.results {
		qubits += activeQubits(r.Schedules[0])
	}
	if eng.clifford {
		m["sim.cliff_us_per_trial"] = perTrial
		m["sim.cliff_qubits_mean"] = float64(qubits) / float64(len(env.results))
	} else {
		m["sim.sv_us_per_trial"] = perTrial
		m["sim.sv_active_qubits_mean"] = float64(qubits) / float64(len(env.results))
	}
	m["sim.share"] = simSelf.Seconds() / sum(passSecs)
	plainMeds, tracedMeds := make([]float64, len(env.inputs)), make([]float64, len(env.inputs))
	heaviest := 0
	for i := range env.inputs {
		plainMeds[i], tracedMeds[i] = median(plain[i]), median(traced[i])
		if plainMeds[i] > plainMeds[heaviest] {
			heaviest = i
		}
	}
	if sum := mean(plainMeds); sum > 0 {
		m["trace.overhead_pct"] = 100 * (mean(tracedMeds) - sum) / sum
	}

	// Checks and the remaining probes, each in its own span.
	for i, r := range env.results {
		checkOutcomes(&tl, tr, env, eng, i)
		s := tr.begin("AnalyticESP", "sim", env.inputs[i].name, -1)
		_, err := sim.AnalyticESP(env.dev, r.Schedules[0], len(r.Programs), sim.DefaultNoise().IdleErrPerLayer)
		tr.end(s)
		if err != nil {
			tl.fail("%s: AnalyticESP: %v", env.inputs[i].name, err)
		}
	}
	start := time.Now()
	if _, err := eng.direct(env.dev, env.results[heaviest], trialsPerOp, mcSeed(o.seed, 0, heaviest), runtime.NumCPU()); err != nil {
		tl.fail("%s: parallel simulate: %v", env.inputs[heaviest].name, err)
	} else if el := ms(time.Since(start)); el > 0 {
		m["sim.parallel_speedup"] = tracedMeds[heaviest] / el
	}
	st = summarize(tr.spans)
	m["sim.ideal_check_ms"] = ms(st.meanSelf("sim.ideal_check"))
	m["sim.esp_us"] = us(st.meanSelf("sim.AnalyticESP"))
	m["community.build_ms"] = ms(st.meanSelf("community.Build"))
	m["core.compile_ms"] = ms(st.meanSelf("core.Compile"))
	procMetrics(m, before, after)
	res.Fingerprint = fingerprint(lines)
	tl.finish(res)
	return res, finishTrace(o, res, tr)
}
