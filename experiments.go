package qucloud

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/nisqbench"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Table2Workloads lists the ten two-program workloads of Table II
// (five tiny-sized pairs, five small-sized pairs).
var Table2Workloads = [][2]string{
	{"bv_n3", "bv_n3"},
	{"bv_n3", "bv_n4"},
	{"bv_n3", "peres_3"},
	{"bv_n3", "toffoli_3"},
	{"bv_n3", "fredkin_3"},
	{"3_17_13", "3_17_13"},
	{"3_17_13", "4mod5-v1_22"},
	{"3_17_13", "mod5mils_65"},
	{"3_17_13", "alu-v0_27"},
	{"3_17_13", "decod24-v2_43"},
}

// Table3Mixes lists the twelve 4-program IBMQ50 workloads of Table III.
var Table3Mixes = [][]string{
	{"aj-e11_165", "alu-v2_31", "4gt4-v0_72", "sf_276"},
	{"alu-bdd_288", "ex2_227", "ham7_104", "C17_204"},
	{"bv_n10", "ising_model_10", "qft_10", "sys6-v0_111"},
	{"aj-e11_165", "alu-v2_31", "ising_model_10", "cnt3-5_180"},
	{"4gt4-v0_72", "sf_276", "sym9_146", "rd53_311"},
	{"alu-bdd_288", "ex2_227", "qft_10", "sys6-v0_111"},
	{"ham7_104", "C17_204", "bv_n10", "ising_model_10"},
	{"aj-e11_165", "4gt4-v0_72", "rd53_311", "cnt3-5_180"},
	{"alu-v2_31", "sf_276", "sym9_146", "qft_16"},
	{"alu-bdd_288", "ham7_104", "ising_model_10", "sys6-v0_111"},
	{"ex2_227", "C17_204", "bv_n10", "qft_10"},
	{"aj-e11_165", "sf_276", "C17_204", "sys6-v0_111"},
}

// Table2Row is one workload's PSTs (percent) under every strategy.
type Table2Row struct {
	W1, W2 string
	// PST[strategy] = {program 1 PST, program 2 PST}, in percent: the
	// exact PSTs, without sampling error.
	PST map[Strategy][2]float64
}

// Avg returns the row's mean PST (percent) under the strategy.
func (r Table2Row) Avg(s Strategy) float64 {
	p := r.PST[s]
	return (p[0] + p[1]) / 2
}

// RunTable2 reproduces Table II: for each two-program workload on the
// given IBMQ16 calibration, it compiles under all six strategies and
// evaluates each program's exact PST (Compiler.ExactPST; every Table II
// program is narrow enough). Strategies that fail to co-locate a
// workload fall back to separate execution, as Algorithm 2 prescribes.
// Workloads run in parallel across the worker pool, and the table is
// identical at every parallelism level.
func RunTable2(calSeed int64) ([]Table2Row, error) {
	d := arch.IBMQ16(calSeed)
	noise := sim.DefaultNoise()
	rows := make([]Table2Row, len(Table2Workloads))
	err := pool.ForEach(context.Background(), len(Table2Workloads), 0, func(wi int) error {
		w := Table2Workloads[wi]
		progs := []*circuit.Circuit{nisqbench.MustGet(w[0]), nisqbench.MustGet(w[1])}
		row := Table2Row{W1: w[0], W2: w[1], PST: map[Strategy][2]float64{}}
		for _, strat := range Strategies {
			comp := NewCompiler(d)
			comp.Workers = 1 // rows already fan out; keep inner work sequential
			res, err := comp.Compile(progs, strat)
			if err != nil {
				// Fall back to separate execution (Algorithm 2 line 9).
				res, err = comp.Compile(progs, Separate)
				if err != nil {
					return fmt.Errorf("table2 %s+%s %s: %w", w[0], w[1], strat, err)
				}
			}
			psts, err := comp.ExactPST(res, noise)
			if err != nil {
				return fmt.Errorf("table2 %s+%s %s: %w", w[0], w[1], strat, err)
			}
			row.PST[strat] = [2]float64{psts[0] * 100, psts[1] * 100}
		}
		rows[wi] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table3Row is one mix's compilation overheads under the co-located
// strategies (Separate is not part of Table III).
type Table3Row struct {
	Mix        string
	Benchmarks []string
	CNOTs      map[Strategy]int
	Depth      map[Strategy]int
}

// Table3Strategies are the columns of Table III.
var Table3Strategies = []Strategy{SABRE, Baseline, CDAPXSwap, CDAPOnly, XSwapOnly}

// RunTable3 reproduces Table III: post-compilation CNOT counts and
// circuit depth for the twelve 4-program mixes on simulated IBMQ50
// (best of the compiler's attempts, as in the paper). Mixes compile in
// parallel across CPU cores.
func RunTable3(calSeed int64) ([]Table3Row, error) {
	all := make([]int, len(Table3Mixes))
	for i := range all {
		all[i] = i
	}
	return RunTable3Subset(calSeed, all)
}

// RunTable3Subset runs only the given mix indices (0-based into
// Table3Mixes); tests and quick benchmarks use it to bound runtime.
func RunTable3Subset(calSeed int64, mixIndices []int) ([]Table3Row, error) {
	d := arch.IBMQ50(calSeed)
	d.Hops() // warm the shared distance cache before fanning out
	rows := make([]Table3Row, len(mixIndices))
	err := pool.ForEach(context.Background(), len(mixIndices), 0, func(ri int) error {
		mi := mixIndices[ri]
		mix := Table3Mixes[mi]
		progs := make([]*circuit.Circuit, len(mix))
		for i, name := range mix {
			progs[i] = nisqbench.MustGet(name)
		}
		row := Table3Row{
			Mix:        fmt.Sprintf("Mix_%d", mi+1),
			Benchmarks: mix,
			CNOTs:      map[Strategy]int{},
			Depth:      map[Strategy]int{},
		}
		for _, strat := range Table3Strategies {
			comp := NewCompiler(d)
			comp.Workers = 1 // mixes already fan out; keep inner work sequential
			// Table III measures pure compilation overhead of the
			// published algorithms: the baseline's transition is
			// noise-aware SABRE (Das et al.), while SABRE and the
			// QuCloud variants score SWAPs by distance only.
			if strat != Baseline {
				comp.NoisePenalty = 0
			}
			res, err := comp.Compile(progs, strat)
			if err != nil {
				// A strategy that cannot co-locate the mix reverts
				// to separate execution (Algorithm 2 line 9); its
				// overheads are the separate-compilation totals.
				res, err = comp.Compile(progs, Separate)
				if err != nil {
					return fmt.Errorf("table3 %s %s: %w", row.Mix, strat, err)
				}
			}
			row.CNOTs[strat] = res.CNOTs
			row.Depth[strat] = res.Depth
		}
		rows[ri] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Table3PSTRow is one Table III mix's fidelity on IBMQ50: the PST
// column the paper could not measure (no 50-qubit hardware) and a joint
// statevector could not simulate (the compiled mixes keep 23-41 qubits
// active). The factored register can, because co-located programs never
// entangle.
type Table3PSTRow struct {
	Mix        string
	Benchmarks []string
	// PST[strategy] holds the per-program PSTs, in percent.
	PST map[Strategy][]float64
	// SimSeconds is the wall time of the mix's simulations (every
	// strategy), compilation excluded.
	SimSeconds float64
}

// Avg returns the row's mean PST (percent) under the strategy.
func (r Table3PSTRow) Avg(s Strategy) float64 {
	sum := 0.0
	for _, p := range r.PST[s] {
		sum += p
	}
	return sum / float64(len(r.PST[s]))
}

// Table3PSTStrategies are the columns of the Table III PST experiment.
var Table3PSTStrategies = []Strategy{Baseline, CDAPXSwap}

// RunTable3PST estimates per-program PST for the given Table III mixes
// (0-based indices into Table3Mixes) on simulated IBMQ50 under the
// baseline and QuCloud, compiled as in Table II (default compiler) and
// simulated on the statevector engine. Mixes run one after another so
// SimSeconds is each mix's own; the trials fan out inside a simulation.
// A strategy that cannot co-locate a mix reverts to separate execution.
func RunTable3PST(calSeed int64, trials int, mixIndices []int) ([]Table3PSTRow, error) {
	d := arch.IBMQ50(calSeed)
	noise := sim.DefaultNoise()
	rows := make([]Table3PSTRow, 0, len(mixIndices))
	for _, mi := range mixIndices {
		mix := Table3Mixes[mi]
		progs := make([]*circuit.Circuit, len(mix))
		for i, name := range mix {
			progs[i] = nisqbench.MustGet(name)
		}
		row := Table3PSTRow{Mix: fmt.Sprintf("Mix_%d", mi+1), Benchmarks: mix, PST: map[Strategy][]float64{}}
		for _, strat := range Table3PSTStrategies {
			comp := NewCompiler(d)
			res, err := comp.Compile(progs, strat)
			if err != nil {
				if res, err = comp.Compile(progs, Separate); err != nil {
					return nil, fmt.Errorf("table3 pst %s %s: %w", row.Mix, strat, err)
				}
			}
			start := time.Now()
			psts, err := comp.Simulate(res, trials, 3000+int64(mi), noise)
			if err != nil {
				return nil, fmt.Errorf("table3 pst %s %s: %w", row.Mix, strat, err)
			}
			row.SimSeconds += time.Since(start).Seconds()
			for _, p := range psts {
				row.PST[strat] = append(row.PST[strat], p*100)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig9Result is the ω sweep of Figure 9 for one chip.
type Fig9Result struct {
	Omegas []float64
	// AvgRedundant[i] is the mean redundant-qubit count at Omegas[i]
	// over all calibration days.
	AvgRedundant []float64
	// KneeIndex locates the knee solution in Omegas.
	KneeIndex int
}

// KneeOmega returns the ω at the knee.
func (f Fig9Result) KneeOmega() float64 { return f.Omegas[f.KneeIndex] }

// RunFig9 reproduces Figure 9: it sweeps ω from 0 to 2.5 over `days`
// synthetic calibration days of the device and reports the average
// redundant qubits per ω plus the knee solution.
func RunFig9(d *arch.Device, days int, step float64) Fig9Result {
	if step <= 0 {
		step = 0.05
	}
	cals := arch.CalibrationSeries(d, 1, days)
	var omegas []float64
	for w := 0.0; w <= 2.5+1e-9; w += step {
		omegas = append(omegas, w)
	}
	series := community.OmegaSweep(d, cals, omegas)
	return Fig9Result{
		Omegas:       omegas,
		AvgRedundant: series,
		KneeIndex:    community.Knee(omegas, series),
	}
}

// Fig14Point is one scheduler configuration's outcome.
type Fig14Point struct {
	Label   string
	Epsilon float64
	// AvgPST is the mean PST over all jobs, percent.
	AvgPST float64
	// TRF is the trial reduction factor (throughput gain).
	TRF float64
}

// Fig14Queue returns the job queue used by the scheduler evaluation:
// the tiny- and small-sized programs of Table I, duplicated to
// `copies` rounds.
func Fig14Queue(copies int) []sched.Job {
	var names []string
	names = append(names, nisqbench.ByClass(nisqbench.Tiny)...)
	names = append(names, nisqbench.ByClass(nisqbench.Small)...)
	var jobs []sched.Job
	id := 0
	for c := 0; c < copies; c++ {
		for _, n := range names {
			jobs = append(jobs, sched.Job{ID: id, Circ: nisqbench.MustGet(n)})
			id++
		}
	}
	return jobs
}

// RunFig14 reproduces Figure 14: it schedules the queue under each ε,
// compiles every batch with CDAP+X-SWAP (falling back to separate
// execution when a batch cannot be co-located), evaluates each job's
// exact PST, and reports PST and TRF, together with the
// separate-execution and random-pairing baselines.
func RunFig14(calSeed int64, epsilons []float64) ([]Fig14Point, error) {
	d := arch.IBMQ16(calSeed)
	jobs := Fig14Queue(2)
	var points []Fig14Point

	sepBatches := sched.SeparateAll(jobs)
	sepPST, err := runBatches(d, jobs, sepBatches)
	if err != nil {
		return nil, err
	}
	points = append(points, Fig14Point{Label: "Separate", Epsilon: -1, AvgPST: sepPST, TRF: sched.TRF(len(jobs), sepBatches)})

	randBatches := sched.RandomPairs(jobs, rand.New(rand.NewSource(calSeed+5)))
	randPST, err := runBatches(d, jobs, randBatches)
	if err != nil {
		return nil, err
	}
	points = append(points, Fig14Point{Label: "Random", Epsilon: -1, AvgPST: randPST, TRF: sched.TRF(len(jobs), randBatches)})

	for _, eps := range epsilons {
		cfg := sched.DefaultConfig()
		cfg.Epsilon = eps
		batches, err := sched.Schedule(d, jobs, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig14 eps=%v: %w", eps, err)
		}
		pst, err := runBatches(d, jobs, batches)
		if err != nil {
			return nil, fmt.Errorf("fig14 eps=%v: %w", eps, err)
		}
		points = append(points, Fig14Point{
			Label:   fmt.Sprintf("eps=%.2f", eps),
			Epsilon: eps,
			AvgPST:  pst,
			TRF:     sched.TRF(len(jobs), batches),
		})
	}
	return points, nil
}

// runBatches compiles every batch (CDAP+X-SWAP for multi-program
// batches, separate otherwise) and returns the mean exact PST over all
// jobs, in percent. Batches run in parallel (the Compiler is
// safe for concurrent use); each batch writes its PSTs to its own index
// and the float accumulation happens in batch order afterwards, so the
// mean is bit-identical at every parallelism level.
func runBatches(d *arch.Device, jobs []sched.Job, batches []sched.Batch) (float64, error) {
	byID := map[int]*circuit.Circuit{}
	for _, j := range jobs {
		byID[j.ID] = j.Circ
	}
	comp := NewCompiler(d)
	comp.Attempts = 2 // keep queue-level experiments tractable
	comp.Workers = 1  // batches already fan out; keep inner work sequential
	noise := sim.DefaultNoise()
	perBatch := make([][]float64, len(batches))
	err := pool.ForEach(context.Background(), len(batches), 0, func(bi int) error {
		b := batches[bi]
		progs := make([]*circuit.Circuit, len(b.JobIDs))
		for i, id := range b.JobIDs {
			progs[i] = byID[id]
		}
		res, err := comp.Compile(progs, core.StrategyFor(len(progs)))
		if err != nil {
			// Co-location infeasible at compile time: run separately.
			res, err = comp.Compile(progs, Separate)
			if err != nil {
				return err
			}
		}
		psts, err := comp.ExactPST(res, noise)
		if err != nil {
			return err
		}
		perBatch[bi] = psts
		return nil
	})
	if err != nil {
		return 0, err
	}
	total, count := 0.0, 0
	for _, psts := range perBatch {
		for _, p := range psts {
			total += p * 100
			count++
		}
	}
	if count == 0 {
		return 0, nil
	}
	return total / float64(count), nil
}

// ScaleRow reports one chip's results for the scalability experiment.
type ScaleRow struct {
	Device    string
	Qubits    int
	CNOTs     map[Strategy]int
	Depth     map[Strategy]int
	CompileMS map[Strategy]float64
}

// ScaleStrategies are the columns of the scalability experiment.
var ScaleStrategies = []Strategy{Baseline, CDAPXSwap}

// RunScale supports the paper's §V-B2 scalability claim: the same
// two-program workload (3_17_13 + alu-v0_27) is compiled on every
// standard chip from 15 to 50 qubits, comparing the baseline and
// QuCloud on post-compilation overheads and compile time.
func RunScale(calSeed int64) ([]ScaleRow, error) {
	progs := []*circuit.Circuit{
		nisqbench.MustGet("3_17_13"),
		nisqbench.MustGet("alu-v0_27"),
	}
	var rows []ScaleRow
	for _, name := range arch.StandardDevices() {
		d, err := arch.ByName(name, calSeed)
		if err != nil {
			return nil, err
		}
		if d.NumQubits() < 8 {
			continue // London cannot host the pair
		}
		row := ScaleRow{
			Device:    name,
			Qubits:    d.NumQubits(),
			CNOTs:     map[Strategy]int{},
			Depth:     map[Strategy]int{},
			CompileMS: map[Strategy]float64{},
		}
		for _, strat := range ScaleStrategies {
			comp := NewCompiler(d)
			comp.Attempts = 3
			start := time.Now()
			res, err := comp.Compile(progs, strat)
			if err != nil {
				return nil, fmt.Errorf("scale %s %s: %w", name, strat, err)
			}
			row.CNOTs[strat] = res.CNOTs
			row.Depth[strat] = res.Depth
			row.CompileMS[strat] = float64(time.Since(start).Microseconds()) / 1000
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunTreeStaleness evaluates the paper's §IV-A1 claim that the
// hierarchy tree "only needs to be constructed once in each calibration
// cycle": calibration drifts day by day, the day-0 tree is reused, and
// for each day we compare the EPST of the allocation the stale tree
// yields against a freshly built tree's. Returned ratios (stale/fresh,
// per day after day 0) near 1.0 mean reuse is safe.
func RunTreeStaleness(calSeed int64, days int, drift float64) ([]float64, error) {
	d := arch.IBMQ16(calSeed)
	series := arch.DriftSeries(d, calSeed, days, drift)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("3_17_13"),
		nisqbench.MustGet("alu-v0_27"),
	}
	arch.ApplyCalibration(d, series[0])
	staleTree := community.Build(d, 0.95)

	epstOf := func(tree *community.Tree) (float64, error) {
		res, err := partition.CDAP(d, tree, progs)
		if err != nil {
			return 0, err
		}
		total := 0.0
		for i, a := range res.Assignments {
			total += d.EPST(a.Region, progs[i].RawCNOTCount(), progs[i].Gate1Count(), progs[i].NumQubits, nil)
		}
		return total / float64(len(progs)), nil
	}

	var ratios []float64
	for t := 1; t < days; t++ {
		arch.ApplyCalibration(d, series[t])
		fresh := community.Build(d, 0.95)
		freshEPST, err := epstOf(fresh)
		if err != nil {
			return nil, fmt.Errorf("staleness day %d fresh: %w", t, err)
		}
		staleEPST, err := epstOf(staleTree)
		if err != nil {
			return nil, fmt.Errorf("staleness day %d stale: %w", t, err)
		}
		ratios = append(ratios, staleEPST/freshEPST)
	}
	return ratios, nil
}

// CliffordRow is one strategy's per-program PSTs in the 50-qubit
// Clifford-workload experiment.
type CliffordRow struct {
	Strategy Strategy
	PST      []float64 // percent, per program
	Avg      float64
	CNOTs    int
	Depth    int
}

// CliffordWorkload is RunCliffordFidelity's 4-program Clifford workload:
// 28 qubits of Bernstein-Vazirani, GHZ and Deutsch-Jozsa circuits, each
// at most 10 qubits wide, so the exact evaluator takes every program.
func CliffordWorkload() []*circuit.Circuit {
	return []*circuit.Circuit{
		nisqbench.MustGet("bv_n10"),
		nisqbench.MustGet("ghz_n8"),
		nisqbench.MustGet("dj_n4"),
		nisqbench.BernsteinVazirani(6),
	}
}

// RunCliffordFidelity extends the paper's evaluation beyond what real
// hardware allowed: per-program PST on the simulated 50-qubit chip,
// computed exactly by Compiler.ExactPST (the density-matrix evaluator),
// for separate execution, the FRP baseline, and QuCloud.
func RunCliffordFidelity(calSeed int64) ([]CliffordRow, error) {
	d := arch.IBMQ50(calSeed)
	progs := CliffordWorkload()
	strategies := []Strategy{Separate, Baseline, CDAPXSwap}
	rows := make([]CliffordRow, len(strategies))
	err := pool.ForEach(context.Background(), len(strategies), 0, func(si int) error {
		strat := strategies[si]
		comp := NewCompiler(d)
		comp.Attempts = 2
		comp.Workers = 1 // strategies already fan out; keep inner work sequential
		res, err := comp.Compile(progs, strat)
		if err != nil {
			return fmt.Errorf("clifford %s: %w", strat, err)
		}
		psts, err := comp.ExactPST(res, sim.DefaultNoise())
		if err != nil {
			return fmt.Errorf("clifford %s: %w", strat, err)
		}
		row := CliffordRow{Strategy: strat, CNOTs: res.CNOTs, Depth: res.Depth}
		for _, p := range psts {
			row.PST = append(row.PST, p*100)
			row.Avg += p * 100
		}
		row.Avg /= float64(len(psts))
		rows[si] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// CrosstalkMixes lists the three-program workloads of the
// crosstalk-awareness experiment. Each mix occupies 11-14 of IBMQ16's
// 15 qubits, so CDAP cannot separate the programs: regions are forced
// to pack side by side and the only freedom left is WHICH boundary
// pairs end up co-firing. That is exactly the regime where the
// pairwise E(g_i|g_j) model has something to buy.
var CrosstalkMixes = [][]string{
	{"3_17_13", "4mod5-v1_22", "decod24-v2_43"},
	{"3_17_13", "mod5mils_65", "decod24-v2_43"},
	{"bv_n4", "alu-v0_27", "3_17_13"},
	{"toffoli_3", "3_17_13", "mod5mils_65"},
	{"fredkin_3", "decod24-v2_43", "4mod5-v1_22"},
	{"peres_3", "alu-v0_27", "decod24-v2_43"},
}

// CrosstalkRow is one workload's outcome in the crosstalk-awareness
// experiment: mean PST (percent) of the co-located mix when the
// compiler sees the pairwise matrix versus when it compiles blind, both
// simulated on the same matrix-carrying chip (the physical truth).
type CrosstalkRow struct {
	Programs []string
	// AwarePST and BlindPST are mean PSTs in percent.
	AwarePST, BlindPST float64
	// AwareHostile and BlindHostile count characterized hostile pairs
	// (ratio >= 2) spanning different programs' regions in each
	// placement.
	AwareHostile, BlindHostile int
}

// Delta returns the awareness gain in PST points.
func (r CrosstalkRow) Delta() float64 { return r.AwarePST - r.BlindPST }

// RunCrosstalkAware measures what the pairwise crosstalk model buys on
// an adversarial chip: IBMQ16 with a synthetic SRB matrix where ~50% of
// adjacent link pairs are hostile (conditional error 8-12x base). Each
// CrosstalkMixes workload is compiled twice with CDAP+X-SWAP — once on
// the matrix-carrying device (CDAP penalizes hostile co-location and
// the simulator is the same physical truth) and once on a matrix-free
// copy with identical base calibration (the pre-SRB compiler) — and
// both schedules' exact PSTs are then evaluated on the matrix-carrying
// chip (every mix's programs are narrow enough for Compiler.ExactPST).
func RunCrosstalkAware(calSeed int64) ([]CrosstalkRow, error) {
	aware := arch.IBMQ16(calSeed)
	aware.Crosstalk = arch.GenerateHostileCrosstalk(aware, calSeed+1, 0.5, 8, 12)
	if err := aware.Validate(); err != nil {
		return nil, err
	}
	blind := arch.IBMQ16(calSeed) // same calibration, no matrix
	noise := sim.DefaultNoise()

	rows := make([]CrosstalkRow, len(CrosstalkMixes))
	err := pool.ForEach(context.Background(), len(CrosstalkMixes), 0, func(wi int) error {
		w := CrosstalkMixes[wi]
		progs := make([]*circuit.Circuit, len(w))
		for i, name := range w {
			progs[i] = nisqbench.MustGet(name)
		}
		row := CrosstalkRow{Programs: w}
		for _, arm := range []struct {
			compileOn *arch.Device
			out       *float64
			hostile   *int
		}{
			{aware, &row.AwarePST, &row.AwareHostile},
			{blind, &row.BlindPST, &row.BlindHostile},
		} {
			comp := NewCompiler(arm.compileOn)
			comp.Attempts = 2
			comp.Workers = 1 // workloads already fan out
			res, err := comp.Compile(progs, CDAPXSwap)
			if err != nil {
				return fmt.Errorf("crosstalk mix %d: %w", wi, err)
			}
			// Evaluate on the matrix chip either way: the hardware has
			// the crosstalk whether or not the compiler modeled it.
			psts, err := NewCompiler(aware).ExactPST(res, noise)
			if err != nil {
				return fmt.Errorf("crosstalk mix %d: %w", wi, err)
			}
			sum := 0.0
			for _, p := range psts {
				sum += p * 100
			}
			*arm.out = sum / float64(len(psts))
			*arm.hostile = hostileAdjacency(aware, res)
		}
		rows[wi] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// hostileAdjacency counts the characterized hostile pairs (ratio >= 2)
// spanning two different programs' initial regions in the result.
func hostileAdjacency(d *arch.Device, res *Result) int {
	if len(res.Initial) == 0 {
		return 0
	}
	maps := res.Initial[0]
	n := 0
	for i := 0; i < len(maps); i++ {
		for j := 0; j < len(maps); j++ {
			if i == j {
				continue
			}
			for _, ei := range d.Coupling.InducedEdges(maps[i]) {
				for _, ej := range d.Coupling.InducedEdges(maps[j]) {
					if d.CrosstalkRatio(ei, ej) >= 2 {
						n++
					}
				}
			}
		}
	}
	return n
}
