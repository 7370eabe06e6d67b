// Package core implements the QuCloud compiler pipeline — the paper's
// primary contribution. It ties the CDAP partitioner, the X-SWAP
// router, and the fidelity simulator together behind the six
// compilation strategies the paper evaluates: Separate, SABRE,
// Baseline (FRP + noise-aware SABRE), CDAP+X-SWAP, CDAP-only, and
// X-SWAP-only. The root qucloud package re-exports this API.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/router"
	"repro/internal/sim"
)

// Strategy selects a compilation policy for a multi-program workload.
type Strategy int

// The six strategies of the paper's evaluation.
const (
	// Separate compiles and runs each program alone on the whole chip
	// (the no-multi-programming upper bound for fidelity).
	Separate Strategy = iota
	// SABRE merges all programs into one circuit and compiles it with
	// plain (noise-unaware) SABRE: reverse-traversal initial mapping
	// plus heuristic SWAP search.
	SABRE
	// Baseline is the multi-programming baseline of Das et al.: FRP
	// partitioning plus noise-aware SABRE with intra-program SWAPs.
	Baseline
	// CDAPXSwap is QuCloud: CDAP partitioning plus X-SWAP routing.
	CDAPXSwap
	// CDAPOnly ablates X-SWAP: CDAP partitioning with SABRE's plain
	// transition (intra-program SWAPs only).
	CDAPOnly
	// XSwapOnly ablates CDAP: SABRE's initial mapping (on the merged
	// circuit) with X-SWAP routing.
	XSwapOnly
)

// Strategies lists all strategies in the paper's table order.
var Strategies = []Strategy{Separate, SABRE, Baseline, CDAPXSwap, CDAPOnly, XSwapOnly}

func (s Strategy) String() string {
	switch s {
	case Separate:
		return "Separate"
	case SABRE:
		return "SABRE"
	case Baseline:
		return "Baseline"
	case CDAPXSwap:
		return "CDAP+X-SWAP"
	case CDAPOnly:
		return "CDAP-only"
	case XSwapOnly:
		return "X-SWAP-only"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// StrategyFor is how every scheduler driver compiles a batch of n
// programs: CDAP+X-SWAP when co-located, Separate when a job runs alone.
func StrategyFor(n int) Strategy {
	if n > 1 {
		return CDAPXSwap
	}
	return Separate
}

// MarshalJSON renders the strategy by name, so API payloads that embed
// compiled-batch records stay readable.
func (s Strategy) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts either a strategy name (as MarshalJSON emits)
// or the numeric constant.
func (s *Strategy) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err == nil {
		for _, cand := range Strategies {
			if cand.String() == name {
				*s = cand
				return nil
			}
		}
		return fmt.Errorf("qucloud: unknown strategy %q", name)
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*s = Strategy(n)
	return nil
}

// Compiler compiles multi-program workloads onto a device. A Compiler
// holds no mutable state (derived artifacts live in the device's
// calibration-keyed cache), so one instance may be used from concurrent
// goroutines as long as its exported fields are not being reassigned.
type Compiler struct {
	// Device is the target chip.
	Device *arch.Device
	// Omega is the CDAP reward weight (use the knee value for the
	// chip; 0.95 for IBMQ16, 0.40 for IBMQ50).
	Omega float64
	// Attempts is the number of seeds tried per compilation; the
	// schedule with the fewest post-compilation CNOTs wins (the
	// paper reports the best of 5). Except under SABRE and X-SWAP-only,
	// whose seed also draws the initial mapping, a first attempt that
	// broke no routing tie is returned alone: every other seed would
	// compile it identically.
	Attempts int
	// Traversals is the number of SABRE reverse-traversal rounds used
	// to refine merged-circuit initial mappings.
	Traversals int
	// NoisePenalty is the noise-aware SWAP-cost weight used by the
	// Separate and Baseline strategies.
	NoisePenalty float64
	// Bridge selects nothing: the router inserts SWAPs only, and
	// CompileContext rejects it.
	//
	// Deprecated: it stays only because bench/offline.go:387 still
	// reads it.
	Bridge bool
	// Workers bounds the goroutines used for compilation attempts,
	// per-program separate compilation, and simulation trial shards:
	// 0 uses the process default (pool.Default()), 1 forces sequential
	// execution. Results are identical at every setting.
	Workers int
}

// NewCompiler returns a Compiler with the paper's defaults for the
// device (ω = 0.95 for chips up to 20 qubits, 0.40 above).
func NewCompiler(d *arch.Device) *Compiler {
	return &Compiler{
		Device:       d,
		Omega:        community.KneeOmega(d),
		Attempts:     5,
		Traversals:   3,
		NoisePenalty: 2,
	}
}

// Tree returns the CDAP hierarchy tree for the current calibration,
// building it on first use (the paper builds it once per calibration
// cycle and reuses it). The tree lives in the device's
// calibration-keyed artifact cache, so concurrent compilers on the same
// device share one build and a Compiler holds no mutable state of its
// own — Compile and Simulate are safe for concurrent use.
func (c *Compiler) Tree() *community.Tree {
	return community.BuildCached(c.Device, c.Omega)
}

// Result is a compiled workload.
type Result struct {
	Strategy Strategy
	// Programs are the source programs, in the caller's order.
	Programs []*circuit.Circuit
	// Schedules holds one joint schedule for co-located strategies, or
	// one schedule per program for Separate.
	Schedules []*router.Schedule
	// Initial holds the initial mappings matching Schedules: for
	// co-located strategies Initial[0][p] is program p's mapping; for
	// Separate, Initial[i] holds only program i's mapping.
	Initial [][][]int
	// CNOTs and Depth are the post-compilation totals (SWAP = 3 CNOTs;
	// for Separate they sum/max over the per-program schedules).
	CNOTs int
	Depth int
	// Swaps and InterSwaps total the inserted SWAPs.
	Swaps      int
	InterSwaps int
	// TraversalFallback reports that the joint reverse traversal failed
	// and the schedule was routed from the partitioner's unrefined
	// mapping instead.
	TraversalFallback bool
	// tieBreaks totals the tied SWAP decisions of the traversal and the
	// final route (of every program, for Separate): the decisions where
	// the attempt's seed was read.
	tieBreaks int
}

// Compile compiles the workload under the given strategy, trying
// c.Attempts seeds and keeping the schedule with the fewest
// post-compilation CNOTs.
func (c *Compiler) Compile(progs []*circuit.Circuit, strat Strategy) (*Result, error) {
	return c.CompileContext(context.Background(), progs, strat)
}

// CompileContext is Compile with a caller-supplied context, the hook a
// serving layer uses to bound a batch: cancellation is checked between
// compilation attempts (and between per-program units inside Separate),
// so an expired deadline abandons the remaining attempts and fails the
// compilation with the context's error. With an uncancelled context the
// result is identical to Compile.
//
// A panic inside one attempt (partitioner or router invariant
// violation) fails only that attempt; the best of the surviving
// attempts still wins. The compilation as a whole errors only when
// every attempt failed.
func (c *Compiler) CompileContext(ctx context.Context, progs []*circuit.Circuit, strat Strategy) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(progs) == 0 {
		return nil, errors.New("qucloud: empty workload")
	}
	if c.Bridge {
		return nil, errors.New("qucloud: bridge gates were removed; the router inserts SWAPs only")
	}
	attempts := c.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	// Attempts are independent (seeded per index), so they fan out over
	// the worker pool; each records its outcome at its own index and
	// the winner is picked by a seed-order scan afterwards, replicating
	// the sequential first-best / last-error semantics exactly.
	results := make([]*Result, attempts)
	errs := make([]error, attempts)
	attempt := func(i int) error {
		results[i], errs[i] = c.compileAttempt(ctx, progs, strat, int64(i)+1)
		return nil
	}
	// Where the seed reaches only the router's tie-breaks, attempt 1 runs
	// alone first: if it broke no tie, every seed routes it identically
	// (DESIGN.md, "Seed-free attempts"), so it is the scan's winner.
	done := 0
	if strat != SABRE && strat != XSwapOnly {
		_ = pool.ForEach(ctx, 1, c.Workers, attempt)
		if r := results[0]; r != nil && r.tieBreaks == 0 && !r.TraversalFallback {
			return r, nil
		}
		done = 1
	}
	_ = pool.ForEach(ctx, attempts-done, c.Workers, func(i int) error { return attempt(done + i) })
	var best *Result
	var lastErr error
	for i := 0; i < attempts; i++ {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		if best == nil || results[i].CNOTs < best.CNOTs {
			best = results[i]
		}
	}
	if best == nil {
		if err := ctx.Err(); err != nil {
			// The deadline expired before any attempt finished; report
			// the cancellation rather than a skipped attempt's nil error.
			return nil, fmt.Errorf("qucloud: %s compilation canceled: %w", strat, err)
		}
		return nil, fmt.Errorf("qucloud: %s compilation failed: %w", strat, lastErr)
	}
	return best, nil
}

// compileAttempt is compileOnce behind a recover: a panic in the
// partitioner/router pipeline becomes this attempt's error instead of
// unwinding the caller (or, under parallel attempts, killing the
// process from a pool goroutine).
func (c *Compiler) compileAttempt(ctx context.Context, progs []*circuit.Circuit, strat Strategy, seed int64) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("qucloud: attempt %d panicked: %v", seed, r)
		}
	}()
	return c.compileOnce(ctx, progs, strat, seed)
}

func (c *Compiler) compileOnce(ctx context.Context, progs []*circuit.Circuit, strat Strategy, seed int64) (*Result, error) {
	switch strat {
	case Separate:
		return c.compileSeparate(ctx, progs, seed)
	case SABRE:
		return c.compileMergedSABRE(progs, seed, false)
	case XSwapOnly:
		return c.compileMergedSABRE(progs, seed, true)
	case Baseline:
		res, err := partition.FRP(c.Device, progs)
		if err != nil {
			return nil, err
		}
		opts := router.DefaultOptions()
		opts.NoisePenalty = c.NoisePenalty
		opts.Seed = seed
		return c.routeJoint(progs, res, opts, Baseline)
	case CDAPOnly:
		res, err := partition.CDAP(c.Device, c.Tree(), progs)
		if err != nil {
			return nil, err
		}
		// Same noise-aware transition as the baseline, so the ablation
		// isolates the initial-mapping contribution.
		opts := router.DefaultOptions()
		opts.NoisePenalty = c.NoisePenalty
		opts.Seed = seed
		return c.routeJoint(progs, res, opts, CDAPOnly)
	case CDAPXSwap:
		res, err := partition.CDAP(c.Device, c.Tree(), progs)
		if err != nil {
			return nil, err
		}
		opts := router.XSWAPOptions()
		opts.NoisePenalty = c.NoisePenalty
		opts.Seed = seed
		return c.routeJoint(progs, res, opts, CDAPXSwap)
	}
	return nil, fmt.Errorf("qucloud: unknown strategy %v", strat)
}

// compileSeparate compiles each program alone: CDAP's single-program
// allocation (most reliable region) plus noise-aware routing. Programs
// are independent, so they compile in parallel into indexed slots; the
// totals are assembled in program order afterwards.
func (c *Compiler) compileSeparate(ctx context.Context, progs []*circuit.Circuit, seed int64) (*Result, error) {
	type sepUnit struct {
		sched   *router.Schedule
		mapping []int
		ties    int
	}
	units := make([]sepUnit, len(progs))
	if err := pool.ForEach(ctx, len(progs), c.Workers, func(i int) error {
		p := []*circuit.Circuit{progs[i]}
		res, err := partition.CDAP(c.Device, c.Tree(), p)
		if err != nil {
			return err
		}
		opts := router.DefaultOptions()
		opts.NoisePenalty = c.NoisePenalty
		opts.Seed = seed
		refined, err := router.Refine(c.Device, p, [][]int{res.Assignments[0].InitialMapping}, c.Traversals, opts)
		if err != nil {
			return err
		}
		s, err := router.Route(c.Device, p, refined.FinalMapping, opts)
		if err != nil {
			return err
		}
		units[i] = sepUnit{sched: s, mapping: refined.FinalMapping[0], ties: refined.TieBreaks + s.TieBreaks}
		return nil
	}); err != nil {
		return nil, err
	}
	out := &Result{Strategy: Separate, Programs: progs}
	for _, u := range units {
		out.Schedules = append(out.Schedules, u.sched)
		out.Initial = append(out.Initial, [][]int{u.mapping})
		out.tieBreaks += u.ties
		cnots, depth := u.sched.Counts()
		out.CNOTs += cnots
		out.Swaps += u.sched.SwapCount
		out.Depth = max(out.Depth, depth)
	}
	return out, nil
}

// compileMergedSABRE implements the SABRE and X-SWAP-only strategies:
// the programs are merged into one circuit, SABRE's reverse traversal
// produces the initial mapping, and the workload is routed jointly —
// without (SABRE) or with (X-SWAP-only) the X-SWAP scheme.
func (c *Compiler) compileMergedSABRE(progs []*circuit.Circuit, seed int64, xswap bool) (*Result, error) {
	total := 0
	offsets := make([]int, len(progs))
	for i, p := range progs {
		offsets[i] = total
		total += p.NumQubits
	}
	if total > c.Device.NumQubits() {
		return nil, fmt.Errorf("qucloud: workload needs %d qubits, chip has %d", total, c.Device.NumQubits())
	}
	merged := circuit.New("merged", total)
	for i, p := range progs {
		merged.Compose(p, offsets[i])
	}
	opts := router.DefaultOptions()
	opts.Seed = seed
	start := router.RandomInitialMapping(c.Device, merged, seed*7919+13)
	mapping, err := router.ReverseTraversal(c.Device, merged, start, c.Traversals, opts)
	if err != nil {
		return nil, err
	}
	initial := make([][]int, len(progs))
	for i, p := range progs {
		initial[i] = mapping[offsets[i] : offsets[i]+p.NumQubits]
	}
	ropts := router.DefaultOptions()
	ropts.Seed = seed
	ropts.InterProgram = true // merged compilation has no program walls
	if xswap {
		ropts = router.XSWAPOptions()
		ropts.Seed = seed
	}
	strat := SABRE
	if xswap {
		strat = XSwapOnly
	}
	return c.routeJointMappings(progs, initial, ropts, strat)
}

func (c *Compiler) routeJoint(progs []*circuit.Circuit, res *partition.Result, opts router.Options, strat Strategy) (*Result, error) {
	initial := make([][]int, len(progs))
	for i, a := range res.Assignments {
		initial[i] = a.InitialMapping
	}
	// Refine the partitioner's GWEF mapping with joint reverse
	// traversal under the same SWAP policy that will route the final
	// pass (Das et al.'s baseline inherits SABRE's traversal too).
	fallback, ties := false, 0
	if c.Traversals > 0 {
		if refined, err := router.Refine(c.Device, progs, initial, c.Traversals, opts); err == nil {
			initial, ties = refined.FinalMapping, refined.TieBreaks
		} else {
			fallback = true
		}
	}
	out, err := c.routeJointMappings(progs, initial, opts, strat)
	if err == nil {
		out.TraversalFallback = fallback
		out.tieBreaks += ties
	}
	return out, err
}

func (c *Compiler) routeJointMappings(progs []*circuit.Circuit, initial [][]int, opts router.Options, strat Strategy) (*Result, error) {
	s, err := router.Route(c.Device, progs, initial, opts)
	if err != nil {
		return nil, err
	}
	cnots, depth := s.Counts()
	return &Result{
		Strategy:   strat,
		Programs:   progs,
		Schedules:  []*router.Schedule{s},
		Initial:    [][][]int{initial},
		CNOTs:      cnots,
		Depth:      depth,
		Swaps:      s.SwapCount,
		InterSwaps: s.InterSwapCount,
		tieBreaks:  s.TieBreaks,
	}, nil
}

// Simulate estimates per-program PSTs for the compiled result by Monte
// Carlo simulation with the given trial count and noise model. For the
// Separate strategy each program runs alone; for co-located strategies
// the joint schedule runs once with all programs sharing the chip.
func (c *Compiler) Simulate(r *Result, trials int, seed int64, noise sim.NoiseModel) ([]float64, error) {
	return c.SimulateContext(context.Background(), r, trials, seed, noise)
}

// SimulateContext is Simulate with a caller-supplied context:
// cancellation is checked at trial-shard boundaries (and between
// per-program runs for Separate), so a service deadline abandons the
// remaining Monte-Carlo budget. An uncancelled context yields results
// bit-identical to Simulate.
func (c *Compiler) SimulateContext(ctx context.Context, r *Result, trials int, seed int64, noise sim.NoiseModel) ([]float64, error) {
	return c.simulate(ctx, r, trials, seed, noise, sim.SimulateScheduleCtx)
}

// ExactPST returns the per-program PSTs the statevector Monte-Carlo
// estimate of Simulate converges to under the noise model, computed
// exactly (sim.ExactPST): for Separate per program, otherwise over the
// joint schedule. It fails when a program's measured qubits span more
// entangled qubits than the exact evaluator takes.
func (c *Compiler) ExactPST(r *Result, noise sim.NoiseModel) ([]float64, error) {
	exact := func(_ context.Context, d *arch.Device, s *router.Schedule, progs []*circuit.Circuit, _ int, _ int64, noise sim.NoiseModel, _ int) (*sim.Outcome, error) {
		pst, err := sim.ExactPST(d, s, progs, noise)
		return &sim.Outcome{PST: pst}, err
	}
	return c.simulate(context.Background(), r, 0, 0, noise, exact)
}

// simEngine is the shape of sim's two Monte-Carlo entry points.
type simEngine func(ctx context.Context, d *arch.Device, sched *router.Schedule, progs []*circuit.Circuit, trials int, seed int64, noise sim.NoiseModel, workers int) (*sim.Outcome, error)

// simulate runs one Monte-Carlo engine over the result: per program
// with seed+i for Separate, once over the joint schedule otherwise.
func (c *Compiler) simulate(ctx context.Context, r *Result, trials int, seed int64, noise sim.NoiseModel, engine simEngine) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.Strategy == Separate {
		psts := make([]float64, len(r.Programs))
		for i, p := range r.Programs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out, err := engine(ctx, c.Device, r.Schedules[i], []*circuit.Circuit{p}, trials, seed+int64(i), noise, c.Workers)
			if err != nil {
				return nil, err
			}
			psts[i] = out.PST[0]
		}
		return psts, nil
	}
	out, err := engine(ctx, c.Device, r.Schedules[0], r.Programs, trials, seed, noise, c.Workers)
	if err != nil {
		return nil, err
	}
	return out.PST, nil
}

// Validate checks the result's schedules against the source programs.
func (r *Result) Validate() error {
	if r.Strategy == Separate {
		for i, s := range r.Schedules {
			if err := s.Validate([]*circuit.Circuit{r.Programs[i]}, r.Initial[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return r.Schedules[0].Validate(r.Programs, r.Initial[0])
}

// SimulateClifford is Simulate on the stabilizer-tableau engine, for
// Clifford programs on any chip size. Its one caller outside tests is
// the benchmark harness's cliff50_sim workload (bench/offline.go).
func (c *Compiler) SimulateClifford(r *Result, trials int, seed int64, noise sim.NoiseModel) ([]float64, error) {
	return c.simulate(context.Background(), r, trials, seed, noise, sim.SimulateScheduleCliffordCtx)
}
