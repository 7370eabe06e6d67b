package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

// ghzSchedule routes a 4-qubit GHZ circuit on IBMQ16 — the Clifford
// engine's benchmark workload, small enough to sit below the parallel
// dispatch threshold.
func ghzSchedule(tb testing.TB) (*arch.Device, *router.Schedule, []*circuit.Circuit) {
	tb.Helper()
	d := arch.IBMQ16(0)
	prog := circuit.New("ghz", 4).H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	s, err := router.RouteSingle(d, prog, []int{0, 1, 2, 3}, router.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return d, s, []*circuit.Circuit{prog}
}

// compiledLay lowers a schedule the way the simulate entry points do.
func compiledLay(tb testing.TB, d *arch.Device, s *router.Schedule, noise NoiseModel, engine engineKind) (*layered, *compiledProgram) {
	tb.Helper()
	lay := layerize(s)
	if noise.Enabled && noise.SerializeCrosstalk {
		lay = serializeCrosstalk(d, lay)
	}
	cp, err := compileLayers(d, lay, noise, engine)
	if err != nil {
		tb.Fatal(err)
	}
	return lay, cp
}

// TestCompiledTrialMatchesLegacyStatevector holds the factored register
// to the joint one (runTrial over a single 2^(active qubits) state, with
// SWAPs that move amplitudes): same reference outcome, same measured
// bits trial by trial, same RNG position — the determinism contract
// behind every statevector entry point. It covers the TestGoldenPST
// fixtures and seeded schedules with inter-program SWAPs, a bridge across
// programs, a modal tie and a SWAP right before measurement.
func TestCompiledTrialMatchesLegacyStatevector(t *testing.T) {
	noises := []NoiseModel{
		{},
		DefaultNoise(),
		{Enabled: true, IdleErrPerLayer: 0.01, CrosstalkFactor: 0.5, Readout: true, SerializeCrosstalk: true},
	}
	d := arch.IBMQ16(0)
	_, pair, _ := pairSchedule(t)
	adjacent, _ := adjacentPair16(t, d)
	corners, _ := corners16(t, d)
	for _, noise := range noises {
		jointMatchesFactored(t, "pair", engineStatevector, d, pair, noise, 5, 8)
		jointMatchesFactored(t, "adjacentPair16", engineStatevector, d, adjacent, noise, 5, 8)
		jointMatchesFactored(t, "corners16", engineStatevector, d, corners, noise, 5, 8)
	}
	entangledMatch(t, engineStatevector, d, noises)
}

// entangledMatch holds the engine's factored register to its joint
// oracle on eight seeded entangledSchedules, and checks that they
// exercise the factoring: the bridge merges program 0's endpoints, and
// at least half of them split into more than one component.
func entangledMatch(t *testing.T, engine engineKind, d *arch.Device, noises []NoiseModel) {
	t.Helper()
	apart := 0
	for seed := int64(0); seed < 8; seed++ {
		s := entangledSchedule(t, d, seed, engine == engineTableau)
		lay, cp := compiledLay(t, d, s, DefaultNoise(), engine)
		for _, m := range s.Measurements {
			if k := cp.fac.sizes[cp.fac.comp[cp.fac.slot[lay.compact[m.Phys]]]]; m.Program == 0 && k < 4 {
				t.Fatalf("seed %d: program 0 sits in a component of %d qubits; the bridge must merge its endpoints'", seed, k)
			}
		}
		if len(cp.fac.sizes) > 1 {
			apart++
		}
		for _, noise := range noises {
			jointMatchesFactored(t, fmt.Sprintf("entangled/%d", seed), engine, d, s, noise, 2, 6)
		}
	}
	if apart < 4 {
		t.Fatalf("only %d of 8 seeded schedules factor into more than one component", apart)
	}
}

// TestCompiledTrialMatchesLegacyTableau is the stabilizer-engine
// counterpart: the stabilizer register, one tableau per component,
// against one joint tableau over every active qubit driven by runTrialT.
// cliffordMix50 must factor into one component per program.
func TestCompiledTrialMatchesLegacyTableau(t *testing.T) {
	noises := []NoiseModel{
		{},
		DefaultNoise(),
		{Enabled: true, IdleErrPerLayer: 0.05, CrosstalkFactor: 0.5, Readout: true, SerializeCrosstalk: true},
	}
	d, ghz, _ := ghzSchedule(t)
	corners, _ := corners16(t, d)
	d50 := arch.IBMQ50(0)
	mix, _ := cliffordMix50(t, d50)
	_, cp := compiledLay(t, d50, mix, DefaultNoise(), engineTableau)
	sizes := append([]int(nil), cp.fac.sizes...)
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{4, 6, 8, 10}) {
		t.Fatalf("cliffordMix50 components %v, want one per program: 4, 6, 8, 10", sizes)
	}
	for _, noise := range noises {
		jointMatchesFactored(t, "ghz", engineTableau, d, ghz, noise, 5, 8)
		jointMatchesFactored(t, "corners16", engineTableau, d, corners, noise, 5, 8)
		jointMatchesFactored(t, "cliffordMix50", engineTableau, d50, mix, noise, 2, 6)
	}
	entangledMatch(t, engineTableau, d, noises)
}

// TestPtabResetMatchesFresh guards the buffer-reuse path: a reset
// tableau must be indistinguishable from a newly allocated one.
func TestPtabResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	used := newPtab(7)
	used.h(0)
	used.cx(0, 3)
	used.s(5)
	used.measure(3, func() bool { return rng.Intn(2) == 1 })
	used.reset()
	fresh := newPtab(7)
	if !reflect.DeepEqual(used.xbits, fresh.xbits) || !reflect.DeepEqual(used.zbits, fresh.zbits) || !reflect.DeepEqual(used.r, fresh.r) {
		t.Fatal("reset ptab differs from a fresh one")
	}
}

// TestStateResetMatchesFresh is the statevector counterpart.
func TestStateResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	used := newState(5)
	used.apply1q(pauliY, 2)
	used.applyCNOT(2, 4)
	used.measure(4, rng)
	used.reset()
	fresh := newState(5)
	if !reflect.DeepEqual(used.amps, fresh.amps) {
		t.Fatal("reset state differs from a fresh one")
	}
}

func TestShardWorkersGating(t *testing.T) {
	cases := []struct {
		name         string
		workers      int
		trials       int
		perTrialWork int64
		want         int
	}{
		{"explicit sequential stays sequential", 1, 1 << 20, 1 << 20, 1},
		{"tiny clifford workload gates to one", 8, 4 * shardTrials, 100, 1},
		{"big statevector workload keeps fanout", 8, 1024, 25600, 8},
		{"default workers kept above threshold", 0, 1024, 25600, 0},
		{"default workers gated below threshold", 0, 512, 10, 1},
	}
	for _, c := range cases {
		if got := shardWorkers(c.workers, c.trials, c.perTrialWork); got != c.want {
			t.Errorf("%s: shardWorkers(%d, %d, %d) = %d, want %d", c.name, c.workers, c.trials, c.perTrialWork, got, c.want)
		}
	}
}

// TestCliffordBenchWorkloadGatesSequential pins the satellite fix: the
// GHZ-4 benchmark workload's estimated work sits below the dispatch
// threshold, so SimulateCliffordParallel no longer pays shard fan-out
// for microsecond shards.
func TestCliffordBenchWorkloadGatesSequential(t *testing.T) {
	d, s, _ := ghzSchedule(t)
	_, cp := compiledLay(t, d, s, DefaultNoise(), engineTableau)
	if got := shardWorkers(0, 4*shardTrials, cp.trialWork); got != 1 {
		t.Fatalf("GHZ-4 bench workload (trialWork=%d) dispatches %d workers, want gated to 1", cp.trialWork, got)
	}
	// The statevector benchmark workload must NOT be gated.
	dd, ss, _ := pairSchedule(t)
	_, cpSV := compiledLay(t, dd, ss, DefaultNoise(), engineStatevector)
	if got := shardWorkers(0, 2*shardTrials, cpSV.trialWork); got != 0 {
		t.Fatalf("statevector bench workload (trialWork=%d) gated to %d workers, want pool default", cpSV.trialWork, got)
	}
}

// TestCliffordMix50KeepsFanout: pricing a tableau op at its component's
// rows, not the batch's, must not gate a 50-qubit Clifford mix at the
// benchmark's 8024 trials to one worker — it stays an order of magnitude
// above the dispatch threshold.
func TestCliffordMix50KeepsFanout(t *testing.T) {
	d := arch.IBMQ50(0)
	s, _ := cliffordMix50(t, d)
	_, cp := compiledLay(t, d, s, DefaultNoise(), engineTableau)
	if work := 8024 * cp.trialWork; work < 10*minParallelWork {
		t.Fatalf("cliffordMix50 at 8024 trials is %d work units (trialWork=%d), want >= 10x the dispatch threshold %d", work, cp.trialWork, minParallelWork)
	}
}

// TestCliffordGatedFingerprintAcrossWorkers checks byte-identity on
// both sides of the dispatch threshold: a small workload (coerced
// sequential) and a large one (genuinely sharded) must return identical
// outcomes at every requested worker count.
func TestCliffordGatedFingerprintAcrossWorkers(t *testing.T) {
	d, s, progs := ghzSchedule(t)
	for _, trials := range []int{shardTrials + 3, 40 * shardTrials} {
		want, err := SimulateScheduleCliffordCtx(context.Background(), d, s, progs, trials, 13, DefaultNoise(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 8} {
			got, err := SimulateScheduleCliffordCtx(context.Background(), d, s, progs, trials, 13, DefaultNoise(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trials=%d workers=%d outcome %+v differs from sequential %+v", trials, workers, got, want)
			}
		}
	}
}

// trialAllocs counts allocations of one full trial the way the driver's
// shard loop runs it — through the register interface: reset, gates and
// noise, then a measurement sweep with a readout draw per point. Once
// the shard's register exists, none of it may allocate (in particular
// the tableau adapter must not build a pick closure per measurement).
func trialAllocs(t *testing.T, engine engineKind, d *arch.Device, s *router.Schedule) float64 {
	t.Helper()
	lay, cp := compiledLay(t, d, s, DefaultNoise(), engine)
	reg := newRegister(engine, cp)
	rng := rand.New(rand.NewSource(1))
	plan := make([]measPoint, 0, len(lay.measures))
	for _, m := range lay.measures {
		plan = append(plan, measPoint{q: cp.fac.slot[lay.compact[m.Phys]], readout: d.ReadoutErr[m.Phys]})
	}
	flips := 0
	return testing.AllocsPerRun(50, func() {
		reg.reset()
		reg.run(cp, rng, true)
		for i := range plan {
			b := reg.measure(plan[i].q, rng)
			if rng.Float64() < plan[i].readout {
				b ^= 1
			}
			flips += b
		}
	})
}

// TestStatevectorTrialAllocs is the steady-state allocation guard for
// the statevector register.
func TestStatevectorTrialAllocs(t *testing.T) {
	d, s, _ := pairSchedule(t)
	if allocs := trialAllocs(t, engineStatevector, d, s); allocs > 0 {
		t.Fatalf("statevector trial allocates %.1f times per run, want 0", allocs)
	}
}

// TestTableauTrialAllocs is the stabilizer-engine counterpart,
// including the randomized-measure and decay paths.
func TestTableauTrialAllocs(t *testing.T) {
	d, s, _ := ghzSchedule(t)
	if allocs := trialAllocs(t, engineTableau, d, s); allocs > 0 {
		t.Fatalf("tableau trial allocates %.1f times per run, want 0", allocs)
	}
}

// TestSimulateParallelSpeedupAt8Cores asserts the headline claim on
// machines that can demonstrate it: with >= 8 CPUs, the sharded
// statevector path must beat sequential by at least 2x on a workload far
// above the dispatch threshold — cliffordMix50's four components over 16
// shards, about a second of sequential work. Skipped elsewhere —
// byte-identity tests cover correctness at every core count.
func TestSimulateParallelSpeedupAt8Cores(t *testing.T) {
	if runtime.NumCPU() < 8 {
		t.Skipf("need >= 8 CPUs to demonstrate parallel speedup, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	d := arch.IBMQ50(0)
	s, progs := cliffordMix50(t, d)
	noise := DefaultNoise()
	trials := 16 * shardTrials
	_, cp := compiledLay(t, d, s, noise, engineStatevector)
	if work := int64(trials) * cp.trialWork; work < 100*minParallelWork {
		t.Fatalf("workload is %d work units, want >= 100x the dispatch threshold %d", work, minParallelWork)
	}
	run := func(workers int) time.Duration {
		start := time.Now()
		if _, err := SimulateScheduleCtx(context.Background(), d, s, progs, trials, 7, noise, workers); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(8) // warm up
	seq := run(1)
	par := run(8)
	if par*2 > seq {
		t.Fatalf("parallel %v is less than 2x faster than sequential %v at %d CPUs", par, seq, runtime.NumCPU())
	}
}
