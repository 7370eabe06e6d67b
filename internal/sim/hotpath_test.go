package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/nisqbench"
	"repro/internal/router"
)

// ghzSchedule routes a 4-qubit GHZ circuit on IBMQ16 — the Clifford
// engine's benchmark workload, whose shards take microseconds.
func ghzSchedule(tb testing.TB) (*arch.Device, *router.Schedule, []*circuit.Circuit) {
	tb.Helper()
	d := arch.IBMQ16(0)
	prog := circuit.New("ghz", 4).H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	s, err := router.Route(d, []*circuit.Circuit{prog}, [][]int{[]int{0, 1, 2, 3}}, router.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return d, s, []*circuit.Circuit{prog}
}

// compiledLay lowers a schedule the way the simulate entry points do.
func compiledLay(tb testing.TB, d *arch.Device, s *router.Schedule, noise NoiseModel) (*layered, *compiledProgram) {
	tb.Helper()
	lay := layerize(s)
	cp, err := compileLayers(d, lay, noise)
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
		{Enabled: true, IdleErrPerLayer: 0.01, CrosstalkFactor: 0.5, Readout: true},
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

// lazyLine is a hand-built two-program schedule on a 6-qubit line whose
// noise a device can confine to one channel: CX only on links 0-1 and
// 3-4, SWAPs only on links 1-2 and 4-5, and program 0 deeper than
// program 1, whose wires then idle. Program 1's rotations make its
// qubits' outcome probabilities differ, and it is measured against
// wire order, so its plan order is not its bit order.
func lazyLine(d *arch.Device) *router.Schedule {
	s := &router.Schedule{Device: d}
	add := func(prog int, name string, theta float64, qs ...int) {
		g := circuit.Gate{Name: name, Qubits: qs}
		if name == circuit.GateRX {
			g.Params = []float64{theta}
		}
		s.Ops = append(s.Ops, router.Op{Program: prog, Gate: g, IsSwap: name == circuit.GateSWAP})
	}
	add(0, circuit.GateH, 0, 0)
	add(0, circuit.GateCX, 0, 0, 1)
	add(0, circuit.GateRX, 0.7, 1)
	add(-1, circuit.GateSWAP, 0, 1, 2)
	for _, name := range []string{circuit.GateT, circuit.GateH, circuit.GateS, circuit.GateH} {
		add(0, name, 0, 0)
	}
	add(1, circuit.GateRX, 1.1, 3)
	add(1, circuit.GateCX, 0, 3, 4)
	add(1, circuit.GateRX, 0.4, 4)
	add(-1, circuit.GateSWAP, 0, 4, 5)
	s.Measurements = []router.Measurement{
		{Program: 0, Logical: 0, Phys: 0}, {Program: 0, Logical: 1, Phys: 2},
		{Program: 1, Logical: 0, Phys: 5}, {Program: 1, Logical: 1, Phys: 3},
	}
	return s
}

// TestLazyRegisterMatchesJoint holds the lazy statevector register to
// the joint oracle on lazyLine with the noise confined, by the device's
// error rates, to gate noise, SWAP noise or idle decay in turn — each
// must wake components — and with trial budgets on both sides of the
// measurement-tree gate: 4 x 8 trials pay for its two-qubit components'
// trees (2^3 <= 32), 1 x 7 trials do not, so following components are
// woken at their final checkpoint to be measured.
func TestLazyRegisterMatchesJoint(t *testing.T) {
	gate, swap, idle := arch.Linear(6, 0.08, 0), arch.Linear(6, 0, 0), arch.Linear(6, 0, 0)
	for q := range gate.Gate1Err {
		gate.Gate1Err[q] = 0.05
	}
	for _, e := range []graph.Edge{graph.NewEdge(1, 2), graph.NewEdge(4, 5)} {
		gate.CNOTErr[e], swap.CNOTErr[e] = 0, 0.1
	}
	cases := []struct {
		name  string
		d     *arch.Device
		noise NoiseModel
	}{
		{"gate noise", gate, NoiseModel{Enabled: true}},
		{"SWAP noise", swap, NoiseModel{Enabled: true}},
		{"idle decay", idle, NoiseModel{Enabled: true, IdleErrPerLayer: 0.1}},
	}
	for _, c := range cases {
		s := lazyLine(c.d)
		if p := jointMatchesFactored(t, c.name+", trees", engineStatevector, c.d, s, c.noise, 4, 8); p.woken == 0 || p.tree == 0 || p.copied != 0 {
			t.Errorf("%s, 4 x 8 trials: %+v, want components woken by it and the rest measured through trees", c.name, p)
		}
		if p := jointMatchesFactored(t, c.name+", no trees", engineStatevector, c.d, s, c.noise, 1, 7); p.woken == 0 || p.copied == 0 || p.tree != 0 {
			t.Errorf("%s, 1 x 7 trials: %+v, want components woken by it and the rest at their final checkpoint", c.name, p)
		}
	}
}

// TestPrefixBudget: checkpoints that do not fit maxPrefixAmps leave their
// component live from the start. A 20-qubit GHZ chain needs 2^20
// amplitudes per checkpoint, so it runs eagerly and still matches the
// joint oracle; the pair fixture's components all follow.
func TestPrefixBudget(t *testing.T) {
	line := make([]int, 20)
	for i := range line {
		line[i] = i
	}
	d := arch.Linear(20, 0.01, 0.02)
	ghz, err := router.Route(d, []*circuit.Circuit{nisqbench.GHZ(20)}, [][]int{line}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	jointMatchesFactored(t, "ghz20", engineStatevector, d, ghz, DefaultNoise(), 1, 2)
	pd, pair, _ := pairSchedule(t)
	for _, fx := range []struct {
		name   string
		d      *arch.Device
		s      *router.Schedule
		follow bool
	}{{"ghz20", d, ghz, false}, {"pair", pd, pair, true}} {
		_, cp := compiledLay(t, fx.d, fx.s, DefaultNoise())
		if err := prepare(engineStatevector, cp, nil, 8024); err != nil {
			t.Fatal(err)
		}
		for c, b := range cp.prefix.base {
			if (b >= 0) != fx.follow {
				t.Errorf("%s: component %d of %d qubits has checkpoints at %d, want following %v", fx.name, c, cp.fac.sizes[c], b, fx.follow)
			}
		}
	}
}

// TestSimulateBytesPerCall bounds what one SimulateScheduleCtx call on
// the pair fixture allocates (≈52 KB, of which 6 KB are checkpoints and
// 10 KB the one worker's stream): the checkpoints are one allocation per
// compiled program, sized to its components — not to maxPrefixAmps —
// and a stream and register are made per worker, not per shard or per
// trial.
func TestSimulateBytesPerCall(t *testing.T) {
	d, s, progs := pairSchedule(t)
	const bound = 64 << 10
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := SimulateScheduleCtx(context.Background(), d, s, progs, 8024, 7, DefaultNoise(), 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > bound {
		t.Fatalf("SimulateScheduleCtx on the pair fixture allocates %d bytes per call, want <= %d", least, bound)
	}
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
		lay, cp := compiledLay(t, d, s, DefaultNoise())
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
		{Enabled: true, IdleErrPerLayer: 0.05, CrosstalkFactor: 0.5, Readout: true},
	}
	d, ghz, _ := ghzSchedule(t)
	corners, _ := corners16(t, d)
	d50 := arch.IBMQ50(0)
	mix, _ := cliffordMix50(t, d50)
	_, cp := compiledLay(t, d50, mix, DefaultNoise())
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
	for i := 0; i < 2*used.n; i++ {
		if used.getr(i) != fresh.getr(i) {
			t.Fatalf("reset ptab row %d sign differs from a fresh one", i)
		}
		for q := 0; q < used.n; q++ {
			if used.getx(i, q) != fresh.getx(i, q) || used.getz(i, q) != fresh.getz(i, q) {
				t.Fatalf("reset ptab row %d qubit %d differs from a fresh one", i, q)
			}
		}
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

// TestCliffordGatedFingerprintAcrossWorkers checks byte-identity across
// worker counts on a small workload (two shards, the second of three
// trials) and a large one (40 shards): each must return identical
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

// shardAllocs counts what a warm shard allocates, run the way
// monteCarlo runs one: once the worker's register and stream exist, a
// shard of shardTrials trials — gates, noise, measurements and readout
// flips — may not allocate, so no trial does. In particular the tableau's
// lattice, frames and hit lists live on its register, and a decay's coin
// and a measurement's pick go through the tableau's one pick closure.
func shardAllocs(t *testing.T, engine engineKind, d *arch.Device, s *router.Schedule, progs int) float64 {
	t.Helper()
	cp, plan, err := lowerSchedule(d, s, progs, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	if err := prepare(engine, cp, plan, 8024); err != nil {
		t.Fatal(err)
	}
	reg, rng, succ := newRegister(engine, cp, progs), newStream(1), make([]int, progs)
	return testing.AllocsPerRun(5, func() {
		rng.seed(1)
		reg.shard(cp, plan, shardTrials, rng, succ)
	})
}

// TestStatevectorTrialAllocs is the steady-state allocation guard for
// the statevector register.
func TestStatevectorTrialAllocs(t *testing.T) {
	d, s, progs := pairSchedule(t)
	if allocs := shardAllocs(t, engineStatevector, d, s, len(progs)); allocs > 0 {
		t.Fatalf("statevector shard allocates %.1f times per run, want 0", allocs)
	}
}

// TestTableauTrialAllocs is the stabilizer-engine counterpart, on GHZ-4
// (random measurements), cliffordMix50 and ghz40 (every decay tier in
// most shards: frame updates, branches and re-runs on their tableaus).
func TestTableauTrialAllocs(t *testing.T) {
	d, s, progs := ghzSchedule(t)
	if allocs := shardAllocs(t, engineTableau, d, s, len(progs)); allocs > 0 {
		t.Fatalf("tableau shard on GHZ-4 allocates %.1f times per run, want 0", allocs)
	}
	d50 := arch.IBMQ50(0)
	mix, mixProgs := cliffordMix50(t, d50)
	if allocs := shardAllocs(t, engineTableau, d50, mix, len(mixProgs)); allocs > 0 {
		t.Fatalf("tableau shard on cliffordMix50 allocates %.1f times per run, want 0", allocs)
	}
	ghz, ghzProgs := ghz40(t, d50)
	if allocs := shardAllocs(t, engineTableau, d50, ghz, len(ghzProgs)); allocs > 0 {
		t.Fatalf("tableau shard on ghz40 allocates %.1f times per run, want 0", allocs)
	}
}

// TestSimulateParallelSpeedupAt8Cores asserts the headline claim on
// machines that can demonstrate it: with >= 8 CPUs, the sharded
// statevector path must beat sequential by at least 2x on a large
// workload — cliffordMix50's four components over 16 shards, about a
// second of sequential work. Skipped elsewhere —
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
