package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/nisqbench"
	"repro/internal/router"
)

// handSchedule builds a schedule op by op, as the router would emit it.
type handSchedule struct{ *router.Schedule }

func (h handSchedule) op(prog int, name string, qs ...int) handSchedule {
	h.Ops = append(h.Ops, router.Op{Program: prog, Gate: circuit.Gate{Name: name, Qubits: qs}, IsSwap: name == circuit.GateSWAP})
	return h
}

func (h handSchedule) measure(prog, logical, phys int) handSchedule {
	h.Measurements = append(h.Measurements, router.Measurement{Program: prog, Logical: logical, Phys: phys})
	return h
}

// routeSideBySide routes programs laid out on consecutive device
// qubits, the first from qubit 0.
func routeSideBySide(tb testing.TB, d *arch.Device, progs ...*circuit.Circuit) *router.Schedule {
	tb.Helper()
	initial, err := newTestCompiler(d)(progs)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := router.Route(d, progs, initial, router.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// flip is a bit's population after a draw that flips it with
// probability f.
func flip(p1, f float64) float64 { return p1*(1-f) + (1-p1)*f }

// readoutPST is a 1-qubit PST: P(1) read against a correct 1 with
// readout error e.
func readoutPST(p1, e float64) float64 { return p1*(1-e) + (1-p1)*e }

// TestExactPSTOneQubitByHand: X, S, a barrier, then a SWAP onto a free
// wire, measured there. Every step is a population update: a Pauli error
// at rate g flips the bit with probability 2g/3 (S keeps the populations,
// but its column half is conj(S), or the population would change sign);
// each idle layer resets 1 to 0 with probability p — the barrier's, and
// the two layers the SWAP's second and third CNOT occupy; each of the
// SWAP's three draws lands on the program's slot half the time; and
// readout flips the bit with probability e.
func TestExactPSTOneQubitByHand(t *testing.T) {
	const g, c, p, e = 0.03, 0.06, 0.02, 0.05
	d := arch.Linear(2, c, 0)
	d.Gate1Err[0], d.ReadoutErr[1] = g, e
	s := handSchedule{&router.Schedule{Device: d}}.
		op(0, circuit.GateX, 0).op(0, circuit.GateS, 0).op(0, circuit.GateBarrier, 0).
		op(-1, circuit.GateSWAP, 0, 1).measure(0, 0, 1)
	got, err := ExactPST(d, s.Schedule, []*circuit.Circuit{circuit.New("one", 1)}, NoiseModel{Enabled: true, IdleErrPerLayer: p, Readout: true})
	if err != nil {
		t.Fatal(err)
	}
	p1 := flip(1, 2*g/3) // X
	p1 = flip(p1, 2*g/3) // S
	p1 *= 1 - p          // the barrier's idle layer
	for range 3 {
		p1 = flip(p1, 2*(c/2)/3)
	}
	p1 *= (1 - p) * (1 - p)
	if want := readoutPST(p1, e); math.Abs(got[0]-want) > 1e-12 {
		t.Fatalf("PST %.15f, want %.15f by hand", got[0], want)
	}
}

// TestExactPSTTwoQubitByHand: two programs X(0) CX(0,1) on neighbouring
// links of a line, the second written X(0) H(1) CZ(0,1) H(1), whose CX
// and CZ share a layer, so each errs at its link's rate times
// 1 + CrosstalkFactor (the depolarizing draw commutes with the closing
// H, so the second program is the first). After X at rate g the state
// is 1·0 with probability u = 1 − 2g/3, CX maps it to 1·1, and the
// gate's error, a Pauli on one of its two qubits, moves 2c/3 of that
// weight to 1·0 and 0·1, half each, and likewise from 0·0; readout
// weighs every outcome.
func TestExactPSTTwoQubitByHand(t *testing.T) {
	const xf = 0.5
	d := arch.Linear(4, 0, 0)
	gate := []float64{0.02, 0, 0.04, 0}
	readout := []float64{0.03, 0.05, 0.01, 0.07}
	copy(d.Gate1Err, gate)
	copy(d.ReadoutErr, readout)
	d.CNOTErr[graph.NewEdge(0, 1)], d.CNOTErr[graph.NewEdge(2, 3)] = 0.05, 0.08
	d.CNOTErr[graph.NewEdge(1, 2)] = 0.5 // unused
	s := handSchedule{&router.Schedule{Device: d}}.
		op(0, circuit.GateX, 0).op(1, circuit.GateX, 2).op(1, circuit.GateH, 3).
		op(0, circuit.GateCX, 0, 1).op(1, circuit.GateCZ, 2, 3).op(1, circuit.GateH, 3).
		measure(0, 0, 0).measure(0, 1, 1).measure(1, 0, 2).measure(1, 1, 3)
	progs := []*circuit.Circuit{circuit.New("a", 2), circuit.New("b", 2)}
	got, err := ExactPST(d, s.Schedule, progs, NoiseModel{Enabled: true, CrosstalkFactor: xf, Readout: true})
	if err != nil {
		t.Fatal(err)
	}
	for p, q0 := range []int{0, 2} {
		g, e0, e1 := gate[q0], readout[q0], readout[q0+1]
		c := d.CNOTError(q0, q0+1) * (1 + xf)
		u := 1 - 2*g/3
		both, none, one := (1-2*c/3)*u, (1-2*c/3)*(1-u), c/3
		want := both*(1-e0)*(1-e1) + none*e0*e1 + one*(1-e0)*e1 + one*e0*(1-e1)
		if math.Abs(got[p]-want) > 1e-12 {
			t.Errorf("program %d: PST %.15f, want %.15f by hand", p, got[p], want)
		}
	}
}

// TestExactPSTRefuses: a program wider than maxRhoQubits, and one whose
// measured component holds another program's measured qubit, are
// refused; a program wider than the sampler's maxExactQubits is not.
func TestExactPSTRefuses(t *testing.T) {
	d := arch.Linear(maxRhoQubits+1, 0.01, 0.01)
	wide := nisqbench.GHZ(maxRhoQubits + 1)
	s := routeSideBySide(t, d, wide)
	if _, err := ExactPST(d, s, []*circuit.Circuit{wide}, DefaultNoise()); err == nil {
		t.Error("a program wider than maxRhoQubits was evaluated")
	}
	seven := nisqbench.GHZ(maxExactQubits + 1)
	if _, err := ExactPST(d, routeSideBySide(t, d, seven), []*circuit.Circuit{seven}, DefaultNoise()); err != nil {
		t.Errorf("a %d-qubit program was refused: %v", seven.NumQubits, err)
	}
	shared := handSchedule{&router.Schedule{Device: d}}.
		op(0, circuit.GateH, 0).op(0, circuit.GateCX, 0, 1).measure(0, 0, 0).measure(1, 0, 1)
	if _, err := ExactPST(d, shared.Schedule, []*circuit.Circuit{circuit.New("a", 1), circuit.New("b", 1)}, DefaultNoise()); err == nil {
		t.Error("a component holding two programs' measured qubits was evaluated")
	}
}

// trialLoop runs the engine's Monte-Carlo trial loop over every shard,
// as monteCarlo does without exact sampling, and returns each program's
// success count.
func trialLoop(t *testing.T, engine engineKind, d *arch.Device, s *router.Schedule, progs int, noise NoiseModel, trials int, seed int64) []int {
	t.Helper()
	cp, plan, err := lowerSchedule(d, s, progs, noise)
	if err != nil {
		t.Fatal(err)
	}
	if err := prepare(engine, cp, plan); err != nil {
		t.Fatal(err)
	}
	reg, rng, succ := newRegister(engine, cp, progs), newStream(seed), make([]int, progs)
	for sh := 0; sh < numShards(trials); sh++ {
		rng.seed(shardSeed(seed, sh))
		lo, hi := shardRange(sh, trials)
		reg.shard(cp, plan, hi-lo, rng, succ)
	}
	return succ
}

// zTrialLoop holds one trial loop's success counts to the exact PSTs:
// |z| <= 4 per program, or an exact count when the PST is 0 or 1. It
// returns the worst |z|.
func zTrialLoop(t *testing.T, name string, engine engineKind, d *arch.Device, s *router.Schedule, progs []*circuit.Circuit, noise NoiseModel, trials int) float64 {
	t.Helper()
	exact, err := ExactPST(d, s, progs, noise)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return zCounts(t, name, exact, trialLoop(t, engine, d, s, len(progs), noise, trials, 11), trials)
}

// zCounts is zTrialLoop's check of success counts against exact PSTs.
func zCounts(t *testing.T, name string, exact []float64, counts []int, trials int) float64 {
	t.Helper()
	worst := 0.0
	for p, n := range counts {
		mean := exact[p] * float64(trials)
		sd := math.Sqrt(max(mean*(1-exact[p]), 0))
		if sd < 1e-6 {
			if math.Abs(float64(n)-mean) > 1e-6 {
				t.Errorf("%s program %d: %d of %d trials succeed, exact PST %v", name, p, n, trials, exact[p])
			}
			continue
		}
		z := (float64(n) - mean) / sd
		worst = max(worst, math.Abs(z))
		if math.Abs(z) > 4 {
			t.Errorf("%s program %d: %d of %d trials succeed, exact PST %.5f: z = %.2f", name, p, n, trials, exact[p], z)
		}
	}
	return worst
}

// table2Pairs are the paper's Table II workloads (the root package's
// Table2Workloads).
var table2Pairs = [][2]string{
	{"bv_n3", "bv_n3"}, {"bv_n3", "bv_n4"}, {"bv_n3", "peres_3"}, {"bv_n3", "toffoli_3"}, {"bv_n3", "fredkin_3"},
	{"3_17_13", "3_17_13"}, {"3_17_13", "4mod5-v1_22"}, {"3_17_13", "mod5mils_65"}, {"3_17_13", "alu-v0_27"}, {"3_17_13", "decod24-v2_43"},
}

// TestTrialLoopsMatchExactPST is the oracle test of both Monte-Carlo
// trial loops: at 8024 trials each program's success count lies within
// four standard errors of trials·PST. It covers the statevector on
// pair16 and corners16 under every golden variant, the tableau on
// corners16, the statevector on the ten Table II pairs, routed side by
// side on IBMQ16, and, above the sampler's maxExactQubits, both engines
// on single programs of 7 to 10 qubits routed on IBMQ50.
func TestTrialLoopsMatchExactPST(t *testing.T) {
	const trials = 8024
	worst := 0.0
	for _, v := range goldenVariants(t) {
		for _, c := range []struct {
			engine engineKind
			name   string
			fx     goldenFixture
		}{
			{engineStatevector, "statevector/pair16", adjacentPair16},
			{engineStatevector, "statevector/corners16", corners16},
			{engineTableau, "clifford/corners16", corners16},
		} {
			s, progs := c.fx(t, v.d16)
			worst = max(worst, zTrialLoop(t, c.name+"/"+v.name, c.engine, v.d16, s, progs, v.noise, trials))
		}
	}
	d := arch.IBMQ16(0)
	for _, w := range table2Pairs {
		progs := []*circuit.Circuit{nisqbench.MustGet(w[0]), nisqbench.MustGet(w[1])}
		s := routeSideBySide(t, d, progs...)
		name := fmt.Sprintf("table2/%s+%s", w[0], w[1])
		worst = max(worst, zTrialLoop(t, name, engineStatevector, d, s, progs, DefaultNoise(), trials))
	}
	d50 := arch.IBMQ50(0)
	for _, c := range []struct {
		prog     string
		clifford bool
	}{{"alu-bdd_288", false}, {"ghz_n8", true}, {"bv_n10", true}} {
		progs := []*circuit.Circuit{nisqbench.MustGet(c.prog)}
		s := routeSideBySide(t, d50, progs...)
		exact, err := ExactPST(d50, s, progs, DefaultNoise())
		if err != nil {
			t.Fatalf("%s: %v", c.prog, err)
		}
		counts := trialLoop(t, engineStatevector, d50, s, 1, DefaultNoise(), trials, 11)
		worst = max(worst, zCounts(t, "statevector/ibmq50/"+c.prog, exact, counts, trials))
		if c.clifford {
			counts = trialLoop(t, engineTableau, d50, s, 1, DefaultNoise(), trials, 11)
			worst = max(worst, zCounts(t, "clifford/ibmq50/"+c.prog, exact, counts, trials))
		}
	}
	t.Logf("worst |z| %.2f", worst)
}

// TestExactSamplingMatchesExactPST: a schedule of narrow programs
// samples from the exact PST (the same Correct strings as the trial
// loop's reference, counts within four standard errors), and a warm
// sampling shard allocates nothing.
func TestExactSamplingMatchesExactPST(t *testing.T) {
	d, s, progs := pairSchedule(t)
	const trials = 8024
	out, err := SimulateScheduleCtx(context.Background(), d, s, progs, trials, 5, DefaultNoise(), 0)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactPST(d, s, progs, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range out.PST {
		if z := (v - exact[p]) * trials / math.Sqrt(trials*exact[p]*(1-exact[p])); math.Abs(z) > 4 {
			t.Errorf("program %d: sampled PST %.5f, exact %.5f: z = %.2f", p, v, exact[p], z)
		}
	}
	cp, plan, err := lowerSchedule(d, s, len(progs), DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	if err := prepare(engineStatevector, cp, plan); err != nil {
		t.Fatal(err)
	}
	for i, c := range out.Correct {
		var want []byte
		for _, mp := range plan {
			if mp.prog == i {
				want = append(want, byte('0'+mp.correct))
			}
		}
		if c != string(want) {
			t.Errorf("program %d: correct %s, trial loop's reference %s", i, c, want)
		}
	}
	spans := exactSpans(cp.fac, plan, len(progs), maxExactQubits)
	if spans == nil {
		t.Fatal("the pair fixture's programs are not narrow")
	}
	if err := prepareExact(cp, plan, spans); err != nil {
		t.Fatal(err)
	}
	reg, rng, succ := newRegister(engineStatevector, cp, len(progs)), newStream(1), make([]int, len(progs))
	if _, ok := reg.(binomial); !ok {
		t.Fatalf("register %T, want the binomial sampler", reg)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		rng.seed(1)
		reg.shard(cp, plan, shardTrials, rng, succ)
	}); allocs > 0 {
		t.Fatalf("sampling shard allocates %.1f times per run, want 0", allocs)
	}
}

// exactVsShardProgs are BenchmarkExactVsShard's programs, 3 to 7 qubits.
var exactVsShardProgs = []string{"bv_n3", "3_17_13", "decod24-v2_43", "4mod5-v1_22", "alu-v2_31", "qaoa_n6", "4gt4-v0_72", "alu-bdd_288", "ham7_104"}

// TestPauliBasisMatchesDensity holds the Pauli-basis evaluator to the
// complex density matrix it replaced (densityPST, oracle_test.go):
// every program's exact PST within 1e-12 on pair16 and corners16 under
// every golden variant, the ten Table II pairs and BenchmarkExactVsShard's
// programs on IBMQ16, and TestTrialLoopsMatchExactPST's 7- to 10-qubit
// programs on IBMQ50.
func TestPauliBasisMatchesDensity(t *testing.T) {
	worst := 0.0
	check := func(name string, d *arch.Device, s *router.Schedule, progs []*circuit.Circuit, noise NoiseModel) {
		t.Helper()
		cp, plan, err := lowerSchedule(d, s, len(progs), noise)
		if err != nil {
			t.Fatal(err)
		}
		spans := exactSpans(cp.fac, plan, len(progs), maxRhoQubits)
		if spans == nil {
			t.Fatalf("%s: not narrow", name)
		}
		got, err := exactPSTs(cp, plan, spans)
		if err != nil {
			t.Fatal(err)
		}
		want, err := densityPSTs(cp, plan, spans)
		if err != nil {
			t.Fatal(err)
		}
		for p := range want {
			worst = max(worst, math.Abs(got[p]-want[p]))
			if math.Abs(got[p]-want[p]) > 1e-12 {
				t.Errorf("%s program %d: Pauli basis %.17g, density matrix %.17g", name, p, got[p], want[p])
			}
		}
	}
	for _, v := range goldenVariants(t) {
		for name, fx := range map[string]goldenFixture{"pair16": adjacentPair16, "corners16": corners16} {
			s, progs := fx(t, v.d16)
			check(name+"/"+v.name, v.d16, s, progs, v.noise)
		}
	}
	d := arch.IBMQ16(0)
	for _, w := range table2Pairs {
		progs := []*circuit.Circuit{nisqbench.MustGet(w[0]), nisqbench.MustGet(w[1])}
		check("table2/"+w[0]+"+"+w[1], d, routeSideBySide(t, d, progs...), progs, DefaultNoise())
	}
	for _, name := range exactVsShardProgs {
		prog := nisqbench.MustGet(name)
		check("ibmq16/"+name, d, routeSideBySide(t, d, prog), []*circuit.Circuit{prog}, DefaultNoise())
	}
	d50 := arch.IBMQ50(0)
	for _, name := range []string{"alu-bdd_288", "ghz_n8", "bv_n10"} {
		prog := nisqbench.MustGet(name)
		check("ibmq50/"+name, d50, routeSideBySide(t, d50, prog), []*circuit.Circuit{prog}, DefaultNoise())
	}
	t.Logf("worst |Δ| %.2g", worst)
}

// TestPauliSignTablesByHand: H, S and Sdg's transfer matrices, and the
// pair pass under CX and CZ, send each single Pauli where conjugation
// by hand does: H swaps X and Z and negates Y; S takes X to Y and Y to
// −X; CX (control a) spreads X_a to X_aX_b and Z_b to Z_aZ_b and turns
// X_aZ_b into −Y_aY_b; CZ spreads X_a to X_aZ_b and X_b to Z_aX_b and
// turns X_aY_b into −Y_aX_b. A one-qubit index is x + 2z (I, X, Z, Y), a
// pair's la + 4·lb.
func TestPauliSignTablesByHand(t *testing.T) {
	const I, X, Z, Y = 0, 1, 2, 3
	type image struct{ to, sign int }
	for _, c := range []struct {
		gate string
		want map[int]image
	}{
		{circuit.GateH, map[int]image{I: {I, 1}, X: {Z, 1}, Z: {X, 1}, Y: {Y, -1}}},
		{circuit.GateS, map[int]image{I: {I, 1}, X: {Y, 1}, Z: {Z, 1}, Y: {X, -1}}},
		{circuit.GateSdg, map[int]image{I: {I, 1}, X: {Y, -1}, Z: {Z, 1}, Y: {X, 1}}},
	} {
		m, err := gateMatrix(circuit.Gate{Name: c.gate, Qubits: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		tm := unitaryTransfer(m)
		for q, im := range c.want {
			for p := range 4 { // column q of the transfer is where Q goes
				want := 0.0
				if p == im.to {
					want = float64(im.sign)
				}
				if math.Abs(tm[p][q]-want) > 1e-15 {
					t.Errorf("%s: t[%d][%d] = %v, want %v", c.gate, p, q, tm[p][q], want)
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		tab  *pairTable
		want map[int]image
	}{
		{"cx", cxTable, map[int]image{
			X: {X + 4*X, 1}, Z: {Z, 1}, Y: {Y + 4*X, 1},
			4 * X: {4 * X, 1}, 4 * Z: {Z + 4*Z, 1}, 4 * Y: {Z + 4*Y, 1},
			X + 4*Z: {Y + 4*Y, -1}, Y + 4*Y: {X + 4*Z, -1}, X + 4*Y: {Y + 4*Z, 1},
		}},
		{"cz", czTable, map[int]image{
			X: {X + 4*Z, 1}, Z: {Z, 1}, Y: {Y + 4*Z, 1},
			4 * X: {Z + 4*X, 1}, 4 * Z: {4 * Z, 1}, 4 * Y: {Z + 4*Y, 1},
			X + 4*X: {Y + 4*Y, 1}, X + 4*Y: {Y + 4*X, -1},
		}},
	} {
		// Qubits a = 2 and b = 0 of three, so the pass's offsets are
		// not the local index's bit order.
		const k, a, b = 3, 2, 0
		index := func(l int) int {
			return (l&1)<<a | (l>>1&1)<<(a+k) | (l>>2&1)<<b | (l>>3&1)<<(b+k)
		}
		for from, im := range c.want {
			r := &pauliRho{k: k, c: make([]float64, 1<<(2*k)), pend: make([]int, k), tm: make([]transfer, k), dirty: make([]bool, k)}
			r.c[index(from)] = 1
			r.pair(a, b, c.tab, 0, 1)
			for i, v := range r.c {
				want := 0.0
				if i == index(im.to) {
					want = float64(im.sign)
				}
				if v != want {
					t.Errorf("%s: Pauli %d goes to %v at index %d, want %d·Pauli %d", c.name, from, v, i, im.sign, im.to)
				}
			}
		}
	}
}

// BenchmarkExactVsShard measures what maxExactQubits is set from: one
// program's exact evaluation (reference run included) against one
// shardTrials shard of its trial loop, each program routed alone on
// IBMQ16 from the identity layout, under the default noise.
func BenchmarkExactVsShard(b *testing.B) {
	d := arch.IBMQ16(0)
	for _, name := range exactVsShardProgs {
		prog := nisqbench.MustGet(name)
		s := routeSideBySide(b, d, prog)
		cp, plan, err := lowerSchedule(d, s, 1, DefaultNoise())
		if err != nil {
			b.Fatal(err)
		}
		spans := exactSpans(cp.fac, plan, 1, prog.NumQubits)
		if spans == nil {
			b.Fatalf("%s: not one program's components", name)
		}
		id := fmt.Sprintf("%dq/%s", prog.NumQubits, name)
		b.Run("exact/"+id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exactPSTs(cp, plan, spans); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("shard/"+id, func(b *testing.B) {
			if err := prepare(engineStatevector, cp, plan); err != nil {
				b.Fatal(err)
			}
			reg, rng, succ := newRegister(engineStatevector, cp, 1), newStream(1), make([]int, 1)
			for i := 0; i < b.N; i++ {
				rng.seed(int64(i))
				reg.shard(cp, plan, shardTrials, rng, succ)
			}
		})
	}
}
