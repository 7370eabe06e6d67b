package sim

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/router"
)

func TestTableauBasics(t *testing.T) {
	tb := newTableau(2)
	zero := func() bool { return false }
	if tb.measure(0, zero) != 0 {
		t.Fatal("|0> must measure 0")
	}
	tb.xg(0)
	if tb.measure(0, zero) != 1 {
		t.Fatal("X|0> must measure 1")
	}
	tb.cx(0, 1)
	if tb.measure(1, zero) != 1 {
		t.Fatal("CNOT from |1> must flip target")
	}
}

func TestTableauBellCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ones := 0
	for trial := 0; trial < 200; trial++ {
		tb := newTableau(2)
		tb.h(0)
		tb.cx(0, 1)
		pick := func() bool { return rng.Intn(2) == 1 }
		a := tb.measure(0, pick)
		b := tb.measure(1, pick)
		if a != b {
			t.Fatal("bell pair must correlate")
		}
		ones += a
	}
	if ones < 60 || ones > 140 {
		t.Fatalf("bell outcomes biased: %d/200 ones", ones)
	}
}

func TestTableauPhaseGates(t *testing.T) {
	// HZH = X: |0> -> |1>.
	tb := newTableau(1)
	tb.h(0)
	tb.zg(0)
	tb.h(0)
	if tb.measure(0, func() bool { return false }) != 1 {
		t.Fatal("HZH must act as X")
	}
	// S^4 = I; HS S H on |0>: HS^2H = HZH = X.
	tb2 := newTableau(1)
	tb2.h(0)
	tb2.s(0)
	tb2.s(0)
	tb2.h(0)
	if tb2.measure(0, func() bool { return false }) != 1 {
		t.Fatal("H S S H must act as X")
	}
	// sdg then s cancels.
	tb3 := newTableau(1)
	tb3.h(0)
	tb3.sdg(0)
	tb3.s(0)
	tb3.h(0)
	if tb3.measure(0, func() bool { return false }) != 0 {
		t.Fatal("H Sdg S H must be identity")
	}
}

func TestTableauSwapAndCZ(t *testing.T) {
	tb := newTableau(2)
	tb.xg(0)
	tb.swap(0, 1)
	zero := func() bool { return false }
	if tb.measure(0, zero) != 0 || tb.measure(1, zero) != 1 {
		t.Fatal("swap must move the excitation")
	}
	// CZ in X basis: H(1) CZ H(1) == CNOT(0,1).
	tb2 := newTableau(2)
	tb2.xg(0)
	tb2.h(1)
	tb2.cz(0, 1)
	tb2.h(1)
	if tb2.measure(1, zero) != 1 {
		t.Fatal("H-CZ-H must act as CNOT")
	}
}

// TestTableauMatchesStatevector cross-validates the two backends on
// random Clifford circuits: deterministic measurement outcomes must
// agree exactly.
func TestTableauMatchesStatevector(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(2)
		c := circuit.New("cliff", n)
		for i := 0; i < 25; i++ {
			q := rng.Intn(n)
			switch rng.Intn(6) {
			case 0:
				c.H(q)
			case 1:
				c.S(q)
			case 2:
				c.X(q)
			case 3:
				c.Z(q)
			default:
				r := rng.Intn(n - 1)
				if r >= q {
					r++
				}
				c.CX(q, r)
			}
		}
		c.MeasureAll()
		// Statevector reference under the same greedy prefer-0
		// sequential-measurement rule the tableau uses (probability
		// argmax differs on entangled superpositions).
		st := newState(n)
		for _, g := range c.Gates {
			if g.IsMeasure() {
				continue
			}
			switch g.Name {
			case circuit.GateCX:
				st.applyCNOT(g.Qubits[0], g.Qubits[1])
			default:
				m, err := gateMatrix(g)
				if err != nil {
					return false
				}
				st.apply1q(m, g.Qubits[0])
			}
		}
		want := make([]byte, n)
		for q := 0; q < n; q++ {
			outcome := 0
			if st.prob1(q) > 1-1e-9 {
				outcome = 1
			}
			st.project(q, outcome)
			want[q] = byte('0' + outcome)
		}
		wantStr := string(want)
		// Tableau with prefer-0 resolution.
		tb := newTableau(n)
		for _, g := range c.Gates {
			if g.IsMeasure() {
				continue
			}
			if err := tb.applyCliffordGate(g, func(q int) int { return q }); err != nil {
				return false
			}
		}
		got := make([]byte, n)
		for q := 0; q < n; q++ {
			got[q] = byte('0' + tb.measure(q, func() bool { return false }))
		}
		return string(got) == wantStr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateScheduleCliffordNoiseless(t *testing.T) {
	d := arch.IBMQ16(0)
	p := nisqbench.MustGet("bv_n4")
	s, err := router.Route(d, []*circuit.Circuit{p}, [][]int{[]int{0, 1, 2, 3}}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := SimulateScheduleCliffordCtx(context.Background(), d, s, []*circuit.Circuit{p}, 40, 1, NoiseModel{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.PST[0] != 1 {
		t.Fatalf("noiseless Clifford PST = %v", out.PST[0])
	}
	if out.Correct[0] != "1110" {
		t.Fatalf("correct = %q", out.Correct[0])
	}
}

func TestCliffordMatchesStatevectorPST(t *testing.T) {
	// The two backends must give statistically close noisy PSTs for
	// the same schedule and noise model.
	d := arch.IBMQ16(0)
	p := nisqbench.MustGet("bv_n4")
	s, err := router.Route(d, []*circuit.Circuit{p}, [][]int{[]int{0, 1, 2, 3}}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	noise := DefaultNoise()
	sv, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p}, 1500, 3, noise, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := SimulateScheduleCliffordCtx(context.Background(), d, s, []*circuit.Circuit{p}, 1500, 3, noise, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sv.PST[0] - cl.PST[0]; diff > 0.06 || diff < -0.06 {
		t.Fatalf("backends disagree: statevector %v vs tableau %v", sv.PST[0], cl.PST[0])
	}
}

// TestCliffordMatchesStatevectorAboveOldCap checks the two engines
// against each other past 24 active qubits, where only a factored
// register fits: cliffordMix50 has 28, in components of 10, 8, 6 and 4.
func TestCliffordMatchesStatevectorAboveOldCap(t *testing.T) {
	d := arch.IBMQ50(0)
	s, progs := cliffordMix50(t, d)
	_, cp := compiledLay(t, d, s, DefaultNoise())
	sizes := append([]int(nil), cp.fac.sizes...)
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{4, 6, 8, 10}) {
		t.Fatalf("components %v, want one per program: 4, 6, 8, 10", sizes)
	}
	const trials = 8024
	sv, err := SimulateScheduleCtx(context.Background(), d, s, progs, trials, 3, DefaultNoise(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := SimulateScheduleCliffordCtx(context.Background(), d, s, progs, trials, 3, DefaultNoise(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sv.Correct, cl.Correct) {
		t.Fatalf("reference outcomes differ: statevector %v, tableau %v", sv.Correct, cl.Correct)
	}
	for p := range progs {
		a, b := sv.PST[p], cl.PST[p]
		sigma := math.Sqrt((a*(1-a) + b*(1-b)) / trials)
		if math.Abs(a-b) > 4*sigma {
			t.Errorf("program %d: statevector PST %.4f, tableau %.4f, more than 4 sigma (%.4f) apart", p, a, b, sigma)
		}
	}
}

// TestEnginesAgreeWithNoise holds the two engines to one noise rule set:
// on corners16 (CZs, a barrier) and cliffordMix50, under every noisy
// variant of TestGoldenPST, each
// program's statevector and tableau PSTs at 8024 trials must agree
// within four standard errors of their difference.
func TestEnginesAgreeWithNoise(t *testing.T) {
	const trials = 8024
	ctx := context.Background()
	for _, v := range goldenVariants(t) {
		if !v.noise.Enabled {
			continue
		}
		for _, fx := range []struct {
			name string
			d    *arch.Device
			fx   goldenFixture
		}{{"corners16", v.d16, corners16}, {"mix50", v.d50, cliffordMix50}} {
			s, progs := fx.fx(t, fx.d)
			sv, err := SimulateScheduleCtx(ctx, fx.d, s, progs, trials, 21, v.noise, 0)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := SimulateScheduleCliffordCtx(ctx, fx.d, s, progs, trials, 22, v.noise, 0)
			if err != nil {
				t.Fatal(err)
			}
			for p := range progs {
				a, b := sv.PST[p], cl.PST[p]
				pool := (a + b) / 2
				se := math.Sqrt(pool * (1 - pool) * 2 / trials)
				if z := (a - b) / se; math.Abs(z) > 4 || se == 0 && a != b {
					t.Errorf("%s/%s program %d: statevector PST %.4f, tableau %.4f (z = %.2f)", fx.name, v.name, p, a, b, z)
				} else {
					t.Logf("%s/%s program %d: statevector %.4f, tableau %.4f, z = %+.2f", fx.name, v.name, p, a, b, z)
				}
			}
		}
	}
}

func TestCliffordRejectsNonClifford(t *testing.T) {
	d := arch.IBMQ16(0)
	p := nisqbench.MustGet("toffoli_3")
	s, err := router.Route(d, []*circuit.Circuit{p}, [][]int{[]int{0, 1, 2}}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateScheduleCliffordCtx(context.Background(), d, s, []*circuit.Circuit{p}, 10, 1, NoiseModel{}, 0); err == nil {
		t.Fatal("T gates must be rejected")
	}
}

func TestClifford50QubitWorkload(t *testing.T) {
	// The whole point: fidelity estimation on the 50-qubit chip.
	d := arch.IBMQ50(0)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("bv_n10"),
		nisqbench.GHZ(8),
		nisqbench.BernsteinVazirani(6),
	}
	comp := newTestCompiler(d)
	initial, err := comp(progs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := router.Route(d, progs, initial, router.XSWAPOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := SimulateScheduleCliffordCtx(context.Background(), d, s, progs, 300, 5, DefaultNoise(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for p, pst := range out.PST {
		if pst <= 0.01 || pst > 1 {
			t.Fatalf("program %d PST = %v", p, pst)
		}
	}
	// GHZ's reference must be all zeros (prefer-0 resolution).
	if out.Correct[1] != "00000000" {
		t.Fatalf("ghz reference = %q", out.Correct[1])
	}
}

// newTestCompiler avoids an import cycle with partition by allocating
// simple disjoint row regions on the 5x10 lattice.
func newTestCompiler(d *arch.Device) func([]*circuit.Circuit) ([][]int, error) {
	return func(progs []*circuit.Circuit) ([][]int, error) {
		next := 0
		out := make([][]int, len(progs))
		for i, p := range progs {
			m := make([]int, p.NumQubits)
			for l := range m {
				m[l] = next
				next++
			}
			out[i] = m
		}
		return out, nil
	}
}
