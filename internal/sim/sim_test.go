package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/router"
)

func TestStateBasics(t *testing.T) {
	s := newState(2)
	if s.prob1(0) != 0 || s.prob1(1) != 0 {
		t.Fatal("initial state must be |00>")
	}
	s.apply1q(pauliX, 0)
	if math.Abs(s.prob1(0)-1) > 1e-12 {
		t.Fatalf("after X, p1 = %v", s.prob1(0))
	}
	s.applyCNOT(0, 1)
	if math.Abs(s.prob1(1)-1) > 1e-12 {
		t.Fatalf("after CNOT, p1(target) = %v", s.prob1(1))
	}
}

func TestBellState(t *testing.T) {
	s := newState(2)
	h, err := gateMatrix(circuit.Gate{Name: circuit.GateH})
	if err != nil {
		t.Fatal(err)
	}
	s.apply1q(h, 0)
	s.applyCNOT(0, 1)
	if math.Abs(s.prob1(0)-0.5) > 1e-12 || math.Abs(s.prob1(1)-0.5) > 1e-12 {
		t.Fatalf("bell probs = %v %v", s.prob1(0), s.prob1(1))
	}
	// Measuring one qubit must collapse the other to the same value.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		c := s.clone()
		a := c.measure(0, rng)
		b := c.measure(1, rng)
		if a != b {
			t.Fatal("bell measurement must correlate")
		}
	}
}

func TestSwapGate(t *testing.T) {
	s := newState(2)
	s.apply1q(pauliX, 0)
	s.applySWAP(0, 1)
	if s.prob1(0) > 1e-12 || math.Abs(s.prob1(1)-1) > 1e-12 {
		t.Fatalf("swap: p = %v %v", s.prob1(0), s.prob1(1))
	}
}

func TestCZPhase(t *testing.T) {
	// CZ on |11> flips sign; verify via interference: H X basis trick.
	s := newState(2)
	s.apply1q(pauliX, 0)
	s.apply1q(pauliX, 1)
	s.applyCZ(0, 1)
	if math.Abs(real(s.amps[3])+1) > 1e-12 {
		t.Fatalf("cz |11> amp = %v, want -1", s.amps[3])
	}
}

func TestGateMatrixUnitarity(t *testing.T) {
	gates := []circuit.Gate{
		{Name: circuit.GateH}, {Name: circuit.GateX}, {Name: circuit.GateY},
		{Name: circuit.GateZ}, {Name: circuit.GateS}, {Name: circuit.GateSdg},
		{Name: circuit.GateT}, {Name: circuit.GateTdg},
		{Name: circuit.GateRX, Params: []float64{0.7}},
		{Name: circuit.GateRY, Params: []float64{1.1}},
		{Name: circuit.GateRZ, Params: []float64{2.2}},
		{Name: circuit.GateU1, Params: []float64{0.4}},
		{Name: circuit.GateU2, Params: []float64{0.3, 0.9}},
		{Name: circuit.GateU3, Params: []float64{1.0, 0.2, 0.5}},
	}
	for _, g := range gates {
		m, err := gateMatrix(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		// m * m^dagger = I
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				sum := complex(0, 0)
				for k := 0; k < 2; k++ {
					a := m[i][k]
					b := m[j][k]
					sum += a * complex(real(b), -imag(b))
				}
				want := complex(0, 0)
				if i == j {
					want = 1
				}
				if math.Abs(real(sum-want)) > 1e-9 || math.Abs(imag(sum-want)) > 1e-9 {
					t.Fatalf("%s not unitary: (%d,%d) = %v", g.Name, i, j, sum)
				}
			}
		}
	}
	if _, err := gateMatrix(circuit.Gate{Name: "bogus"}); err == nil {
		t.Fatal("unknown gate must error")
	}
}

func TestNormPreservedUnderTrajectory(t *testing.T) {
	s := newState(3)
	rng := rand.New(rand.NewSource(9))
	h, _ := gateMatrix(circuit.Gate{Name: circuit.GateH})
	for i := 0; i < 50; i++ {
		s.apply1q(h, rng.Intn(3))
		s.applyCNOT(rng.Intn(3), (rng.Intn(2)+1+rng.Intn(3))%3)
		if rng.Float64() < 0.3 {
			s.injectPauli(rng.Intn(3), rng)
		}
		if rng.Float64() < 0.2 {
			s.decay(rng.Intn(3), rng)
		}
		norm := 0.0
		for _, a := range s.amps {
			norm += real(a)*real(a) + imag(a)*imag(a)
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Fatalf("norm drifted to %v", norm)
		}
	}
}

func TestSimulateIdealBV(t *testing.T) {
	// BV with hidden string all-ones: data qubits read 1, ancilla 0.
	out, prob, err := SimulateIdeal(nisqbench.BernsteinVazirani(4))
	if err != nil {
		t.Fatal(err)
	}
	if out != "1110" {
		t.Fatalf("bv_n4 ideal = %q, want 1110", out)
	}
	if prob < 0.99 {
		t.Fatalf("bv_n4 modal prob = %v, want ~1", prob)
	}
}

func TestSimulateIdealToffoliFamily(t *testing.T) {
	cases := map[string]string{
		"toffoli_3": "111", // |110> -> target flips
		"fredkin_3": "101", // swap of (1,0) on targets
		"peres_3":   "101", // toffoli then cx(0,1): |111> -> |101>
	}
	for name, want := range cases {
		out, prob, err := SimulateIdeal(nisqbench.MustGet(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out != want {
			t.Fatalf("%s ideal = %q, want %q", name, out, want)
		}
		if prob < 0.99 {
			t.Fatalf("%s modal prob = %v", name, prob)
		}
	}
}

func TestSyntheticRevLibDeterministicOutput(t *testing.T) {
	// NCT circuits are permutations: modal probability must be ~1.
	for _, name := range []string{"3_17_13", "alu-v0_27", "4mod5-v1_22"} {
		_, prob, err := SimulateIdeal(nisqbench.MustGet(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prob < 0.99 {
			t.Fatalf("%s modal prob = %v, want ~1 (classical circuit)", name, prob)
		}
	}
}

// compile routes a pair of programs side by side on a linear chip.
func compilePair(t *testing.T, d *arch.Device, p1, p2 *circuit.Circuit, m1, m2 []int) (*router.Schedule, []*circuit.Circuit) {
	t.Helper()
	progs := []*circuit.Circuit{p1, p2}
	s, err := router.Route(d, progs, [][]int{m1, m2}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s, progs
}

func TestSimulateScheduleNoiselessIsPerfect(t *testing.T) {
	d := arch.IBMQ16(0)
	p := nisqbench.MustGet("bv_n3")
	s, err := router.RouteSingle(d, p, []int{0, 1, 2}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p}, 50, 1, NoiseModel{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.PST[0] != 1.0 {
		t.Fatalf("noiseless PST = %v, want 1", out.PST[0])
	}
	if out.Correct[0] != "110" {
		t.Fatalf("correct = %q, want 110 (bv data=11, ancilla=0)", out.Correct[0])
	}
}

func TestSimulateScheduleNoiseLowersPST(t *testing.T) {
	d := arch.IBMQ16(0)
	p := nisqbench.MustGet("toffoli_3")
	s, err := router.RouteSingle(d, p, []int{0, 1, 2}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p}, 400, 1, DefaultNoise(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.PST[0] >= 1.0 {
		t.Fatalf("noisy PST = %v, expected < 1", noisy.PST[0])
	}
	if noisy.PST[0] < 0.3 {
		t.Fatalf("noisy PST = %v, suspiciously low for a tiny circuit", noisy.PST[0])
	}
}

func TestSimulateScheduleTwoPrograms(t *testing.T) {
	d := arch.IBMQ16(0)
	p1 := nisqbench.MustGet("bv_n3")
	p2 := nisqbench.MustGet("bv_n3")
	s, progs := compilePair(t, d, p1, p2, []int{0, 1, 2}, []int{11, 12, 13})
	out, err := SimulateScheduleCtx(context.Background(), d, s, progs, 300, 2, DefaultNoise(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PST) != 2 {
		t.Fatalf("PST entries = %d", len(out.PST))
	}
	for p, pst := range out.PST {
		if pst <= 0.2 || pst > 1 {
			t.Fatalf("program %d PST = %v out of plausible range", p, pst)
		}
	}
	if out.Correct[0] != "110" || out.Correct[1] != "110" {
		t.Fatalf("correct = %v", out.Correct)
	}
}

func TestWorseLinksLowerPST(t *testing.T) {
	good := arch.Linear(3, 0.005, 0.01)
	bad := arch.Linear(3, 0.10, 0.10)
	p := nisqbench.MustGet("bv_n3")
	run := func(d *arch.Device) float64 {
		s, err := router.RouteSingle(d, p, []int{0, 1, 2}, router.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		out, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p}, 500, 3, DefaultNoise(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return out.PST[0]
	}
	if gp, bp := run(good), run(bad); gp <= bp {
		t.Fatalf("good-chip PST %v <= bad-chip PST %v", gp, bp)
	}
}

func TestIdleDecoherencePenalizesWaiting(t *testing.T) {
	// A 1-gate program co-located with a deep program must lose PST
	// versus running with a shallow partner (its measurement waits).
	d := arch.Linear(6, 0.004, 0.01)
	short := circuit.New("short", 2)
	short.X(0).CX(0, 1).MeasureAll()
	deep := circuit.New("deep", 2)
	for i := 0; i < 120; i++ {
		deep.CX(0, 1)
	}
	deep.MeasureAll()
	shallow := circuit.New("shallow", 2)
	shallow.CX(0, 1).MeasureAll()

	noise := NoiseModel{Enabled: true, IdleErrPerLayer: 0.004, Readout: false}
	pstWith := func(partner *circuit.Circuit) float64 {
		s, progs := compilePair(t, d, short, partner, []int{0, 1}, []int{3, 4})
		out, err := SimulateScheduleCtx(context.Background(), d, s, progs, 600, 4, noise, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out.PST[0]
	}
	deepPST, shallowPST := pstWith(deep), pstWith(shallow)
	if deepPST >= shallowPST {
		t.Fatalf("PST with deep partner %v >= with shallow partner %v; idle decoherence must hurt", deepPST, shallowPST)
	}
}

// TestSimulateScheduleErrors walks every rejection the two Monte-Carlo
// entry points share, with the exact text callers see; a row that wants
// no error pins a limit one engine does not have.
func TestSimulateScheduleErrors(t *testing.T) {
	d := arch.IBMQ16(0)
	p := nisqbench.MustGet("bv_n3")
	s, err := router.RouteSingle(d, p, []int{0, 1, 2}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	one := []*circuit.Circuit{p}
	stray := *s
	stray.Measurements = append(append([]router.Measurement(nil), s.Measurements...), router.Measurement{Program: 1, Phys: 3})
	tof := nisqbench.MustGet("toffoli_3")
	tofSched, err := router.RouteSingle(d, tof, []int{0, 1, 2}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// One 25-qubit entangled program: a single component past the cap.
	ghz25 := nisqbench.GHZ(25)
	line := make([]int, 25)
	for i := range line {
		line[i] = i
	}
	big, err := router.RouteSingle(arch.Linear(25, 0.01, 0.01), ghz25, line, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	live := context.Background()
	cancelled, cancel := context.WithCancel(live)
	cancel()

	const sv, cliff = "statevector", "clifford"
	cases := []struct {
		name    string
		engines []string
		ctx     context.Context
		d       *arch.Device
		sched   *router.Schedule
		progs   []*circuit.Circuit
		trials  int
		want    string
	}{
		{"zero trials", []string{sv, cliff}, live, d, s, one, 0, "sim: trials must be positive, got 0"},
		{"negative trials", []string{sv, cliff}, live, d, s, one, -3, "sim: trials must be positive, got -3"},
		{"unknown program", []string{sv, cliff}, live, d, &stray, one, 10, "sim: measurement for unknown program 1"},
		{"component too large", []string{sv}, live, big.Device, big, []*circuit.Circuit{ghz25}, 10, "sim: an entangled component of 25 qubits exceeds the statevector limit of 24"},
		// The caps are the statevector's: a tableau component has none.
		{"tableau component uncapped", []string{cliff}, live, big.Device, big, []*circuit.Circuit{ghz25}, 10, ""},
		{"non-Clifford gate", []string{cliff}, live, d, tofSched, []*circuit.Circuit{tof}, 10, `sim: schedule contains non-Clifford gate "tdg"`},
		{"cancelled context", []string{sv, cliff}, cancelled, d, s, one, 10, context.Canceled.Error()},
	}
	for _, c := range cases {
		for _, engine := range c.engines {
			var err error
			switch engine {
			case sv:
				_, err = SimulateScheduleCtx(c.ctx, c.d, c.sched, c.progs, c.trials, 1, DefaultNoise(), 0)
			default:
				_, err = SimulateScheduleCliffordCtx(c.ctx, c.d, c.sched, c.progs, c.trials, 1, DefaultNoise(), 0)
			}
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s, %s: error %v, want success", c.name, engine, err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Errorf("%s, %s: error %v, want %q", c.name, engine, err, c.want)
			}
		}
	}
}

func TestSimulateIdealTooManyQubits(t *testing.T) {
	if _, _, err := SimulateIdeal(nisqbench.GHZ(30)); err == nil {
		t.Fatal("a 30-qubit entangled component must exceed the statevector limit")
	}
	// Three 24-qubit components fit the per-component cap, not a register.
	chains := circuit.New("chains", 72)
	for q := 0; q < 72; q++ {
		if q%24 != 0 {
			chains.CX(q-1, q)
		}
	}
	if _, _, err := SimulateIdeal(chains); err == nil {
		t.Fatal("3 x 2^24 amplitudes must exceed the register limit")
	}
	// Thirty qubits that never interact are thirty 2-amplitude states.
	c := circuit.New("wide", 30)
	for q := 0; q < 30; q += 2 {
		c.X(q)
	}
	out, prob, err := SimulateIdeal(c)
	if err != nil || out != "101010101010101010101010101010" || math.Abs(prob-1) > 1e-12 {
		t.Fatalf("30 unentangled qubits: %q, %v, %v", out, prob, err)
	}
}

func TestOutcomeAvgPST(t *testing.T) {
	o := &Outcome{PST: []float64{0.4, 0.6}}
	if got := o.AvgPST(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("avg = %v", got)
	}
	if (&Outcome{}).AvgPST() != 0 {
		t.Fatal("empty outcome avg must be 0")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	d := arch.IBMQ16(0)
	p := nisqbench.MustGet("bv_n4")
	s, err := router.RouteSingle(d, p, []int{0, 1, 2, 3}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p}, 200, 7, DefaultNoise(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p}, 200, 7, DefaultNoise(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.PST[0] != b.PST[0] {
		t.Fatalf("same seed gave %v vs %v", a.PST[0], b.PST[0])
	}
}

func TestBridgedScheduleSemanticsMatchSwapped(t *testing.T) {
	// The 4-CNOT bridge must implement exactly the same unitary as the
	// SWAP-based route: identical noiseless modal outcomes, PST 1.
	d := arch.Linear(3, 0.02, 0.02)
	p := circuit.New("p", 2)
	p.X(0).CX(0, 1).MeasureAll() // |1> control -> target flips

	swapOpts := router.DefaultOptions()
	bridgeOpts := router.DefaultOptions()
	bridgeOpts.UseBridge = true

	run := func(opts router.Options) (string, float64, int) {
		s, err := router.Route(d, []*circuit.Circuit{p}, [][]int{{0, 2}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		out, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p}, 50, 1, NoiseModel{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out.Correct[0], out.PST[0], s.BridgeCount
	}
	swCorrect, swPST, swBridges := run(swapOpts)
	brCorrect, brPST, brBridges := run(bridgeOpts)
	if swBridges != 0 || brBridges != 1 {
		t.Fatalf("bridge counts = %d, %d", swBridges, brBridges)
	}
	if swPST != 1 || brPST != 1 {
		t.Fatalf("noiseless PSTs = %v, %v", swPST, brPST)
	}
	if swCorrect != brCorrect || brCorrect != "11" {
		t.Fatalf("outcomes differ: swap=%q bridge=%q (want 11)", swCorrect, brCorrect)
	}
}

func TestInterProgramBridgeRestoresOtherProgram(t *testing.T) {
	// Bridging through another program's qubit must leave that
	// program's state untouched (noiseless PST 1 for both).
	d := arch.Grid(2, 2, 0.02, 0.02)
	p1 := circuit.New("p1", 2)
	p1.X(0).CX(0, 1).MeasureAll()
	p2 := circuit.New("p2", 1)
	p2.X(0).Measure(0)
	opts := router.DefaultOptions()
	opts.UseBridge = true
	opts.InterProgram = true
	s, err := router.Route(d, []*circuit.Circuit{p1, p2}, [][]int{{0, 3}, {1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p1, p2}, 50, 2, NoiseModel{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.PST[0] != 1 || out.PST[1] != 1 {
		t.Fatalf("noiseless PSTs = %v", out.PST)
	}
	if out.Correct[0] != "11" || out.Correct[1] != "1" {
		t.Fatalf("outcomes = %v", out.Correct)
	}
}

func TestExtraBenchmarkIdealOutputs(t *testing.T) {
	cases := map[string]struct {
		want    string
		minProb float64
	}{
		"grover_n2": {"11", 0.99},   // Grover finds the marked state
		"dj_n4":     {"1110", 0.99}, // balanced oracle -> data all ones
		"adder_n4":  {"1101", 0.99}, // 1+1+0 = 0 carry 1 (a,b,sum,cout)
		"ghz_n4":    {"0000", 0.45}, // GHZ: 50/50 split; modal = zeros
		"wstate_n3": {"100", 0.30},  // W state: three equal outcomes
	}
	for name, tc := range cases {
		out, prob, err := SimulateIdeal(nisqbench.MustGet(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out != tc.want {
			t.Errorf("%s ideal = %q, want %q (prob %v)", name, out, tc.want, prob)
		}
		if prob < tc.minProb {
			t.Errorf("%s modal prob = %v, want >= %v", name, prob, tc.minProb)
		}
	}
}

func TestPSTMonotonicInGateError(t *testing.T) {
	// Fixing everything but the CNOT error rate, PST must fall as the
	// links get worse (deterministic seeds, wide spacing).
	p := nisqbench.MustGet("toffoli_3")
	prev := 1.1
	for _, cnotErr := range []float64{0.005, 0.03, 0.09} {
		d := arch.Linear(3, cnotErr, 0.01)
		s, err := router.RouteSingle(d, p, []int{0, 1, 2}, router.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		out, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p}, 1200, 17, DefaultNoise(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.PST[0] >= prev {
			t.Fatalf("PST %v at cnotErr %v did not fall below %v", out.PST[0], cnotErr, prev)
		}
		prev = out.PST[0]
	}
}

func TestPSTMonotonicInReadoutError(t *testing.T) {
	p := nisqbench.MustGet("bv_n3")
	prev := 1.1
	for _, roErr := range []float64{0.01, 0.06, 0.15} {
		d := arch.Linear(3, 0.01, roErr)
		s, err := router.RouteSingle(d, p, []int{0, 1, 2}, router.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		out, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p}, 1200, 23, DefaultNoise(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.PST[0] >= prev {
			t.Fatalf("PST %v at readout %v did not fall below %v", out.PST[0], roErr, prev)
		}
		prev = out.PST[0]
	}
}
