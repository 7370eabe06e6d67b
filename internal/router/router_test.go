package router

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/nisqbench"
	"repro/internal/partition"
)

// routeAndCheck routes and validates the schedule, returning it.
func routeAndCheck(t *testing.T, d *arch.Device, progs []*circuit.Circuit, initial [][]int, opts Options) *Schedule {
	t.Helper()
	s, err := Route(d, progs, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(progs, initial); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRouteAlreadyCompliant(t *testing.T) {
	d := arch.Linear(3, 0.02, 0.02)
	p := circuit.New("p", 2)
	p.H(0).CX(0, 1).MeasureAll()
	s := routeAndCheck(t, d, []*circuit.Circuit{p}, [][]int{{0, 1}}, DefaultOptions())
	if s.SwapCount != 0 {
		t.Fatalf("swaps = %d, want 0", s.SwapCount)
	}
	if len(s.Measurements) != 2 {
		t.Fatalf("measurements = %d", len(s.Measurements))
	}
}

func TestRouteNeedsOneSwap(t *testing.T) {
	// cx between ends of a 3-qubit path: one SWAP suffices.
	d := arch.Linear(3, 0.02, 0.02)
	p := circuit.New("p", 2)
	p.CX(0, 1)
	s := routeAndCheck(t, d, []*circuit.Circuit{p}, [][]int{{0, 2}}, DefaultOptions())
	if s.SwapCount != 1 {
		t.Fatalf("swaps = %d, want 1", s.SwapCount)
	}
}

func TestRouteMeasurementTracksQubit(t *testing.T) {
	d := arch.Linear(3, 0.02, 0.02)
	p := circuit.New("p", 2)
	p.CX(0, 1).Measure(0).Measure(1)
	s := routeAndCheck(t, d, []*circuit.Circuit{p}, [][]int{{0, 2}}, DefaultOptions())
	// After routing, each logical qubit's measurement must be on its
	// final physical position (Validate checks internal consistency;
	// here check measurements cover both logicals).
	got := map[int]bool{}
	for _, m := range s.Measurements {
		got[m.Logical] = true
	}
	if !got[0] || !got[1] {
		t.Fatalf("measurements = %+v", s.Measurements)
	}
}

// TestFigure6InterProgramSwap reproduces the paper's Figure 6: two
// 2-program workloads on a 6-qubit chip where X-SWAP needs a single
// inter-program SWAP while intra-only routing needs two.
//
// Chip (2x3 grid):   1 - 2 - 3
//
//	|   |   |
//	4 - 5 - 6      (we use 0-based 0..5)
//
// P1 on {q1,q2,q3} = phys {0,1,2}, P2 on {q4,q5,q6} = phys {3,4,5}.
// P1: cx(a,b); cx(b,c); cx(a,c)  -> g3 = cx(a,c) blocked (0 and 2 apart)
// P2: cx(d,e); cx(e,f); cx(d,f)  -> g6 = cx(d,f) blocked
func figure6() (*arch.Device, []*circuit.Circuit, [][]int) {
	d := arch.Grid(2, 3, 0.02, 0.02)
	p1 := circuit.New("P1", 3)
	p1.CX(0, 1).CX(1, 2).CX(0, 2)
	p2 := circuit.New("P2", 3)
	p2.CX(0, 1).CX(1, 2).CX(0, 2)
	// P1 left-to-right on the top row, P2 on the bottom row.
	return d, []*circuit.Circuit{p1, p2}, [][]int{{0, 1, 2}, {3, 4, 5}}
}

func TestFigure6InterProgramSwap(t *testing.T) {
	d, progs, initial := figure6()
	intra := routeAndCheck(t, d, progs, initial, DefaultOptions())
	xswap := routeAndCheck(t, d, progs, initial, XSWAPOptions())
	if intra.InterSwapCount != 0 {
		t.Fatalf("intra-only routing performed %d inter-program swaps", intra.InterSwapCount)
	}
	if xswap.SwapCount > intra.SwapCount {
		t.Fatalf("X-SWAP used %d swaps, intra-only %d; X-SWAP must not be worse", xswap.SwapCount, intra.SwapCount)
	}
	if intra.SwapCount < 2 {
		t.Fatalf("intra-only swaps = %d, want >= 2 (one per program)", intra.SwapCount)
	}
	if xswap.SwapCount > 1 && xswap.InterSwapCount == 0 {
		t.Logf("note: X-SWAP solved with %d intra swaps", xswap.SwapCount)
	}
}

// TestFigure10Shortcut reproduces Figure 10: on a 3x3 grid, an
// inter-program SWAP reaches a blocked CNOT in 1 SWAP where intra-only
// routing needs 3.
//
// Grid phys:  0 1 2
//
//	3 4 5
//	6 7 8
//
// P1 holds the U-shaped region {0, 3, 6, 7, 8, 5, 2}; its blocked CNOT
// endpoints sit at phys 0 and 2, whose only intra-region path is the
// 6-hop walk around the U, while the global shortest path (through P2's
// territory at phys 1) is 2 hops: one inter-program SWAP suffices.
func TestFigure10Shortcut(t *testing.T) {
	d := arch.Grid(3, 3, 0.02, 0.02)
	p1 := circuit.New("P1", 7)
	p1.CX(0, 6) // logical 0 at phys 0, logical 6 at phys 2: blocked
	p2 := circuit.New("P2", 2)
	p2.CX(0, 1) // at phys 1,4: compliant immediately
	initial := [][]int{{0, 3, 6, 7, 8, 5, 2}, {1, 4}}
	intra := routeAndCheck(t, d, []*circuit.Circuit{p1, p2}, initial, DefaultOptions())
	xswap := routeAndCheck(t, d, []*circuit.Circuit{p1, p2}, initial, XSWAPOptions())
	if xswap.SwapCount >= intra.SwapCount {
		t.Fatalf("X-SWAP swaps = %d, intra = %d; shortcut must win", xswap.SwapCount, intra.SwapCount)
	}
	if xswap.InterSwapCount == 0 {
		t.Fatal("X-SWAP must use an inter-program swap for the shortcut")
	}
}

func TestRouteTwoProgramsOnIBMQ16(t *testing.T) {
	d := arch.IBMQ16(0)
	tree := community.Build(d, 0.95)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("bv_n4"),
		nisqbench.MustGet("toffoli_3"),
	}
	res, err := partition.CDAP(d, tree, progs)
	if err != nil {
		t.Fatal(err)
	}
	initial := [][]int{res.Assignments[0].InitialMapping, res.Assignments[1].InitialMapping}
	for _, opts := range []Options{DefaultOptions(), XSWAPOptions()} {
		s := routeAndCheck(t, d, progs, initial, opts)
		if len(s.Measurements) != 7 {
			t.Fatalf("measurements = %d, want 7", len(s.Measurements))
		}
	}
}

func TestRouteLargeWorkloadOnIBMQ50(t *testing.T) {
	d := arch.IBMQ50(0)
	tree := community.Build(d, 0.40)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("aj-e11_165"),
		nisqbench.MustGet("4gt4-v0_72"),
		nisqbench.MustGet("ham7_104"),
		nisqbench.MustGet("sys6-v0_111"),
	}
	res, err := partition.CDAP(d, tree, progs)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([][]int, len(progs))
	for i, a := range res.Assignments {
		initial[i] = a.InitialMapping
	}
	s := routeAndCheck(t, d, progs, initial, XSWAPOptions())
	if s.CNOTCount() == 0 || s.Depth() == 0 {
		t.Fatal("schedule must have gates")
	}
}

func TestRouteErrors(t *testing.T) {
	d := arch.Linear(3, 0.02, 0.02)
	p := circuit.New("p", 2)
	p.CX(0, 1)
	if _, err := Route(d, []*circuit.Circuit{p}, nil, DefaultOptions()); err == nil {
		t.Fatal("mapping count mismatch must error")
	}
	if _, err := Route(d, []*circuit.Circuit{p}, [][]int{{0}}, DefaultOptions()); err == nil {
		t.Fatal("short mapping must error")
	}
	if _, err := Route(d, []*circuit.Circuit{p}, [][]int{{0, 9}}, DefaultOptions()); err == nil {
		t.Fatal("out-of-range mapping must error")
	}
	if _, err := Route(d, []*circuit.Circuit{p, p}, [][]int{{0, 1}, {1, 2}}, DefaultOptions()); err == nil {
		t.Fatal("overlapping mappings must error")
	}
}

func TestScheduleCNOTAndDepthAccounting(t *testing.T) {
	d := arch.Linear(3, 0.02, 0.02)
	p := circuit.New("p", 2)
	p.CX(0, 1)
	s := routeAndCheck(t, d, []*circuit.Circuit{p}, [][]int{{0, 2}}, DefaultOptions())
	// 1 swap (3 CNOTs) + 1 cx = 4 CNOTs.
	if got := s.CNOTCount(); got != 4 {
		t.Fatalf("CNOTs = %d, want 4", got)
	}
	if got := s.Depth(); got != 4 {
		t.Fatalf("depth = %d, want 4", got)
	}
}

func TestDeterminismWithSameSeed(t *testing.T) {
	d := arch.IBMQ16(0)
	p := nisqbench.MustGet("alu-v0_27")
	m := RandomInitialMapping(d, p, 7)
	s1, err := RouteSingle(d, p, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RouteSingle(d, p, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s1.SwapCount != s2.SwapCount || len(s1.Ops) != len(s2.Ops) {
		t.Fatal("same seed must give identical schedules")
	}
}

func TestReverseTraversalImprovesOrMatches(t *testing.T) {
	d := arch.IBMQ16(1)
	p := nisqbench.MustGet("3_17_13")
	opts := DefaultOptions()
	start := RandomInitialMapping(d, p, 42)
	before, err := RouteSingle(d, stripMeasures(p), start, opts)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := ReverseTraversal(d, p, start, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	after, err := RouteSingle(d, stripMeasures(p), refined, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.SwapCount > before.SwapCount+2 {
		t.Fatalf("reverse traversal regressed swaps: %d -> %d", before.SwapCount, after.SwapCount)
	}
}

func TestNoisePenaltyAvoidsWeakLink(t *testing.T) {
	// Square: 0-1, 1-3, 0-2, 2-3. Logical pair at 0 and 3; both 2-hop
	// routes; one route's link is terrible. The noise-aware router
	// should swap over the good side.
	d := arch.Grid(2, 2, 0.02, 0.02)
	// Edges: (0,1),(0,2),(1,3),(2,3). Make 0-1 and 1-3 awful.
	for _, e := range d.Coupling.Edges() {
		if e.U == 1 || e.V == 1 {
			d.CNOTErr[e] = 0.4
		}
	}
	p := circuit.New("p", 2)
	p.CX(0, 1)
	opts := DefaultOptions()
	opts.NoisePenalty = 5
	s := routeAndCheck(t, d, []*circuit.Circuit{p}, [][]int{{0, 3}}, opts)
	for _, op := range s.Ops {
		if op.IsSwap {
			a, b := op.Gate.Qubits[0], op.Gate.Qubits[1]
			if a == 1 || b == 1 {
				t.Fatalf("noise-aware route swapped across the weak qubit 1: %v", op.Gate)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := arch.Linear(3, 0.02, 0.02)
	p := circuit.New("p", 2)
	p.CX(0, 1)
	s := routeAndCheck(t, d, []*circuit.Circuit{p}, [][]int{{0, 2}}, DefaultOptions())
	// Corrupt: retarget the cx op onto uncoupled qubits.
	for i := range s.Ops {
		if !s.Ops[i].IsSwap && s.Ops[i].Gate.IsCNOT() {
			s.Ops[i].Gate = circuit.Gate{Name: circuit.GateCX, Qubits: []int{0, 2}}
		}
	}
	if err := s.Validate([]*circuit.Circuit{p}, [][]int{{0, 2}}); err == nil {
		t.Fatal("Validate must reject op on uncoupled qubits")
	}
}

func TestXSWAPOnSingleProgramEqualsSABRE(t *testing.T) {
	// With one program there are no inter-program swaps; X-SWAP must
	// still terminate and produce a valid schedule.
	d := arch.IBMQ16(0)
	p := nisqbench.MustGet("mod5mils_65")
	m := RandomInitialMapping(d, p, 3)
	s := routeAndCheck(t, d, []*circuit.Circuit{p}, [][]int{m}, XSWAPOptions())
	if s.InterSwapCount != 0 {
		t.Fatalf("single program produced %d inter swaps", s.InterSwapCount)
	}
}
