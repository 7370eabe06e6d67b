package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/fp"
	"repro/internal/graph"
	"repro/internal/router"
)

// --- scalar-model adjacency on hand-built layers (satellite audit) ---

// TestCrosstalkAdjacentSelfSkip pins the self-adjacency rule the audit
// targeted: a link never counts as its own aggressor, in either
// orientation, while genuinely adjacent links do.
func TestCrosstalkAdjacentSelfSkip(t *testing.T) {
	d := arch.IBMQ16(0)
	self := graph.NewEdge(0, 1)
	cases := []struct {
		name  string
		edges []graph.Edge
		want  bool
	}{
		{"alone", []graph.Edge{self}, false},
		{"alone reversed orientation", []graph.Edge{{U: 1, V: 0}}, false},
		{"duplicate of itself", []graph.Edge{self, self, {U: 1, V: 0}}, false},
		{"shared-qubit neighbor", []graph.Edge{self, graph.NewEdge(1, 2)}, true},
		{"coupled neighbor", []graph.Edge{self, graph.NewEdge(2, 3)}, true},
		{"distant link", []graph.Edge{self, graph.NewEdge(7, 8)}, false},
	}
	for _, tc := range cases {
		if got := crosstalkAdjacent(d, tc.edges, 0, 1); got != tc.want {
			t.Errorf("%s: crosstalkAdjacent = %v, want %v", tc.name, got, tc.want)
		}
		// Orientation of the victim must not matter either.
		if got := crosstalkAdjacent(d, tc.edges, 1, 0); got != tc.want {
			t.Errorf("%s (victim reversed): crosstalkAdjacent = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEffective2qErrScalarModel checks the scalar fallback reproduces
// the legacy arithmetic exactly: base error, multiplied by
// 1+CrosstalkFactor only when an adjacent link co-fires.
func TestEffective2qErrScalarModel(t *testing.T) {
	d := arch.IBMQ16(0)
	noise := DefaultNoise()
	base := d.CNOTError(0, 1)
	if got := effective2qErr(d, noise, nil, 0, 1); got != base {
		t.Errorf("no layer edges: got %v, want base %v", got, base)
	}
	withAdj := effective2qErr(d, noise, []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(2, 3)}, 0, 1)
	if withAdj != base*(1+noise.CrosstalkFactor) {
		t.Errorf("adjacent co-fire: got %v, want %v", withAdj, base*(1+noise.CrosstalkFactor))
	}
	noise.CrosstalkFactor = 0
	if got := effective2qErr(d, noise, []graph.Edge{graph.NewEdge(2, 3)}, 0, 1); got != base {
		t.Errorf("zero factor: got %v, want base %v", got, base)
	}
}

// TestEffective2qErrMatrixSupersedesScalar checks the matrix path: the
// characterized conditional error replaces the base rate outright and
// the scalar factor is ignored, including for uncharacterized pairs.
func TestEffective2qErrMatrixSupersedesScalar(t *testing.T) {
	d := arch.IBMQ16(0)
	v, a := graph.NewEdge(0, 1), graph.NewEdge(2, 3)
	base := d.CNOTError(0, 1)
	cond := base * 3
	d.Crosstalk = arch.CrosstalkMatrix{arch.EdgePair{Victim: v, Aggressor: a}: cond}
	noise := DefaultNoise() // scalar factor 0.3 must be ignored
	if got := effective2qErr(d, noise, []graph.Edge{v, a}, 0, 1); got != cond {
		t.Errorf("characterized pair: got %v, want conditional %v", got, cond)
	}
	// Reversed orientations key the same entry.
	if got := effective2qErr(d, noise, []graph.Edge{{U: 3, V: 2}}, 1, 0); got != cond {
		t.Errorf("reversed orientations: got %v, want %v", got, cond)
	}
	// Uncharacterized co-fire: base error, NOT base*(1+factor).
	if got := effective2qErr(d, noise, []graph.Edge{graph.NewEdge(5, 6)}, 0, 1); got != base {
		t.Errorf("uncharacterized pair: got %v, want base %v", got, base)
	}
	// The victim alone in the layer (any orientation): base error.
	if got := effective2qErr(d, noise, []graph.Edge{{U: 1, V: 0}}, 0, 1); got != base {
		t.Errorf("self only: got %v, want base %v", got, base)
	}
}

// TestLayer2qEdgesGating checks the per-layer edge scan runs exactly
// when some crosstalk model needs it — in particular that a pairwise
// matrix activates it even with the scalar factor disabled.
func TestLayer2qEdgesGating(t *testing.T) {
	d := arch.IBMQ16(0)
	layer := []router.Op{
		{Program: 0, Gate: circuit.Gate{Name: circuit.GateCX, Qubits: []int{0, 1}}},
		{Program: 0, Gate: circuit.Gate{Name: circuit.GateH, Qubits: []int{2}}},
		{Program: 1, Gate: circuit.Gate{Name: circuit.GateSWAP, Qubits: []int{5, 6}}, IsSwap: true},
	}
	want := []graph.Edge{graph.NewEdge(0, 1), graph.NewEdge(5, 6)}
	if got := layer2qEdges(nil, d, layer, DefaultNoise()); !reflect.DeepEqual(got, want) {
		t.Errorf("scalar model: got %v, want %v", got, want)
	}
	off := DefaultNoise()
	off.Enabled = false
	if got := layer2qEdges(nil, d, layer, off); got != nil {
		t.Errorf("noise disabled: got %v, want nil", got)
	}
	noFactor := DefaultNoise()
	noFactor.CrosstalkFactor = 0
	if got := layer2qEdges(nil, d, layer, noFactor); got != nil {
		t.Errorf("no crosstalk model: got %v, want nil", got)
	}
	d.Crosstalk = arch.GenerateCrosstalk(d, 1)
	if got := layer2qEdges(nil, d, layer, noFactor); !reflect.DeepEqual(got, want) {
		t.Errorf("matrix with zero factor: got %v, want %v", got, want)
	}
}

// --- engine agreement with a matrix installed ---

// matrixDevice16 is IBMQ16 with an adversarial pairwise matrix.
func matrixDevice16(tb testing.TB, seed int64) *arch.Device {
	tb.Helper()
	d := arch.IBMQ16(0)
	d.Crosstalk = arch.GenerateHostileCrosstalk(d, seed, 0.3, 3, 5)
	if err := d.Validate(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestCompiledMatchesLegacyWithMatrix extends the compiled-vs-legacy
// contract to matrix-carrying devices: both engines' factored registers
// must measure what their joint oracles measure, draw for draw, when the
// pairwise conditional errors are in play.
func TestCompiledMatchesLegacyWithMatrix(t *testing.T) {
	d := matrixDevice16(t, 11)
	progs := []*circuit.Circuit{
		circuit.New("a", 2).H(0).CX(0, 1).MeasureAll(),
		circuit.New("b", 2).X(0).CX(0, 1).MeasureAll(),
	}
	s, err := router.Route(d, progs, [][]int{{0, 1}, {2, 3}}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	noise := DefaultNoise()
	jointMatchesFactored(t, "matrix pair", engineStatevector, d, s, noise, 5, 8)
	adjacent, _ := adjacentPair16(t, d)
	jointMatchesFactored(t, "matrix adjacentPair16", engineStatevector, d, adjacent, noise, 5, 8)
	corners, _ := corners16(t, d)
	jointMatchesFactored(t, "matrix corners16", engineStatevector, d, corners, noise, 5, 8)
	jointMatchesFactored(t, "matrix entangled", engineStatevector, d, entangledSchedule(t, d, 1, false), noise, 2, 6)
	jointMatchesFactored(t, "matrix pair", engineTableau, d, s, noise, 5, 8)
	jointMatchesFactored(t, "matrix corners16", engineTableau, d, corners, noise, 5, 8)
	jointMatchesFactored(t, "matrix entangled", engineTableau, d, entangledSchedule(t, d, 1, true), noise, 2, 6)
}

// TestMatrixCrosstalkLowersPST: co-firing on a hostile pair must cost
// fidelity versus the same device with the hostility removed.
func TestMatrixCrosstalkLowersPST(t *testing.T) {
	d := arch.IBMQ16(0)
	v, a := graph.NewEdge(0, 1), graph.NewEdge(2, 3)
	progs := []*circuit.Circuit{
		circuit.New("v", 2).CX(0, 1).CX(0, 1).CX(0, 1).CX(0, 1).MeasureAll(),
		circuit.New("a", 2).CX(0, 1).CX(0, 1).CX(0, 1).CX(0, 1).MeasureAll(),
	}
	s, err := router.Route(d, progs, [][]int{{v.U, v.V}, {a.U, a.V}}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	noise := DefaultNoise()
	noise.CrosstalkFactor = 0 // isolate the matrix's effect
	run := func(m arch.CrosstalkMatrix) float64 {
		d.Crosstalk = m
		out, err := SimulateScheduleCtx(context.Background(), d, s, progs, 3000, 7, noise, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out.PST[0]
	}
	hostile := run(arch.CrosstalkMatrix{
		arch.EdgePair{Victim: v, Aggressor: a}: 0.5,
		arch.EdgePair{Victim: a, Aggressor: v}: 0.5,
	})
	benign := run(nil)
	if hostile >= benign {
		t.Errorf("hostile matrix PST %v >= matrix-free PST %v", hostile, benign)
	}
	if benign-hostile < 0.2 {
		t.Errorf("hostility barely visible: %v vs %v", hostile, benign)
	}
}

// --- analytic ESP with a matrix (differential vs Monte-Carlo) ---

// TestAnalyticESPMatrixDifferential is the satellite differential test:
// on a small CX circuit pair placed on a hostile link pair, the
// analytic ESP computed with the matrix must track the Monte-Carlo PST
// computed with the same matrix — same ordering versus the benign
// placement, and the same ballpark magnitude (MC sees error
// cancellation and sub-unit Pauli visibility that the closed form
// ignores, so the bound is loose; exact agreement is asserted where it
// must hold: the matrix-free fallback).
func TestAnalyticESPMatrixDifferential(t *testing.T) {
	d := arch.IBMQ16(0)
	v, a := graph.NewEdge(0, 1), graph.NewEdge(2, 3)
	progs := []*circuit.Circuit{
		circuit.New("v", 2).CX(0, 1).CX(0, 1).MeasureAll(),
		circuit.New("a", 2).CX(0, 1).CX(0, 1).MeasureAll(),
	}
	s, err := router.Route(d, progs, [][]int{{v.U, v.V}, {a.U, a.V}}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	noise := DefaultNoise()
	noise.CrosstalkFactor = 0
	noise.IdleErrPerLayer = 0

	// Matrix-free fallback: installing no matrix must leave the ESP
	// bit-identical to the pre-matrix closed form.
	espFree, err := AnalyticESP(d, s, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Crosstalk = arch.CrosstalkMatrix{
		arch.EdgePair{Victim: v, Aggressor: a}: 0.2,
		arch.EdgePair{Victim: a, Aggressor: v}: 0.2,
	}
	espMat, err := AnalyticESP(d, s, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if espMat.PerProgram[0] >= espFree.PerProgram[0] {
		t.Fatalf("matrix did not lower ESP: %v vs %v", espMat.PerProgram[0], espFree.PerProgram[0])
	}

	out, err := SimulateScheduleCtx(context.Background(), d, s, progs, 4000, 3, noise, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if math.Abs(espMat.PerProgram[p]-out.PST[p]) > 0.15 {
			t.Errorf("program %d: matrix ESP %v far from matrix MC PST %v",
				p, espMat.PerProgram[p], out.PST[p])
		}
	}

	// Per-layer accounting sanity: each program runs 2 CNOTs that all
	// co-fire with the hostile neighbor, so the conditional error is
	// charged to every one of them. Expected gate factor: (1-0.2)^2
	// on top of readout; verify against the breakdown.
	for p := 0; p < 2; p++ {
		want := (1 - 0.2) * (1 - 0.2)
		if !fp.Eq(espMat.GateFactor[p], want) {
			t.Errorf("program %d: gate factor %v, want %v", p, espMat.GateFactor[p], want)
		}
	}
}
