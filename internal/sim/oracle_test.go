package sim

// Reference implementations the production engines are checked against;
// nothing outside the tests runs them.
//
//   - runTrial / runTrialT: the per-layer interpreters that re-resolve
//     gate names, crosstalk and busy sets every trial. Oracles for
//     TestCompiledTrialMatchesLegacy{Statevector,Tableau} and
//     TestCompiledMatchesLegacyWithMatrix.
//   - tableau: the boolean Aaronson-Gottesman tableau. Oracle for
//     TestPackedMatchesBooleanTableau and TestTableauMatchesStatevector,
//     baseline of BenchmarkPackedVsBooleanTableau.
//   - cliffordBackend and ptab.applyCliffordGate: the by-name gate
//     interface runTrialT and the tableau benchmarks drive both
//     tableaus through.

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// runTrial executes all layers on st (without final measurements),
// injecting stochastic errors per the noise model.
func runTrial(st *state, d *arch.Device, lay *layered, noise NoiseModel, rng *rand.Rand) error {
	for _, layer := range lay.layers {
		// Count CNOT-layer adjacency for crosstalk.
		cnotEdges := layer2qEdges(d, layer, noise)
		busy := map[int]bool{}
		for _, op := range layer {
			g := op.Gate
			for _, q := range g.Qubits {
				busy[q] = true
			}
			switch {
			case g.Name == circuit.GateSWAP:
				a, b := lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]]
				st.applySWAP(a, b)
				if noise.Enabled {
					// Three physical CNOTs' worth of error on the link.
					errRate := effective2qErr(d, noise, cnotEdges, g.Qubits[0], g.Qubits[1])
					for k := 0; k < 3; k++ {
						if rng.Float64() < errRate {
							st.injectPauli(pick2(a, b, rng), rng)
						}
					}
				}
			case g.Name == circuit.GateCX:
				c, t := lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]]
				st.applyCNOT(c, t)
				if noise.Enabled {
					errRate := effective2qErr(d, noise, cnotEdges, g.Qubits[0], g.Qubits[1])
					if rng.Float64() < errRate {
						st.injectPauli(pick2(c, t, rng), rng)
					}
				}
			case g.Name == circuit.GateCZ:
				a, b := lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]]
				st.applyCZ(a, b)
				if noise.Enabled {
					if rng.Float64() < d.CNOTError(g.Qubits[0], g.Qubits[1]) {
						st.injectPauli(pick2(a, b, rng), rng)
					}
				}
			case g.IsMeasure() || g.IsBarrier():
				// Measures are deferred; barriers are no-ops here.
			default:
				m, err := gateMatrix(g)
				if err != nil {
					return err
				}
				q := lay.compact[g.Qubits[0]]
				st.apply1q(m, q)
				if noise.Enabled && rng.Float64() < d.Gate1Err[g.Qubits[0]] {
					st.injectPauli(q, rng)
				}
			}
		}
		if noise.Enabled && noise.IdleErrPerLayer > 0 {
			for _, q := range lay.active {
				if !busy[q] && rng.Float64() < noise.IdleErrPerLayer {
					st.decay(lay.compact[q], rng)
				}
			}
		}
	}
	return nil
}

// cliffordBackend is satisfied by both stabilizer implementations: the
// boolean reference tableau and the bit-packed ptab. The direct gate
// methods let the compiled hot path (hotpath.go) dispatch on a small op
// kind instead of re-resolving gate names per trial.
type cliffordBackend interface {
	applyCliffordGate(g circuit.Gate, qmap func(int) int) error
	injectPauliT(q int, rng *rand.Rand)
	decayT(q int, rng *rand.Rand)
	measure(q int, pick func() bool) int
	h(q int)
	s(q int)
	sdg(q int)
	xg(q int)
	yg(q int)
	zg(q int)
	cx(c, t int)
	cz(a, b int)
	swap(a, b int)
}

// runTrialT is runTrial over a stabilizer backend.
func runTrialT(tb cliffordBackend, d *arch.Device, lay *layered, noise NoiseModel, rng *rand.Rand) error {
	qmapOf := func(g circuit.Gate) func(int) int {
		return func(q int) int { return lay.compact[q] }
	}
	for _, layer := range lay.layers {
		cnotEdges := layer2qEdges(d, layer, noise)
		busy := map[int]bool{}
		for _, op := range layer {
			g := op.Gate
			if g.IsMeasure() || g.IsBarrier() {
				continue
			}
			for _, q := range g.Qubits {
				busy[q] = true
			}
			if err := tb.applyCliffordGate(g, qmapOf(g)); err != nil {
				return err
			}
			if !noise.Enabled {
				continue
			}
			switch {
			case g.Name == circuit.GateSWAP:
				errRate := effective2qErr(d, noise, cnotEdges, g.Qubits[0], g.Qubits[1])
				for k := 0; k < 3; k++ {
					if rng.Float64() < errRate {
						tb.injectPauliT(pick2(lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]], rng), rng)
					}
				}
			case g.IsTwoQubit():
				errRate := effective2qErr(d, noise, cnotEdges, g.Qubits[0], g.Qubits[1])
				if rng.Float64() < errRate {
					tb.injectPauliT(pick2(lay.compact[g.Qubits[0]], lay.compact[g.Qubits[1]], rng), rng)
				}
			default:
				if rng.Float64() < d.Gate1Err[g.Qubits[0]] {
					tb.injectPauliT(lay.compact[g.Qubits[0]], rng)
				}
			}
		}
		if noise.Enabled && noise.IdleErrPerLayer > 0 {
			for _, q := range lay.active {
				if !busy[q] && rng.Float64() < noise.IdleErrPerLayer {
					tb.decayT(lay.compact[q], rng)
				}
			}
		}
	}
	return nil
}

// tableau is an Aaronson-Gottesman stabilizer tableau over n qubits:
// rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers; each row is
// a Pauli string (x/z bit per qubit) with a sign bit r. It simulates
// Clifford circuits (h, s, cx and everything derived from them) in
// O(n^2) per gate regardless of entanglement — the engine behind
// 50-qubit fidelity estimation for Clifford workloads.
type tableau struct {
	n    int
	x, z [][]bool
	r    []bool
}

func newTableau(n int) *tableau {
	t := &tableau{
		n: n,
		x: make([][]bool, 2*n),
		z: make([][]bool, 2*n),
		r: make([]bool, 2*n),
	}
	for i := 0; i < 2*n; i++ {
		t.x[i] = make([]bool, n)
		t.z[i] = make([]bool, n)
	}
	for q := 0; q < n; q++ {
		t.x[q][q] = true   // destabilizer X_q
		t.z[n+q][q] = true // stabilizer Z_q
	}
	return t
}

// h applies a Hadamard to qubit q.
func (t *tableau) h(q int) {
	for i := 0; i < 2*t.n; i++ {
		if t.x[i][q] && t.z[i][q] {
			t.r[i] = !t.r[i]
		}
		t.x[i][q], t.z[i][q] = t.z[i][q], t.x[i][q]
	}
}

// s applies the phase gate S to qubit q.
func (t *tableau) s(q int) {
	for i := 0; i < 2*t.n; i++ {
		if t.x[i][q] && t.z[i][q] {
			t.r[i] = !t.r[i]
		}
		t.z[i][q] = t.z[i][q] != t.x[i][q]
	}
}

// sdg applies S-dagger (S three times).
func (t *tableau) sdg(q int) { t.s(q); t.s(q); t.s(q) }

// cx applies a CNOT with control c and target tq.
func (t *tableau) cx(c, tq int) {
	for i := 0; i < 2*t.n; i++ {
		// Sign update: r ^= x_c & z_t & (x_t XNOR z_c).
		if t.x[i][c] && t.z[i][tq] && (t.x[i][tq] == t.z[i][c]) {
			t.r[i] = !t.r[i]
		}
		t.x[i][tq] = t.x[i][tq] != t.x[i][c]
		t.z[i][c] = t.z[i][c] != t.z[i][tq]
	}
}

// xg applies Pauli X (H Z H = H S S H).
func (t *tableau) xg(q int) { t.h(q); t.zg(q); t.h(q) }

// zg applies Pauli Z (S S).
func (t *tableau) zg(q int) { t.s(q); t.s(q) }

// yg applies Pauli Y (= iXZ up to global phase: Z then X).
func (t *tableau) yg(q int) { t.zg(q); t.xg(q) }

// cz applies a controlled-Z (H on target sandwiching a CNOT).
func (t *tableau) cz(a, b int) { t.h(b); t.cx(a, b); t.h(b) }

// swap applies a SWAP (three CNOTs).
func (t *tableau) swap(a, b int) { t.cx(a, b); t.cx(b, a); t.cx(a, b) }

// gFunc returns the exponent contribution (mod 4) of multiplying two
// single-qubit Paulis given their x/z bits (Aaronson-Gottesman g).
func gFunc(x1, z1, x2, z2 bool) int {
	switch {
	case !x1 && !z1:
		return 0
	case x1 && z1: // Y
		return b2i(z2) - b2i(x2)
	case x1 && !z1: // X
		return b2i(z2) * (2*b2i(x2) - 1)
	default: // Z
		return b2i(x2) * (1 - 2*b2i(z2))
	}
}

// rowsum sets row h to row h * row i (Pauli product with sign tracking).
func (t *tableau) rowsum(h, i int) {
	sum := 2*b2i(t.r[h]) + 2*b2i(t.r[i])
	for q := 0; q < t.n; q++ {
		sum += gFunc(t.x[i][q], t.z[i][q], t.x[h][q], t.z[h][q])
	}
	sum = ((sum % 4) + 4) % 4
	t.r[h] = sum == 2
	for q := 0; q < t.n; q++ {
		t.x[h][q] = t.x[h][q] != t.x[i][q]
		t.z[h][q] = t.z[h][q] != t.z[i][q]
	}
}

// measure performs a Z-basis measurement of qubit q. When the outcome
// is random, pick picks it (rng-based for trials; "always 0" for the
// reference outcome).
func (t *tableau) measure(q int, pick func() bool) int {
	n := t.n
	p := -1
	for i := n; i < 2*n; i++ {
		if t.x[i][q] {
			p = i
			break
		}
	}
	if p >= 0 {
		// Random outcome.
		for i := 0; i < 2*n; i++ {
			if i != p && t.x[i][q] {
				t.rowsum(i, p)
			}
		}
		copy(t.x[p-n], t.x[p])
		copy(t.z[p-n], t.z[p])
		t.r[p-n] = t.r[p]
		for k := 0; k < n; k++ {
			t.x[p][k] = false
			t.z[p][k] = false
		}
		t.z[p][q] = true
		outcome := pick()
		t.r[p] = outcome
		return b2i(outcome)
	}
	// Deterministic outcome: accumulate into a scratch row.
	sx := make([]bool, n)
	sz := make([]bool, n)
	sr := false
	for i := 0; i < n; i++ {
		if t.x[i][q] {
			// rowsum(scratch, i+n) inline.
			sum := 2*b2i(sr) + 2*b2i(t.r[i+n])
			for k := 0; k < n; k++ {
				sum += gFunc(t.x[i+n][k], t.z[i+n][k], sx[k], sz[k])
			}
			sum = ((sum % 4) + 4) % 4
			sr = sum == 2
			for k := 0; k < n; k++ {
				sx[k] = sx[k] != t.x[i+n][k]
				sz[k] = sz[k] != t.z[i+n][k]
			}
		}
	}
	return b2i(sr)
}

// applyCliffordGate applies a named gate to the tableau; it errors on
// non-Clifford gates.
func (t *tableau) applyCliffordGate(g circuit.Gate, qmap func(int) int) error {
	q := func(i int) int { return qmap(g.Qubits[i]) }
	switch g.Name {
	case circuit.GateH:
		t.h(q(0))
	case circuit.GateX:
		t.xg(q(0))
	case circuit.GateY:
		t.yg(q(0))
	case circuit.GateZ:
		t.zg(q(0))
	case circuit.GateS:
		t.s(q(0))
	case circuit.GateSdg:
		t.sdg(q(0))
	case circuit.GateCX:
		t.cx(q(0), q(1))
	case circuit.GateCZ:
		t.cz(q(0), q(1))
	case circuit.GateSWAP:
		t.swap(q(0), q(1))
	default:
		return fmt.Errorf("sim: gate %q is not Clifford", g.Name)
	}
	return nil
}

// injectPauliT applies a uniformly random non-identity Pauli.
func (t *tableau) injectPauliT(q int, rng *rand.Rand) {
	switch rng.Intn(3) {
	case 0:
		t.xg(q)
	case 1:
		t.yg(q)
	default:
		t.zg(q)
	}
}

// decayT is the tableau counterpart of state.decay: projective Z
// measurement followed by relaxation of |1> to |0>.
func (t *tableau) decayT(q int, rng *rand.Rand) {
	if t.measure(q, func() bool { return rng.Intn(2) == 1 }) == 1 {
		t.xg(q)
	}
}

// applyCliffordGate applies a named Clifford gate (same contract as the
// boolean tableau's method).
func (t *ptab) applyCliffordGate(g circuit.Gate, qmap func(int) int) error {
	q := func(i int) int { return qmap(g.Qubits[i]) }
	switch g.Name {
	case circuit.GateH:
		t.h(q(0))
	case circuit.GateX:
		t.xg(q(0))
	case circuit.GateY:
		t.yg(q(0))
	case circuit.GateZ:
		t.zg(q(0))
	case circuit.GateS:
		t.s(q(0))
	case circuit.GateSdg:
		t.sdg(q(0))
	case circuit.GateCX:
		t.cx(q(0), q(1))
	case circuit.GateCZ:
		t.cz(q(0), q(1))
	case circuit.GateSWAP:
		t.swap(q(0), q(1))
	default:
		return errNotClifford(g.Name)
	}
	return nil
}

func errNotClifford(name string) error {
	return &notCliffordError{name}
}

type notCliffordError struct{ gate string }

func (e *notCliffordError) Error() string { return "sim: gate " + e.gate + " is not Clifford" }
