package sim

// Trial-loop hot path: the Monte-Carlo engines execute the same layered
// schedule thousands of times, so everything that does not depend on
// the trial's random draws is resolved ONCE here — compact operand
// indices, per-op error rates with the crosstalk multiplier folded in,
// single-qubit gate matrices, per-layer idle-qubit lists — and the
// per-trial loop becomes a branch on a small op kind with zero map
// lookups and zero allocations.
//
// lowerGate is the only place a gate becomes an operation, and opKinds
// the only place a name becomes a kind: compileLayers, SimulateIdeal and
// CliffordOutcome all lower through it, and the tableau's entry points
// reject through opKinds (gateMatrix in state.go is the table of 2x2
// unitaries lowerGate looks single-qubit gates up in). The lowering is
// one for both engines, and so is its noise rule set (compileLayers):
// each compiled op carries its error rate and each layer its idle
// qubits. The package holds one engine per representation —
// runStatevector over the factored register, trial by trial, and the
// tableau's Pauli frames over a shard of trials against one noiseless
// runGates reference (frame.go), whose prepare lists the compiled rates
// as its lattice's sites.
//
// Both engines simulate what is entangled, not what is co-located: one
// factoring follows every wire's state through the SWAPs (a SWAP
// relabels) and unions the states CX and CZ couple; each register holds
// one dense state or packed tableau per component (DESIGN.md, "Factored
// register"). A statevector trial runs every gate of every component
// from |0...0>. The joint registers, the per-layer reference interpreters
// (runTrial, runTrialT), the boolean tableau and the tableau's per-trial
// contract v1 (runTableau) live in oracle_test.go, where
// TestCompiledTrialMatchesLegacy* and friends compare against them.
//
// Determinism contract: byte-identical PSTs for a given seed are a hard
// invariant (see DESIGN.md, "Hot-path memory discipline"). A compiled
// statevector program draws in exactly the same order, with the same
// outcomes, as the reference interpreter on the joint register does from
// the same seed. Its trial path draws from a splitmix64 stream
// (stream.go) and asks each "Float64() < p" as an integer compare against
// threshold(p), resolved here once per op, once per program for idle
// decay and once per plan point for readout; the joint interpreters draw
// from the tests' one-word-at-a-time splitmix64, so the oracle tests
// check the stream too. The tableau engine samples under contract v2 instead
// (frame.go, DESIGN.md §17): per shard an error lattice, then the picks.
// And when every program's measured components span at most
// maxExactQubits qubits and hold no other program's measured qubit, the
// statevector samples under contract v3 (exact.go, DESIGN.md §17): the
// trial loop never runs, and each shard draws program p's success count
// as n below(threshold(PST_p)) draws, program by program, PST_p being
// the exact PST the trial loop's estimate converges to.

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
)

// engineKind is monteCarlo's choice of engine: which reference run
// prepare makes and which register newRegister gives a shard. Everything
// before it — the lowering, its noise rule set and the factoring — is one
// for both engines.
type engineKind uint8

const (
	engineStatevector engineKind = iota
	engineTableau
)

// opKind is a compiled operation tag. Every single-qubit gate lowers to
// its named Clifford kind, or op1Q when it has none, and carries its
// matrix either way: the statevector applies the matrix, the tableau
// runs the named kind and rejects op1Q at its entry. opNone marks
// measurements and barriers, which carry no operation.
type opKind uint8

const (
	op1Q opKind = iota
	opNone
	opH
	opX
	opY
	opZ
	opS
	opSdg
	opCX
	opCZ
	opSWAP
)

// compiledOp is one gate with every trial-invariant input resolved:
// operand indices (slots of the factoring), the error rate with the
// crosstalk multiplier already applied, and the 1q unitary where
// relevant.
type compiledOp struct {
	kind opKind
	a, b int
	// err is the op's error rate, a site of the tableau's lattice
	// (prepareFrames); errT is threshold(err), the statevector's draw.
	// Both are only read when the compiled noise model is enabled.
	err  float64
	errT uint64
	// m is the 2x2 unitary of a single-qubit op.
	m [2][2]complex128
}

// compiledLayer is one depth layer plus the active qubits idle in it,
// indexed like the ops' operands (in lay.active order — the idle-error
// draw order).
type compiledLayer struct {
	ops  []compiledOp
	idle []int
}

// compiledProgram is a layered schedule lowered for either engine; the
// engine's prepare adds what only it reads.
type compiledProgram struct {
	layers []compiledLayer
	noise  NoiseModel
	idleT  uint64 // threshold(noise.IdleErrPerLayer)
	// fac maps wires to the operands the ops use: slots and their
	// components.
	fac    *factoring
	pstT   binomial   // the statevector's exact PSTs' thresholds, set by prepareExact
	frames *framePlan // the tableau's lattice and reference
}

// compileLayers lowers the layered schedule under the one noise rule set
// both engines sample: a one-qubit op errs at its qubit's rate, a
// two-qubit op (CX, CZ or a SWAP's three draws) at effective2qErr's, and
// a qubit idles in a layer unless a gate acts on it — a barrier is no
// gate. All gate-name resolution, crosstalk adjacency scans, busy-set and
// error arithmetic happen here, once, instead of once per trial — and so
// does the decision of what to simulate together.
func compileLayers(d *arch.Device, lay *layered, noise NoiseModel) (*compiledProgram, error) {
	fac := newFactoring(len(lay.active))
	cp := &compiledProgram{noise: noise, fac: fac, idleT: threshold(noise.IdleErrPerLayer), layers: make([]compiledLayer, 0, len(lay.layers))}
	busy := make([]bool, len(lay.active)) // per dense index: a gate acts on it in this layer
	// Every layer's ops and idle slots are cut from one array each.
	nops := 0
	for _, layer := range lay.layers {
		nops += len(layer)
	}
	ops := make([]compiledOp, 0, nops)
	idle := make([]int, 0, len(lay.layers)*len(lay.active))
	var edges []graph.Edge // this layer's two-qubit links, for crosstalk
	for _, layer := range lay.layers {
		var cl compiledLayer
		from := len(ops)
		// Crosstalk is a property of the layer, not the trial: collect
		// the two-qubit links once and fold the scalar multiplier or the
		// pairwise conditional error into each op's compiled rate.
		edges = layer2qEdges(edges, d, layer, noise)
		clear(busy)
		for _, op := range layer {
			g := op.Gate
			co, err := lowerGate(g)
			if err != nil {
				return nil, err
			}
			if co.kind == opNone {
				continue // measurements are deferred to the plan
			}
			for _, q := range g.Qubits {
				busy[lay.compact[q]] = true
			}
			co.a = lay.compact[co.a]
			if co.kind.twoQubit() {
				co.b = lay.compact[co.b]
				co.err = effective2qErr(d, noise, edges, g.Qubits[0], g.Qubits[1])
			} else {
				co.err = d.Gate1Err[g.Qubits[0]]
			}
			co.errT = threshold(co.err)
			fac.place(&co)
			ops = append(ops, co)
		}
		cl.ops = ops[from:len(ops):len(ops)]
		// A layer's ops act on disjoint wires and an idle wire is on none
		// of them, so its slot is the same before and after the layer.
		from = len(idle)
		for i := range lay.active {
			if !busy[i] {
				idle = append(idle, fac.slot[i])
			}
		}
		cl.idle = idle[from:len(idle):len(idle)]
		cp.layers = append(cp.layers, cl)
	}
	fac.finish()
	return cp, nil
}

// maxComponentQubits bounds one entangled component's dense state and
// maxRegisterAmps the amplitudes of all of a statevector register's
// components; every shard worker holds one register. A tableau has no
// cap.
const (
	maxComponentQubits = 24
	maxRegisterAmps    = 1 << 25
)

// factoring is both engines' decision of what to simulate together,
// taken while the gates are lowered in schedule order. A slot is one
// qubit's state; it starts on the wire of the same index. SWAP moves no
// state: the two wires exchange slots, and every later op, idle draw and
// measurement on a wire addresses the slot then on it. CX and CZ union
// their slots; after the last gate each union-find class is one
// component, simulated as its own dense state or tableau, and a product
// of components is exactly the joint state because nothing else couples
// qubits (noise is single-qubit Paulis and single-qubit measurement).
type factoring struct {
	slot   []int // wire -> slot on it (after the gates lowered so far)
	parent []int // union-find over slots
	// Filled by finish: each slot's component and bit index within it,
	// and each component's qubit count.
	comp, bit, sizes []int
}

func newFactoring(n int) *factoring {
	f := &factoring{slot: make([]int, n), parent: make([]int, n)}
	for i := range f.slot {
		f.slot[i], f.parent[i] = i, i
	}
	return f
}

// place rewrites a lowered op's operands from wires to slots. A SWAP
// relabels first, so its noise (three draws, pick2 between a and b) lands
// where the joint register would apply it: on the wires after the
// exchange.
func (f *factoring) place(op *compiledOp) {
	if op.kind == opSWAP {
		f.slot[op.a], f.slot[op.b] = f.slot[op.b], f.slot[op.a]
	}
	op.a = f.slot[op.a]
	if !op.kind.twoQubit() {
		return
	}
	op.b = f.slot[op.b]
	if op.kind != opSWAP {
		f.parent[f.find(op.a)] = f.find(op.b)
	}
}

func (f *factoring) find(s int) int {
	for f.parent[s] != s {
		f.parent[s] = f.parent[f.parent[s]]
		s = f.parent[s]
	}
	return s
}

// finish numbers the components, and the bits within each, in ascending
// order of the wire a slot ends on. A component's basis index therefore
// orders its outcomes the way the joint index over the final wires does,
// which is what keeps the statevector reference rule — modal state,
// lowest joint index on ties — a per-component rule
// (factored.correctBits).
func (f *factoring) finish() {
	n := len(f.slot)
	f.comp, f.bit = make([]int, n), make([]int, n)
	id := make([]int, n) // union-find root -> component + 1
	for _, s := range f.slot {
		r := f.find(s)
		if id[r] == 0 {
			f.sizes = append(f.sizes, 0)
			id[r] = len(f.sizes)
		}
		c := id[r] - 1
		f.comp[s], f.bit[s] = c, f.sizes[c]
		f.sizes[c]++
	}
}

// fitsRegister fails when the factoring does not fit a statevector
// register.
func (f *factoring) fitsRegister() error {
	amps := 0
	for _, k := range f.sizes {
		if k > maxComponentQubits {
			return fmt.Errorf("sim: an entangled component of %d qubits exceeds the statevector limit of %d", k, maxComponentQubits)
		}
		amps += 1 << uint(k)
	}
	if amps > maxRegisterAmps {
		return fmt.Errorf("sim: %d entangled components hold %d amplitudes; a statevector register is limited to %d", len(f.sizes), amps, maxRegisterAmps)
	}
	return nil
}

// opKinds resolves a gate name to its operation kind. A name it lacks —
// a single-qubit gate with no Clifford kind, or one the lowering does not
// know — reads op1Q, the zero kind.
var opKinds = map[string]opKind{
	circuit.GateMeasure: opNone, circuit.GateBarrier: opNone,
	circuit.GateSWAP: opSWAP, circuit.GateCX: opCX, circuit.GateCZ: opCZ,
	circuit.GateH: opH, circuit.GateX: opX, circuit.GateY: opY, circuit.GateZ: opZ,
	circuit.GateS: opS, circuit.GateSdg: opSdg,
}

// lowerGate resolves a gate to its operation, with a and b set to the
// gate's own operands (compileLayers replaces them with compact indices
// and adds the error rate) and a single-qubit gate's matrix; it fails on
// a single-qubit name gateMatrix does not know.
func lowerGate(g circuit.Gate) (co compiledOp, err error) {
	switch co.kind = opKinds[g.Name]; {
	case co.kind == opNone:
	case co.kind.twoQubit():
		co.a, co.b = g.Qubits[0], g.Qubits[1]
	default:
		co.a = g.Qubits[0]
		co.m, err = gateMatrix(g)
	}
	return co, err
}

func (k opKind) twoQubit() bool { return k == opCX || k == opCZ || k == opSWAP }

// runStatevector executes one trial's gates on the factored register.
// With noisy set (and the compiled noise model enabled) it draws per op
// one Float64 (three for SWAP), then Intn(2)+Intn(3) per injected Pauli,
// then one Float64 per idle active qubit per layer, and a decay adds a
// measurement's Float64 — the joint register's sequence, draw for draw,
// with each "Float64() < p" asked as below(threshold(p)) and a layer's
// idle draws scanned by miss; the reference run passes false and a nil
// stream and draws nothing. SWAP was lowered to a relabel, so only its
// noise is left.
func (cp *compiledProgram) runStatevector(r *factored, rng *stream, noisy bool) {
	noisy = noisy && cp.noise.Enabled
	for li := range cp.layers {
		cl := &cp.layers[li]
		for oi := range cl.ops {
			op := &cl.ops[oi]
			if op.kind == opSWAP {
				// Three physical CNOTs' worth of error on the link.
				for k := 0; noisy && k < 3; k++ {
					if rng.below(op.errT) {
						r.injectPauli(pick2(op.a, op.b, rng), rng)
					}
				}
				continue
			}
			st, a := r.comps[r.comp[op.a]], r.bit[op.a]
			switch op.kind {
			case opCX:
				st.applyCNOT(a, r.bit[op.b])
			case opCZ:
				st.applyCZ(a, r.bit[op.b])
			default:
				st.apply1q(op.m, a)
			}
			if noisy && rng.below(op.errT) {
				q := op.a
				if op.kind.twoQubit() {
					q = pick2(op.a, op.b, rng)
				}
				r.injectPauli(q, rng)
			}
		}
		if noisy && cp.idleT > 0 {
			idle, n := cl.idle, len(cl.idle)
			for i := rng.miss(cp.idleT, n); i < n; i += 1 + rng.miss(cp.idleT, n-i-1) {
				r.comps[r.comp[idle[i]]].decay(r.bit[idle[i]], rng)
			}
		}
	}
}

// runGates runs every lowered op noiselessly on the stabilizer register:
// the tableau engine's reference run, and CliffordOutcome's.
func (cp *compiledProgram) runGates(r *stabilizer) {
	for li := range cp.layers {
		for _, op := range cp.layers[li].ops {
			tb, a := r.at(op.a)
			tb.apply(op.kind, a, r.bit[op.b])
		}
	}
}
