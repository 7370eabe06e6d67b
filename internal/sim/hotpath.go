package sim

// Trial-loop hot path: the Monte-Carlo engines execute the same layered
// schedule thousands of times, so everything that does not depend on
// the trial's random draws is resolved ONCE here — compact operand
// indices, per-op error rates with the crosstalk multiplier folded in,
// single-qubit gate matrices, per-layer idle-qubit lists — and the
// per-trial loop becomes a branch on a small op kind with zero map
// lookups and zero allocations.
//
// lowerGate is the only place a gate name becomes an operation:
// compileLayers, SimulateIdeal, CliffordOutcome and IsClifford all go
// through it (gateMatrix in state.go is the table of 2x2 unitaries it
// looks single-qubit gates up in). The package holds one engine per
// representation — runStatevector over *state, runTableau over *ptab.
// The per-layer reference interpreters (runTrial, runTrialT) and the
// boolean tableau live in oracle_test.go, where
// TestCompiledTrialMatchesLegacy*, TestCompiledMatchesLegacyWithMatrix
// and TestPackedMatchesBooleanTableau compare against them.
//
// Determinism contract: a compiled program draws from the RNG in
// exactly the same order, with exactly the same comparisons, as the
// reference interpreter — byte-identical PSTs are a hard invariant (see
// DESIGN.md, "Hot-path memory discipline").

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// engineKind selects which interpreter's semantics a compiled program
// bakes in. The two engines differ in two documented corners: the
// statevector path applies no crosstalk multiplier to CZ gates, and it
// counts barrier operands as busy for the idle-error channel while the
// tableau path does not.
type engineKind uint8

const (
	engineStatevector engineKind = iota
	engineTableau
)

// opKind is a compiled operation tag. Single-qubit gates compile to
// their named Clifford kind for the tableau engine and to op1Q (matrix
// apply) for the statevector engine; a gate that is still op1Q after a
// tableau lowering is not Clifford. opNone marks measurements and
// barriers, which carry no operation.
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
// compact operand indices, the noise-draw threshold (crosstalk
// multiplier already applied), and the 1q unitary where relevant.
type compiledOp struct {
	kind opKind
	a, b int
	// err is the probability threshold for this op's Pauli-injection
	// draw(s); it is only read when the compiled noise model is enabled.
	err float64
	// m is the statevector 2x2 unitary for op1Q.
	m [2][2]complex128
}

// compiledLayer is one depth layer plus the compact indices of active
// qubits idle in it (in lay.active order — the idle-error draw order).
type compiledLayer struct {
	ops  []compiledOp
	idle []int
}

// compiledProgram is a layered schedule lowered for one engine.
type compiledProgram struct {
	layers []compiledLayer
	noise  NoiseModel
	nq     int // active qubit count
	// trialWork estimates one trial's cost (op count x per-op touch
	// cost) for the parallel-dispatch threshold.
	trialWork int64
}

// compileLayers lowers the layered schedule for the given engine. All
// gate-name resolution, crosstalk adjacency scans, busy-set and error
// arithmetic happen here, once, instead of once per trial.
func compileLayers(d *arch.Device, lay *layered, noise NoiseModel, engine engineKind) (*compiledProgram, error) {
	cp := &compiledProgram{noise: noise, nq: len(lay.active)}
	perOpCost := int64(1) << uint(min(len(lay.active), 30))
	if engine == engineTableau {
		words := (len(lay.active) + 63) / 64
		perOpCost = int64(2*len(lay.active)) * int64(words)
		if perOpCost == 0 {
			perOpCost = 1
		}
	}
	for _, layer := range lay.layers {
		cl := compiledLayer{}
		// Crosstalk is a property of the layer, not the trial: collect
		// the two-qubit links once and fold the scalar multiplier or the
		// pairwise conditional error into each op's compiled rate.
		layerEdges := layer2qEdges(d, layer, noise)
		busy := map[int]bool{}
		for _, op := range layer {
			g := op.Gate
			co, err := lowerGate(g, engine)
			if err != nil {
				return nil, err
			}
			if co.kind == opNone {
				// Measurements are deferred to the plan. The statevector
				// engine counts a barrier's operands busy for the idle
				// channel, the tableau engine does not.
				if engine == engineStatevector {
					for _, q := range g.Qubits {
						busy[q] = true
					}
				}
				continue
			}
			if engine == engineTableau && co.kind == op1Q {
				return nil, fmt.Errorf("sim: schedule contains non-Clifford gate %q", g.Name)
			}
			for _, q := range g.Qubits {
				busy[q] = true
			}
			co.a = lay.compact[co.a]
			if co.kind.twoQubit() {
				co.b = lay.compact[co.b]
				co.err = effective2qErr(d, noise, layerEdges, g.Qubits[0], g.Qubits[1])
				// The statevector engine charges CZ its base error with no
				// crosstalk (scalar or matrix); the tableau engine treats
				// CZ like any two-qubit gate.
				if co.kind == opCZ && engine == engineStatevector {
					co.err = d.CNOTError(g.Qubits[0], g.Qubits[1])
				}
			} else {
				co.err = d.Gate1Err[g.Qubits[0]]
			}
			cl.ops = append(cl.ops, co)
		}
		for _, q := range lay.active {
			if !busy[q] {
				cl.idle = append(cl.idle, lay.compact[q])
			}
		}
		cp.trialWork += int64(len(cl.ops)+len(cl.idle)) * perOpCost
		cp.layers = append(cp.layers, cl)
	}
	return cp, nil
}

// lowerGate resolves a gate's name to its operation for the given
// engine, with a and b set to the gate's own operands (compileLayers
// replaces them with compact indices and adds the error rate). The
// statevector engine runs every single-qubit gate as a matrix and fails
// on a name gateMatrix does not know; the tableau engine keeps the named
// Clifford kinds and leaves any other single-qubit gate as op1Q, which
// it cannot run — callers reject it with their own message.
func lowerGate(g circuit.Gate, engine engineKind) (compiledOp, error) {
	var co compiledOp
	switch g.Name {
	case circuit.GateMeasure, circuit.GateBarrier:
		co.kind = opNone
		return co, nil
	case circuit.GateSWAP:
		co.kind = opSWAP
	case circuit.GateCX:
		co.kind = opCX
	case circuit.GateCZ:
		co.kind = opCZ
	case circuit.GateH:
		co.kind = opH
	case circuit.GateX:
		co.kind = opX
	case circuit.GateY:
		co.kind = opY
	case circuit.GateZ:
		co.kind = opZ
	case circuit.GateS:
		co.kind = opS
	case circuit.GateSdg:
		co.kind = opSdg
	}
	co.a = g.Qubits[0]
	if co.kind.twoQubit() {
		co.b = g.Qubits[1]
	} else if engine == engineStatevector {
		var err error
		co.kind = op1Q
		co.m, err = gateMatrix(g)
		return co, err
	}
	return co, nil
}

func (k opKind) twoQubit() bool { return k == opCX || k == opCZ || k == opSWAP }

// runStatevector executes one trial's gates on st. With noisy set (and
// the compiled noise model enabled) it draws per op one Float64 (three
// for SWAP), then Intn(2)+Intn(3) per injected Pauli, then one Float64
// per idle active qubit per layer; the reference run passes false and a
// nil RNG and draws nothing.
func (cp *compiledProgram) runStatevector(st *state, rng *rand.Rand, noisy bool) {
	noisy = noisy && cp.noise.Enabled
	idleErr := cp.noise.IdleErrPerLayer
	for li := range cp.layers {
		cl := &cp.layers[li]
		for oi := range cl.ops {
			op := &cl.ops[oi]
			switch op.kind {
			case opSWAP:
				st.applySWAP(op.a, op.b)
				if noisy {
					// Three physical CNOTs' worth of error on the link.
					for k := 0; k < 3; k++ {
						if rng.Float64() < op.err {
							st.injectPauli(pick2(op.a, op.b, rng), rng)
						}
					}
				}
			case opCX:
				st.applyCNOT(op.a, op.b)
				if noisy && rng.Float64() < op.err {
					st.injectPauli(pick2(op.a, op.b, rng), rng)
				}
			case opCZ:
				st.applyCZ(op.a, op.b)
				if noisy && rng.Float64() < op.err {
					st.injectPauli(pick2(op.a, op.b, rng), rng)
				}
			default:
				st.apply1q(op.m, op.a)
				if noisy && rng.Float64() < op.err {
					st.injectPauli(op.a, rng)
				}
			}
		}
		if noisy && idleErr > 0 {
			for _, q := range cl.idle {
				if rng.Float64() < idleErr {
					st.decay(q, rng)
				}
			}
		}
	}
}

// runTableau is runStatevector over the packed stabilizer tableau, with
// the same draw sequence.
func (cp *compiledProgram) runTableau(tb *ptab, rng *rand.Rand, noisy bool) {
	noisy = noisy && cp.noise.Enabled
	idleErr := cp.noise.IdleErrPerLayer
	for li := range cp.layers {
		cl := &cp.layers[li]
		for oi := range cl.ops {
			op := &cl.ops[oi]
			tb.apply(op)
			if !noisy {
				continue
			}
			switch op.kind {
			case opSWAP:
				for k := 0; k < 3; k++ {
					if rng.Float64() < op.err {
						tb.injectPauliT(pick2(op.a, op.b, rng), rng)
					}
				}
			case opCX, opCZ:
				if rng.Float64() < op.err {
					tb.injectPauliT(pick2(op.a, op.b, rng), rng)
				}
			default:
				if rng.Float64() < op.err {
					tb.injectPauliT(op.a, rng)
				}
			}
		}
		if noisy && idleErr > 0 {
			for _, q := range cl.idle {
				if rng.Float64() < idleErr {
					tb.decayT(q, rng)
				}
			}
		}
	}
}

// apply executes one lowered Clifford gate on the tableau.
func (t *ptab) apply(op *compiledOp) {
	switch op.kind {
	case opH:
		t.h(op.a)
	case opX:
		t.xg(op.a)
	case opY:
		t.yg(op.a)
	case opZ:
		t.zg(op.a)
	case opS:
		t.s(op.a)
	case opSdg:
		t.sdg(op.a)
	case opCX:
		t.cx(op.a, op.b)
	case opCZ:
		t.cz(op.a, op.b)
	case opSWAP:
		t.swap(op.a, op.b)
	}
}

// minParallelWork is the estimated whole-simulation work (trials x
// per-trial op-touch cost) below which shard fan-out costs more than it
// buys: small Clifford workloads finish a shard in microseconds, so
// goroutine dispatch and the pool's cancellation machinery dominate.
// The threshold never affects results — worker count only decides where
// shards run, never what they compute.
const minParallelWork = 1 << 21

// shardWorkers applies the dispatch threshold: simulations whose total
// estimated work is too small run on one worker regardless of the
// requested fan-out.
func shardWorkers(workers, trials int, perTrialWork int64) int {
	if workers == 1 {
		return 1
	}
	if int64(trials)*perTrialWork < minParallelWork {
		return 1
	}
	return workers
}
