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
// compileLayers, SimulateIdeal and CliffordOutcome all go through it
// (gateMatrix in state.go is the table of 2x2 unitaries it looks
// single-qubit gates up in). The package holds one engine per
// representation — runStatevector over the factored register, trial by
// trial, and the tableau's Pauli frames over a shard of trials against
// one noiseless runGates reference (frame.go); compileLayers also lists
// the tableau's error sites, in compiled order, for its lattice.
//
// Both engines simulate what is entangled, not what is co-located: one
// factoring follows every wire's state through the SWAPs (a SWAP
// relabels) and unions the states CX and CZ couple; each register holds
// one dense state or packed tableau per component (DESIGN.md, "Factored
// register"). A statevector trial skips a component's gates until noise
// first lands on it, then copies in the reference run's checkpoint
// (DESIGN.md, "Noiseless prefix"). The joint registers, the per-layer
// reference interpreters (runTrial, runTrialT), the boolean tableau and
// the tableau's per-trial contract v1 (runTableau) live in
// oracle_test.go, where TestCompiledTrialMatchesLegacy*,
// TestLazyRegisterMatchesJoint and friends compare against them.
//
// Determinism contract: byte-identical PSTs for a given seed are a hard
// invariant (see DESIGN.md, "Hot-path memory discipline"). A compiled
// statevector program draws in exactly the same order, with the same
// outcomes, as the reference interpreter on the joint register does from
// math/rand. Its trial path draws from a stream (stream.go), math/rand's
// generator value for value, and asks each "Float64() < p" as an integer
// compare against threshold(p), resolved here once per op, once per
// program for idle decay and once per plan point for readout; the joint
// interpreters keep drawing from *rand.Rand, so the oracle tests check
// the stream too. The tableau engine samples under contract v2 instead
// (frame.go, DESIGN.md §17): per shard an error lattice, then the picks.

import (
	"fmt"
	"math"

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
// operand indices (slots of the factoring), the noise-draw threshold
// (crosstalk multiplier already applied), and the 1q unitary where
// relevant.
type compiledOp struct {
	kind opKind
	a, b int
	// errT is threshold(error rate) for this op's Pauli-injection
	// draw(s); it is only read when the compiled noise model is enabled,
	// and only by the statevector engine (the tableau's lattice keeps the
	// rate itself: framePlan.sites).
	errT uint64
	// m is the statevector 2x2 unitary for op1Q.
	m [2][2]complex128
	// ck is the checkpoint a noise draw on a wakes a following
	// statevector component at (ckB: on b, for a SWAP).
	ck, ckB int
}

// compiledLayer is one depth layer plus the active qubits idle in it,
// indexed like the ops' operands (in lay.active order — the idle-error
// draw order), with each one's statevector checkpoint.
type compiledLayer struct {
	ops    []compiledOp
	idle   []int
	idleCk []int
}

// compiledProgram is a layered schedule lowered for one engine.
type compiledProgram struct {
	layers []compiledLayer
	noise  NoiseModel
	idleT  uint64 // threshold(noise.IdleErrPerLayer)
	// fac maps wires to the operands the ops use: slots and their
	// components.
	fac *factoring
	// trialWork prices one trial as if every gate ran (ops and idle draws,
	// each at what it touches) for the parallel-dispatch threshold.
	trialWork int64
	steps     []int            // each component's last checkpoint
	prefix    *noiselessPrefix // recorded by prepare
	frames    *framePlan       // the tableau's lattice and reference
}

// compileLayers lowers the layered schedule for the given engine. All
// gate-name resolution, crosstalk adjacency scans, busy-set and error
// arithmetic happen here, once, instead of once per trial — and so does
// the decision of what to simulate together.
func compileLayers(d *arch.Device, lay *layered, noise NoiseModel, engine engineKind) (*compiledProgram, error) {
	fac := newFactoring(len(lay.active))
	cp := &compiledProgram{noise: noise, fac: fac, idleT: threshold(noise.IdleErrPerLayer), layers: make([]compiledLayer, 0, len(lay.layers))}
	// The tableau's error sites, in compiled order; step counts the ops.
	var sites *framePlan
	if engine == engineTableau {
		cp.frames = &framePlan{}
		if noise.Enabled {
			sites = cp.frames
		}
	}
	step := 0
	for _, layer := range lay.layers {
		cl := compiledLayer{ops: make([]compiledOp, 0, len(layer))}
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
			var errRate float64
			if co.kind.twoQubit() {
				co.b = lay.compact[co.b]
				errRate = effective2qErr(d, noise, layerEdges, g.Qubits[0], g.Qubits[1])
				// The statevector engine charges CZ its base error with no
				// crosstalk (scalar or matrix); the tableau engine treats
				// CZ like any two-qubit gate.
				if co.kind == opCZ && engine == engineStatevector {
					errRate = d.CNOTError(g.Qubits[0], g.Qubits[1])
				}
			} else {
				errRate = d.Gate1Err[g.Qubits[0]]
			}
			co.errT = threshold(errRate)
			fac.place(&co)
			cl.ops = append(cl.ops, co)
			step++
			if sites != nil {
				kind, draws := site1q, 1
				if co.kind.twoQubit() {
					kind = site2q
				}
				if co.kind == opSWAP {
					draws = 3 // three physical CNOTs' worth of error
				}
				for range draws {
					sites.addSite(kind, errRate, step, co.a, co.b)
				}
			}
		}
		// A layer's ops act on disjoint wires and an idle wire is on none
		// of them, so its slot is the same before and after the layer.
		cl.idle = make([]int, 0, len(lay.active)-len(busy))
		for _, q := range lay.active {
			if !busy[q] {
				cl.idle = append(cl.idle, fac.slot[lay.compact[q]])
			}
		}
		if sites != nil {
			for _, q := range cl.idle {
				sites.addSite(siteIdle, noise.IdleErrPerLayer, step, q, 0)
			}
		}
		cp.layers = append(cp.layers, cl)
	}
	if err := fac.finish(engine); err != nil {
		return nil, err
	}
	// Price a statevector trial: an op or idle draw sweeps its own
	// component's 2^k amplitudes (minParallelWork); the tableau is priced
	// by what its shards do (tableauWork). Number the statevector's
	// checkpoints: a component's state after its j-th non-SWAP op is
	// checkpoint j (0 is |0...0>); a gate records its component's after
	// it, a SWAP both components' current ones, an idle entry its
	// component's at the end of the layer.
	sweep := func(slot int) int64 {
		if engine == engineTableau {
			return 0
		}
		return 1 << uint(fac.sizes[fac.comp[slot]])
	}
	cp.steps = make([]int, len(fac.sizes))
	for li := range cp.layers {
		cl := &cp.layers[li]
		for i := range cl.ops {
			op := &cl.ops[i]
			cp.trialWork += sweep(op.a)
			if c := fac.comp[op.a]; op.kind == opSWAP {
				op.ck, op.ckB = cp.steps[c], cp.steps[fac.comp[op.b]]
			} else {
				cp.steps[c]++
				op.ck = cp.steps[c]
			}
		}
		cl.idleCk = make([]int, len(cl.idle))
		for i, q := range cl.idle {
			cp.trialWork += sweep(q)
			cl.idleCk[i] = cp.steps[fac.comp[q]]
		}
	}
	if engine == engineTableau {
		cp.trialWork = cp.tableauWork(d, lay)
	}
	return cp, nil
}

// The tableau's prices, in the units of minParallelWork: an expected
// lattice draw (a site's gap, once per shard, or a hit's gap and
// payload), a plan point's outcome per trial, and a word op of a re-run.
const (
	drawWork  = 60
	pointWork = 35
	rerunWork = 4
)

// tableauWork prices one tableau trial by what a shard spends on it: its
// share of the lattice's draws, every plan point's outcome, and each
// measured component's re-run — its ops and its points' measurements, a
// k-qubit component's at ⌈2k/64⌉ word ops per op and k per measurement —
// at the chance of two or more decays landing on it, where a pair leaves
// the frames. A pair with one decay is priced as staying on them, which
// holds unless its branch has more than 64 random picks. Which components
// re-run every trial is only known after prepare's reference run, so
// those are priced as if they did not, and gate towards one worker.
func (cp *compiledProgram) tableauWork(d *arch.Device, lay *layered) int64 {
	f, fp := cp.fac, cp.frames
	var draws float64
	decays := make([]float64, len(f.sizes)) // per component: expected decays per trial
	for _, st := range fp.sites {
		p := -math.Expm1(1 / st.inv)
		draws += 1.0/shardTrials + p
		if st.kind == siteIdle {
			decays[f.comp[st.a]] += p
		}
	}
	ops, points := make([]int, len(f.sizes)), make([]int, len(f.sizes))
	for li := range cp.layers {
		for _, op := range cp.layers[li].ops {
			if op.kind != opSWAP {
				ops[f.comp[op.a]]++
			}
		}
	}
	for _, m := range lay.measures {
		if p := d.ReadoutErr[m.Phys]; cp.noise.Enabled && cp.noise.Readout && p > 0 {
			draws += 1.0/shardTrials + min(p, 1)
		}
		points[f.comp[f.slot[lay.compact[m.Phys]]]]++
	}
	work := drawWork*draws + pointWork*float64(len(lay.measures))
	for c, k := range f.sizes {
		if points[c] > 0 {
			rerun := 1 - math.Exp(-decays[c])*(1+decays[c])
			work += rerunWork * rerun * float64(ops[c]+k*points[c]) * float64((2*k+63)/64)
		}
	}
	return int64(work)
}

// maxComponentQubits bounds one entangled component's dense state and
// maxRegisterAmps the amplitudes of all of a statevector register's
// components; every shard worker holds one register. A tableau has no
// cap.
const (
	maxComponentQubits = 24
	maxRegisterAmps    = 1 << 25
	maxPrefixAmps      = 1 << 20 // a compiled program's checkpoints: 16 MiB
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
// (factored.correctBits). For the statevector engine it fails when the
// factoring does not fit a register.
func (f *factoring) finish(engine engineKind) error {
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
	if engine == engineTableau {
		return nil
	}
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

// runStatevector executes one trial's gates on the factored register.
// With noisy set (and the compiled noise model enabled) it draws per op
// one Float64 (three for SWAP), then Intn(2)+Intn(3) per injected Pauli,
// then one Float64 per idle active qubit per layer, and a decay adds a
// measurement's Float64 — the joint register's sequence, draw for draw,
// with each "Float64() < p" asked as below(threshold(p)) and a layer's
// idle draws scanned by miss; the reference run passes false and a nil
// stream, draws nothing and records the checkpoints. SWAP was lowered to
// a relabel, so only its noise is left. A following component skips its
// gates until a Pauli or decay wakes it at the op's or idle entry's
// checkpoint.
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
						if pick2(op.a, op.b, rng) == op.a {
							r.injectPauli(op.a, op.ck, rng)
						} else {
							r.injectPauli(op.b, op.ckB, rng)
						}
					}
				}
				continue
			}
			if c := r.comp[op.a]; !r.following[c] {
				st, a := r.comps[c], r.bit[op.a]
				switch op.kind {
				case opCX:
					st.applyCNOT(a, r.bit[op.b])
				case opCZ:
					st.applyCZ(a, r.bit[op.b])
				default:
					st.apply1q(op.m, a)
				}
				if r.record && r.pre.base[c] >= 0 {
					copy(r.pre.amps[r.pre.base[c]+op.ck<<uint(st.n):], st.amps)
				}
			}
			if noisy && rng.below(op.errT) {
				q := op.a
				if op.kind != op1Q {
					q = pick2(op.a, op.b, rng)
				}
				r.injectPauli(q, op.ck, rng)
			}
		}
		if noisy && cp.idleT > 0 {
			idle, n := cl.idle, len(cl.idle)
			for i := rng.miss(cp.idleT, n); i < n; i += 1 + rng.miss(cp.idleT, n-i-1) {
				r.awake(r.comp[idle[i]], cl.idleCk[i]).decay(r.bit[idle[i]], rng)
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

// minParallelWork is the estimated whole-simulation work (trials x
// per-trial cost, compiledProgram.trialWork) below which shard fan-out
// costs more than it buys: small workloads finish a shard in
// microseconds, so goroutine dispatch and the pool's cancellation
// machinery dominate. One unit measures 0.13-1.2 ns on the statevector
// engine (cliffordMix50's amplitude sweeps at the low end, the fixed cost
// of ops and draws on the pair fixture's 2^3 components at the high end)
// and 0.7-1.6 ns on the tableau engine (ghz40's re-runs at the low end,
// GHZ-4 in between, cliffordMix50's lattice and plan points at the high
// end), each sequential at 8024 trials on a 2-vCPU Xeon, so the threshold
// sits at 0.1-1.7 ms of sequential work; two workers already win 1.5x on
// 0.85 ms. The threshold never affects results — worker count only
// decides where shards run, never what they compute.
const minParallelWork = 1 << 20

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
