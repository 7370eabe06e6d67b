package sim

// Reference implementations the production engines are checked against;
// nothing outside the tests runs them.
//
//   - runTrial / runTrialT: the per-layer interpreters that re-resolve
//     gate names, crosstalk and busy sets every trial. runTrial runs on
//     the joint register — one 2^(active qubits) state in which a SWAP
//     moves amplitudes (applySWAP) — and jointMatchesFactored holds the
//     factored register to it. Oracles for
//     TestCompiledTrialMatchesLegacy{Statevector,Tableau} and
//     TestCompiledMatchesLegacyWithMatrix.
//   - tableau: the boolean Aaronson-Gottesman tableau. Oracle for
//     TestPackedMatchesBooleanTableau and TestTableauMatchesStatevector,
//     baseline of BenchmarkPackedVsBooleanTableau.
//   - cliffordBackend, ptab.applyCliffordGate and ptab.swap: the by-name
//     gate interface runTrialT and the tableau benchmarks drive both
//     tableaus through. runTrialT over one joint ptab of every active
//     qubit is the oracle jointMatchesFactored holds the stabilizer
//     register to.
//   - runTableau and the stabilizer register's trial methods: the tableau
//     engine's sampling contract v1, per trial a draw at every error site
//     (hotpath.go's draw order). jointMatchesFactored holds it to the
//     joint tableau, and TestLatticeAgreesWithV1 holds the shard's
//     lattice-and-frames estimate (frame.go) to its estimate.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/fp"
	"repro/internal/router"
)

// applySWAP exchanges qubits a and b of the joint register.
func (s *state) applySWAP(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := 0; i < len(s.amps); i++ {
		if i&ab != 0 && i&bb == 0 {
			j := i&^ab | bb
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

// The index-testing amplitude loops the state's blocked loops replaced:
// each visits all 2^n indices and tests the qubits' bits.

func (s *state) apply1qRef(m [2][2]complex128, q int) {
	bit := 1 << uint(q)
	for i := 0; i < len(s.amps); i++ {
		if i&bit == 0 {
			a0, a1 := s.amps[i], s.amps[i|bit]
			s.amps[i] = m[0][0]*a0 + m[0][1]*a1
			s.amps[i|bit] = m[1][0]*a0 + m[1][1]*a1
		}
	}
}

func (s *state) applyCNOTRef(c, t int) {
	cb, tb := 1<<uint(c), 1<<uint(t)
	for i := 0; i < len(s.amps); i++ {
		if i&cb != 0 && i&tb == 0 {
			s.amps[i], s.amps[i|tb] = s.amps[i|tb], s.amps[i]
		}
	}
}

func (s *state) applyCZRef(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := 0; i < len(s.amps); i++ {
		if i&ab != 0 && i&bb != 0 {
			s.amps[i] = -s.amps[i]
		}
	}
}

func (s *state) prob1Ref(q int) float64 {
	bit := 1 << uint(q)
	p := 0.0
	for i, a := range s.amps {
		if i&bit != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

func (s *state) projectRef(q, outcome int) {
	bit := 1 << uint(q)
	norm := 0.0
	for i := range s.amps {
		if (i&bit != 0) == (outcome == 1) {
			norm += real(s.amps[i])*real(s.amps[i]) + imag(s.amps[i])*imag(s.amps[i])
		} else {
			s.amps[i] = 0
		}
	}
	if fp.Zero(norm) {
		s.amps[0] = 0
		idx := 0
		if outcome == 1 {
			idx = bit
		}
		s.amps[idx] = 1
		return
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range s.amps {
		s.amps[i] *= scale
	}
}

// TestAmplitudeLoopsMatchIndexTesting holds the blocked amplitude loops
// to the index-testing ones bit for bit (Float64bits of every amplitude
// and probability): on random states of 1 to 10 qubits, for every qubit,
// every ordered (control, target) pair and both projection outcomes,
// including a projection onto an outcome of probability zero.
func TestAmplitudeLoopsMatchIndexTesting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	random := func(n int) *state {
		s := newState(n)
		norm := 0.0
		for i := range s.amps {
			s.amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			norm += real(s.amps[i])*real(s.amps[i]) + imag(s.amps[i])*imag(s.amps[i])
		}
		for i := range s.amps {
			s.amps[i] /= complex(math.Sqrt(norm), 0)
		}
		return s
	}
	same := func(what string, a, b *state) {
		t.Helper()
		for i := range a.amps {
			if math.Float64bits(real(a.amps[i])) != math.Float64bits(real(b.amps[i])) ||
				math.Float64bits(imag(a.amps[i])) != math.Float64bits(imag(b.amps[i])) {
				t.Fatalf("%s, n=%d: amplitude %d is %v, index-testing loop %v", what, a.n, i, a.amps[i], b.amps[i])
			}
		}
	}
	for n := 1; n <= 10; n++ {
		s := random(n)
		for q := 0; q < n; q++ {
			m, err := gateMatrix(circuit.Gate{Name: circuit.GateU3, Params: []float64{rng.Float64() * 3, rng.Float64() * 3, rng.Float64() * 3}})
			if err != nil {
				t.Fatal(err)
			}
			a, b := s.clone(), s.clone()
			a.apply1q(m, q)
			b.apply1qRef(m, q)
			same(fmt.Sprintf("apply1q(%d)", q), a, b)
			if p, r := s.prob1(q), s.prob1Ref(q); math.Float64bits(p) != math.Float64bits(r) {
				t.Fatalf("n=%d: prob1(%d) = %v, index-testing loop %v", n, q, p, r)
			}
			for outcome := 0; outcome < 2; outcome++ {
				a, b := s.clone(), s.clone()
				a.project(q, outcome)
				b.projectRef(q, outcome)
				same(fmt.Sprintf("project(%d, %d)", q, outcome), a, b)
				// The outcome just projected away has probability zero.
				a.project(q, 1-outcome)
				b.projectRef(q, 1-outcome)
				same(fmt.Sprintf("project(%d, %d) after %d", q, 1-outcome, outcome), a, b)
			}
			for c := 0; c < n; c++ {
				a, b := s.clone(), s.clone()
				a.applyCNOT(c, q)
				b.applyCNOTRef(c, q)
				same(fmt.Sprintf("applyCNOT(%d, %d)", c, q), a, b)
				if c == q {
					continue // a CZ needs two qubits
				}
				a.applyCZ(c, q)
				b.applyCZRef(c, q)
				same(fmt.Sprintf("applyCZ(%d, %d)", c, q), a, b)
			}
		}
	}
}

// trialRegister is a register that runs one trial at a time: the
// statevector's factored register, and the stabilizer register under
// sampling contract v1.
type trialRegister interface {
	reset()
	run(cp *compiledProgram, rng *stream, noisy bool)
	measure(slot int, rng *stream) int
}

func (r *factored) run(cp *compiledProgram, rng *stream, noisy bool) {
	cp.runStatevector(r, rng, noisy)
}

// newTrialRegister makes a per-trial register; prepare must have run on
// cp.
func newTrialRegister(engine engineKind, cp *compiledProgram) trialRegister {
	if engine == engineTableau {
		return newStabilizer(cp.fac)
	}
	return newRegister(engine, cp, 0).(*factored)
}

func (r *stabilizer) reset() {
	for _, tb := range r.comps {
		tb.reset()
	}
}

func (r *stabilizer) run(cp *compiledProgram, rng *stream, noisy bool) {
	cp.runTableau(r, rng, noisy)
}

func (r *stabilizer) measure(slot int, rng *stream) int {
	tb, q := r.at(slot)
	return tb.measureT(q, rng)
}

func (r *stabilizer) injectPauli(slot int, rng prng) {
	tb, q := r.at(slot)
	tb.injectPauliT(q, rng)
}

// runTableau is runStatevector over the stabilizer register, with the
// same draw sequence: SWAP was lowered to a relabel, so only its noise is
// left, and every other gate updates its component's tableau.
func (cp *compiledProgram) runTableau(r *stabilizer, rng *stream, noisy bool) {
	noisy = noisy && cp.noise.Enabled
	for li := range cp.layers {
		cl := &cp.layers[li]
		for oi := range cl.ops {
			op := &cl.ops[oi]
			tb, a := r.at(op.a)
			tb.apply(op.kind, a, r.bit[op.b])
			if !noisy {
				continue
			}
			switch op.kind {
			case opSWAP:
				for k := 0; k < 3; k++ {
					if rng.below(op.errT) {
						r.injectPauli(pick2(op.a, op.b, rng), rng)
					}
				}
			case opCX, opCZ:
				if rng.below(op.errT) {
					r.injectPauli(pick2(op.a, op.b, rng), rng)
				}
			default:
				if rng.below(op.errT) {
					tb.injectPauliT(a, rng)
				}
			}
		}
		if noisy && cp.idleT > 0 {
			idle, n := cl.idle, len(cl.idle)
			for i := rng.miss(cp.idleT, n); i < n; i += 1 + rng.miss(cp.idleT, n-i-1) {
				tb, a := r.at(idle[i])
				tb.decayT(a, rng)
			}
		}
	}
}

// trialShard is a shard under a per-trial contract: what monteCarlo ran
// on every register before the tableau's lattice.
func trialShard(reg trialRegister, cp *compiledProgram, plan []measPoint, n int, rng *stream, succ []int) {
	doReadout := cp.noise.Enabled && cp.noise.Readout
	wrong := make([]int, len(succ))
	for trial := 0; trial < n; trial++ {
		reg.reset()
		reg.run(cp, rng, true)
		clear(wrong)
		for i := range plan {
			mp := &plan[i]
			b := reg.measure(mp.q, rng)
			if doReadout && rng.below(mp.readout) {
				b ^= 1
			}
			wrong[mp.prog] |= b ^ mp.correct
		}
		for p, bad := range wrong {
			if bad == 0 {
				succ[p]++
			}
		}
	}
}

// jointRegister is an engine's joint oracle: one state or tableau over
// every active qubit, in which a SWAP moves state.
type jointRegister struct {
	// run resets the register and runs one trial's gates and noise.
	run func(noise NoiseModel, rng *rand.Rand) error
	// correct reads a wire's bit of the reference outcome, called in plan
	// order after a noiseless run.
	correct func(wire int) int
	measure func(wire int, rng prng) int
}

func newJointRegister(engine engineKind, d *arch.Device, lay *layered) jointRegister {
	if engine == engineTableau {
		tb := newPtab(len(lay.active))
		return jointRegister{
			run: func(noise NoiseModel, rng *rand.Rand) error {
				tb.reset()
				return runTrialT(tb, d, lay, noise, rng)
			},
			correct: func(w int) int { return tb.measure(w, func() bool { return false }) },
			measure: tb.measureT,
		}
	}
	st := newState(len(lay.active))
	return jointRegister{
		run: func(noise NoiseModel, rng *rand.Rand) error {
			st.reset()
			return runTrial(st, d, lay, noise, rng)
		},
		correct: func(w int) int { return (st.modal() >> uint(w)) & 1 },
		measure: st.measure,
	}
}

// jointMatchesFactored runs the schedule on the engine's factored
// register and on its joint oracle from the same seeds and requires what
// the driver depends on: the same Correct string per program from the
// noiseless reference run, the same measured bit at every plan point of
// every trial, and the same RNG position after every trial. The oracle
// draws from math/rand and the register, as in monteCarlo, from a
// stream with integer thresholds and idle scans, so this checks those
// too. The register and its reference run come from prepare, as in
// monteCarlo, with the whole seeds x trials budget gating the
// measurement trees.
func jointMatchesFactored(t *testing.T, name string, engine engineKind, d *arch.Device, s *router.Schedule, noise NoiseModel, seeds, trials int) (paths lazyPaths) {
	t.Helper()
	lay, cp := compiledLay(t, d, s, noise, engine)
	// The driver's plan order: by program, then logical qubit.
	meas := append([]router.Measurement(nil), lay.measures...)
	sort.SliceStable(meas, func(i, j int) bool {
		if meas[i].Program != meas[j].Program {
			return meas[i].Program < meas[j].Program
		}
		return meas[i].Logical < meas[j].Logical
	})
	plan := make([]measPoint, len(meas))
	for i, m := range meas {
		plan[i] = measPoint{prog: m.Program, q: cp.fac.slot[lay.compact[m.Phys]], readout: threshold(d.ReadoutErr[m.Phys])}
	}

	prepare(engine, cp, plan, seeds*trials)
	joint := newJointRegister(engine, d, lay)
	if err := joint.run(NoiseModel{}, nil); err != nil {
		t.Fatal(err)
	}
	var want, got []byte
	for i, m := range meas {
		want = append(want, byte('0'+joint.correct(lay.compact[m.Phys])))
		got = append(got, byte('0'+plan[i].correct))
	}
	if string(got) != string(want) {
		t.Fatalf("%s: factored reference outcome %s, joint %s", name, got, want)
	}

	reg := newTrialRegister(engine, cp)
	sv, _ := reg.(*factored)
	readout := noise.Enabled && noise.Readout
	for seed := int64(0); seed < int64(seeds); seed++ {
		rngA, rngB := rand.New(rand.NewSource(seed)), newStream(seed)
		for trial := 0; trial < trials; trial++ {
			if err := joint.run(noise, rngA); err != nil {
				t.Fatal(err)
			}
			reg.reset()
			reg.run(cp, rngB, true)
			if sv != nil {
				for c, b := range sv.pre.base {
					if b >= 0 && !sv.following[c] {
						paths.woken++
					}
				}
			}
			for i, m := range meas {
				if c := cp.fac.comp[plan[i].q]; sv != nil && sv.following[c] {
					if sv.pre.tree[c] != nil {
						paths.tree++
					} else {
						paths.copied++
					}
				}
				a := joint.measure(lay.compact[m.Phys], rngA)
				b := reg.measure(plan[i].q, rngB)
				if readout {
					if rngA.Float64() < d.ReadoutErr[m.Phys] {
						a ^= 1
					}
					if rngB.below(plan[i].readout) {
						b ^= 1
					}
				}
				if a != b {
					t.Fatalf("%s noise=%+v seed=%d trial=%d: program %d logical %d measures %d, joint %d", name, noise, seed, trial, m.Program, m.Logical, b, a)
				}
			}
			if uint64(rngA.Int63()) != rngB.int63() {
				t.Fatalf("%s noise=%+v seed=%d trial=%d: factored register consumed different draws", name, noise, seed, trial)
			}
		}
	}
	return paths
}

// lazyPaths counts how the statevector trial register's components left
// the noiseless prefix over the trials jointMatchesFactored ran: woken
// by noise during the gates (per component and trial), measured by
// walking a tree, or woken at the final checkpoint to be measured (per
// plan point reached while following).
type lazyPaths struct{ woken, tree, copied int }

// entangledSchedule builds a seeded schedule of 2-4 three-qubit programs
// on a path of IBMQ16 that holds everything the factoring has to get
// right: program 0 is a GHZ state with its middle qubit flipped (a modal
// tie) whose last CNOT runs as a 4-CNOT bridge through a qubit of program
// 1, after a SWAP between the two programs put it there; from then on
// only SWAPs move program 0,
// while the other programs run random gates; SWAPs cross programs and
// reach free wires; and the last op is a SWAP between two programs'
// measured wires. With clifford set the random single-qubit gates are
// drawn from the Clifford names the tableau engine runs.
func entangledSchedule(tb testing.TB, d *arch.Device, seed int64, clifford bool) *router.Schedule {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	path := []int{0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14}
	for i := 1; i < len(path); i++ {
		if !d.Coupling.HasEdge(path[i-1], path[i]) {
			tb.Fatalf("%s has no link %d-%d", d.Name, path[i-1], path[i])
		}
	}
	type owner struct{ prog, logical int }
	at := map[int]owner{} // wire -> the program qubit on it
	nprogs := 2 + rng.Intn(3)
	for p := 0; p < nprogs; p++ {
		for l := 0; l < 3; l++ {
			at[path[3*p+l]] = owner{p, l}
		}
	}
	s := &router.Schedule{Device: d}
	add := func(prog int, name string, qs ...int) {
		g := circuit.Gate{Name: name, Qubits: qs}
		if name == circuit.GateRX {
			g.Params = []float64{rng.Float64() * 3}
		}
		s.Ops = append(s.Ops, router.Op{Program: prog, Gate: g, IsSwap: name == circuit.GateSWAP})
		if name == circuit.GateSWAP {
			oa, aok := at[qs[0]]
			ob, bok := at[qs[1]]
			delete(at, qs[0])
			delete(at, qs[1])
			if aok {
				at[qs[1]] = oa
			}
			if bok {
				at[qs[0]] = ob
			}
		}
	}
	add(0, circuit.GateH, path[0])
	add(0, circuit.GateCX, path[0], path[1])
	add(1, circuit.GateH, path[3])
	add(-1, circuit.GateSWAP, path[2], path[3])
	for k := 0; k < 2; k++ {
		add(0, circuit.GateCX, path[1], path[2])
		add(0, circuit.GateCX, path[2], path[3])
	}
	// |010> + |101>: which branch has the lower index depends on the
	// order of the wires the SWAPs leave the three qubits on.
	add(0, circuit.GateX, path[1])
	for k := 0; k < 3; k++ {
		i := rng.Intn(3)
		add(-1, circuit.GateSWAP, path[i], path[i+1])
	}
	oneQ := []string{circuit.GateH, circuit.GateT, circuit.GateX, circuit.GateS, circuit.GateRX}
	if clifford {
		oneQ = []string{circuit.GateH, circuit.GateX, circuit.GateY, circuit.GateZ, circuit.GateS, circuit.GateSdg}
	}
	for step := 0; step < 30; step++ {
		i := rng.Intn(len(path) - 1)
		a, b := path[i], path[i+1]
		oa, aok := at[a]
		ob, bok := at[b]
		switch {
		case rng.Intn(4) == 0 && (aok || bok):
			add(-1, circuit.GateSWAP, a, b)
		case aok && bok && oa.prog == ob.prog && oa.prog != 0:
			add(oa.prog, []string{circuit.GateCX, circuit.GateCX, circuit.GateCZ}[rng.Intn(3)], a, b)
		case aok && oa.prog != 0:
			add(oa.prog, oneQ[rng.Intn(len(oneQ))], a)
		}
	}
	last := -1
	for i := 0; i+1 < len(path); i++ {
		oa, aok := at[path[i]]
		ob, bok := at[path[i+1]]
		if aok && bok && (last < 0 || oa.prog != ob.prog) {
			last = i
		}
	}
	if last < 0 {
		tb.Fatalf("seed %d left no two occupied wires adjacent", seed)
	}
	add(-1, circuit.GateSWAP, path[last], path[last+1])
	for _, w := range path {
		if o, ok := at[w]; ok {
			s.Measurements = append(s.Measurements, router.Measurement{Program: o.prog, Logical: o.logical, Phys: w})
		}
	}
	return s
}

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
	injectPauliT(q int, rng prng)
	decayT(q int, rng prng)
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
func (t *tableau) injectPauliT(q int, rng prng) {
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
func (t *tableau) decayT(q int, rng prng) {
	if t.measure(q, func() bool { return rng.Intn(2) == 1 }) == 1 {
		t.xg(q)
	}
}

// swap exchanges qubits a and b of a joint ptab (three CNOTs); the
// stabilizer register relabels instead (factoring.place).
func (t *ptab) swap(a, b int) { t.cx(a, b); t.cx(b, a); t.cx(a, b) }

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
