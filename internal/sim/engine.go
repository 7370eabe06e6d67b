package sim

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/router"
)

// NoiseModel configures the Monte-Carlo error channels.
type NoiseModel struct {
	// Enabled turns all stochastic channels on; when false the
	// simulation is noiseless (used to find the correct outcome).
	Enabled bool
	// IdleErrPerLayer is the per-layer probability that an idle, not
	// yet measured qubit suffers a decoherence event (reset
	// trajectory). It models the coherence error that grows when a
	// short program waits for a long co-located one.
	IdleErrPerLayer float64
	// CrosstalkFactor scales up a CNOT's error rate when another CNOT
	// executes in the same layer on an adjacent link: err *= 1 +
	// CrosstalkFactor.
	CrosstalkFactor float64
	// Readout enables measurement bit-flips with the device's
	// per-qubit readout error.
	Readout bool
}

// DefaultNoise returns the noise model used throughout the evaluation.
func DefaultNoise() NoiseModel {
	return NoiseModel{
		Enabled:         true,
		IdleErrPerLayer: 0.0012,
		CrosstalkFactor: 0.3,
		Readout:         true,
	}
}

// Outcome reports a simulated workload's per-program results.
type Outcome struct {
	// PST[p] is program p's probability of a successful trial.
	PST []float64
	// Correct[p] is program p's noiseless modal bitstring (logical
	// qubit order, logical 0 first).
	Correct []string
	// Trials is the number of Monte-Carlo trials run.
	Trials int
}

// layered is the schedule flattened into depth layers; measurements are
// deferred to the very end (co-located programs cannot be measured until
// every program's gates have run, §III-C).
type layered struct {
	layers   [][]router.Op
	measures []router.Measurement
	active   []int       // sorted physical qubits in play
	compact  map[int]int // phys -> dense index
}

// layerize builds ASAP layers from the schedule ops over active qubits.
func layerize(sched *router.Schedule) *layered {
	activeSet := map[int]bool{}
	for _, op := range sched.Ops {
		for _, q := range op.Gate.Qubits {
			activeSet[q] = true
		}
	}
	for _, m := range sched.Measurements {
		activeSet[m.Phys] = true
	}
	var active []int
	for q := range activeSet {
		active = append(active, q)
	}
	sort.Ints(active)
	compact := map[int]int{}
	for i, q := range active {
		compact[q] = i
	}

	level := map[int]int{} // phys -> next free layer
	var layers [][]router.Op
	place := func(op router.Op, cost int) {
		start := 0
		for _, q := range op.Gate.Qubits {
			if level[q] > start {
				start = level[q]
			}
		}
		for len(layers) < start+cost {
			layers = append(layers, nil)
		}
		layers[start] = append(layers[start], op)
		for _, q := range op.Gate.Qubits {
			level[q] = start + cost
		}
	}
	for _, op := range sched.Ops {
		if op.Gate.IsMeasure() {
			continue // deferred
		}
		cost := 1
		if op.Gate.Name == circuit.GateSWAP {
			cost = 3
		}
		place(op, cost)
	}
	return &layered{
		layers:   layers,
		measures: sched.Measurements,
		active:   active,
		compact:  compact,
	}
}

// SimulateScheduleCtx runs the compiled schedule for the given number of
// noisy trials on the statevector engine and returns per-program PSTs.
// The correct answer per program is its modal bitstring under a
// noiseless run of the same schedule (lowest basis index on ties). progs
// must be the source programs the schedule was built from (for qubit
// counts); seed drives all stochastic channels.
//
// workers is the shard fan-out (0 selects pool.Default(), 1 forces
// sequential execution); the outcome is a pure function of the other
// arguments at every worker count and GOMAXPROCS. Cancellation of ctx is
// checked at shard boundaries, so a service deadline abandons the
// remaining trial budget and returns the context's error.
func SimulateScheduleCtx(ctx context.Context, d *arch.Device, sched *router.Schedule, progs []*circuit.Circuit, trials int, seed int64, noise NoiseModel, workers int) (*Outcome, error) {
	return monteCarlo(ctx, d, sched, progs, trials, seed, noise, workers, engineStatevector)
}

// measPoint is one measurement with its trial-invariant inputs
// resolved: the program it belongs to, the operand index of the measured
// wire once the schedule has run (compiledProgram.fac), the qubit's
// readout-error rate (err, the tableau's lattice site) and its threshold
// (readout, the statevector's draw), and the reference run's correct bit.
type measPoint struct {
	prog, q int
	readout uint64
	err     float64
	correct int
}

// register is one shard worker's reusable engine state. shard runs the n
// trials of one shard from rng — their gates, noise and measurements — and
// adds each program's successful trials to succ.
type register interface {
	shard(cp *compiledProgram, plan []measPoint, n int, rng *stream, succ []int)
}

// noiselessPrefix is what the statevector reference run records for the
// trial registers of one compiled program, which only read it (DESIGN.md
// §14, "Noiseless prefix"). Checkpoint j of component c starts at
// amps[base[c] + j<<k]; base[c] is -1 when c stays live. tree[c] holds
// the prob1 threshold of c's next measured qubit, in plan order, after
// each prefix of outcomes (node n's children: 2n+1 for 0, 2n+2 for 1).
type noiselessPrefix struct {
	amps       []complex128
	base, last []int // last: each component's final checkpoint
	tree       [][]float64
}

// factored is the statevector register: one dense state per component of
// the compiled program's factoring, addressed by slot. A trial register
// (pre set) starts each trial with every component that has checkpoints
// following them, at the root (node) of its tree; the reference run
// (record set) and SimulateIdeal keep every component live.
type factored struct {
	*factoring
	comps     []*state
	pre       *noiselessPrefix
	record    bool
	following []bool
	node      []int
	wrong     []int // per program: any bit off this trial
}

func newFactored(f *factoring) *factored {
	r := &factored{factoring: f, comps: make([]*state, len(f.sizes)),
		following: make([]bool, len(f.sizes)), node: make([]int, len(f.sizes))}
	for c, k := range f.sizes {
		r.comps[c] = newState(k)
	}
	return r
}

// reset starts a trial; awake overwrites a following component's state.
func (r *factored) reset() {
	for c, st := range r.comps {
		if r.pre != nil && r.pre.base[c] >= 0 {
			r.following[c], r.node[c] = true, 0
		} else {
			st.reset()
		}
	}
}

// shard is the statevector's sampling contract: trial by trial, every
// draw in the joint register's order (hotpath.go), then the plan measured
// with a readout draw per point.
func (r *factored) shard(cp *compiledProgram, plan []measPoint, n int, rng *stream, succ []int) {
	doReadout := cp.noise.Enabled && cp.noise.Readout
	for trial := 0; trial < n; trial++ {
		r.reset()
		cp.runStatevector(r, rng, true)
		clear(r.wrong)
		for i := range plan {
			mp := &plan[i]
			b := r.measure(mp.q, rng)
			if doReadout && rng.below(mp.readout) {
				b ^= 1
			}
			r.wrong[mp.prog] |= b ^ mp.correct
		}
		for p, bad := range r.wrong {
			if bad == 0 {
				succ[p]++
			}
		}
	}
}

// measure walks a following component's tree with the Float64 the eager
// measurement draws, or wakes it at its final checkpoint and measures.
func (r *factored) measure(slot int, rng *stream) int {
	c := r.comp[slot]
	if t := r.pre.tree[c]; r.following[c] && t != nil {
		b, n := 0, r.node[c]
		if rng.Float64() < t[n] {
			b = 1
		}
		r.node[c] = 2*n + 1 + b
		return b
	}
	return r.awake(c, r.pre.last[c]).measure(r.bit[slot], rng)
}

// awake returns component c's state, first waking a following one at
// checkpoint ck: bit for bit the state running every gate would hold, as
// the same kernels made it from the same inputs in the same order.
func (r *factored) awake(c, ck int) *state {
	st := r.comps[c]
	if r.following[c] {
		copy(st.amps, r.pre.amps[r.pre.base[c]+ck<<uint(st.n):])
		r.following[c] = false
	}
	return st
}

func (r *factored) injectPauli(slot, ck int, rng prng) {
	r.awake(r.comp[slot], ck).injectPauli(r.bit[slot], rng)
}

// modalBits returns the bit every slot takes in the modal basis state,
// lowest joint index over the final wires on ties: the joint probability
// is the product of the components' and the joint index the sum of their
// bits' weights, so the rule holds component by component, and
// factoring.finish numbered each component's bits in final-wire order.
func (r *factored) modalBits() (bits []int, prob float64) {
	bits, prob = make([]int, len(r.comp)), 1
	modal := make([]int, len(r.comps))
	for c, st := range r.comps {
		modal[c] = st.modal()
		a := st.amps[modal[c]]
		prob *= real(a)*real(a) + imag(a)*imag(a)
	}
	for slot, c := range r.comp {
		bits[slot] = (modal[c] >> uint(r.bit[slot])) & 1
	}
	return bits, prob
}

// correctBits reads every point off the modal basis state.
func (r *factored) correctBits(plan []measPoint) {
	bits, _ := r.modalBits()
	for i := range plan {
		plan[i].correct = bits[plan[i].q]
	}
}

// stabilizer is one packed tableau per component of the compiled
// program's factoring, addressed by slot: the tableau engine's noiseless
// reference run and CliffordOutcome's register.
type stabilizer struct {
	*factoring
	comps []*ptab
}

func newStabilizer(f *factoring) *stabilizer {
	r := &stabilizer{factoring: f, comps: make([]*ptab, len(f.sizes))}
	for c, k := range f.sizes {
		r.comps[c] = newPtab(k)
	}
	return r
}

// at resolves a slot to its component's tableau and its qubit there.
func (r *stabilizer) at(slot int) (*ptab, int) { return r.comps[r.comp[slot]], r.bit[slot] }

// prepare is the noiseless reference run, made before any trial register:
// it fixes every plan point's correct bit (random outcomes resolved to 0,
// matching the statevector engine's lowest-index convention) and draws
// from no RNG. The tableau's completes cp.frames (prepareFrames). The
// statevector's records cp.prefix: the checkpoints of each
// component that, in component order, still fits maxPrefixAmps, and the
// tree of each of those whose m measured qubits have 2^(m+1) <= trials,
// so that building it costs no more than measuring eagerly.
func prepare(engine engineKind, cp *compiledProgram, plan []measPoint, trials int) {
	f := cp.fac
	if engine == engineTableau {
		prepareFrames(cp, plan)
		return
	}
	p := &noiselessPrefix{base: make([]int, len(f.sizes)), last: cp.steps, tree: make([][]float64, len(f.sizes))}
	size := 0
	for c, k := range f.sizes {
		p.base[c] = -1
		if need := (cp.steps[c] + 1) << uint(k); size+need <= maxPrefixAmps {
			p.base[c], size = size, size+need
		}
	}
	p.amps = make([]complex128, size)
	for _, b := range p.base {
		if b >= 0 {
			p.amps[b] = 1 // checkpoint 0
		}
	}
	ref := newFactored(f)
	ref.pre, ref.record = p, true
	cp.runStatevector(ref, nil, false)
	ref.correctBits(plan)
	measured := make([][]int, len(f.sizes)) // per component: bits in plan order
	for _, mp := range plan {
		measured[f.comp[mp.q]] = append(measured[f.comp[mp.q]], f.bit[mp.q])
	}
	for c, bits := range measured {
		if p.base[c] >= 0 && len(bits) > 0 && trials>>len(bits) >= 2 {
			path := []*state{ref.comps[c]} // the final state, then one per depth
			for range bits[1:] {
				path = append(path, newState(f.sizes[c]))
			}
			p.tree[c] = make([]float64, 1<<len(bits)-1)
			growTree(p.tree[c], 0, bits, path)
		}
	}
	cp.prefix = p
}

// growTree fills node n of a tree and its subtree from path[0], the
// state after the outcomes leading to n, with the prob1 and project
// calls measuring bits in order makes.
func growTree(tree []float64, n int, bits []int, path []*state) {
	tree[n] = path[0].prob1(bits[0])
	if len(bits) == 1 {
		return
	}
	for b := 0; b < 2; b++ {
		copy(path[1].amps, path[0].amps)
		path[1].project(bits[0], b)
		growTree(tree, 2*n+1+b, bits[1:], path[1:])
	}
}

// shardWorker is what a shard runs its trials with; monteCarlo passes
// one from shard to shard.
type shardWorker struct {
	rng *stream
	reg register
}

// newRegister makes a shard register for progs programs; prepare must
// have run on cp.
func newRegister(engine engineKind, cp *compiledProgram, progs int) register {
	if engine == engineTableau {
		return newPauliFrames(cp, progs)
	}
	r := newFactored(cp.fac)
	r.pre, r.wrong = cp.prefix, make([]int, progs)
	return r
}

// monteCarlo is the one Monte-Carlo driver behind every Simulate entry
// point: validate, layerize, group the measurements into a plan in
// (program, logical) order — the order every trial measures and draws
// readout flips in — lower the schedule for the engine, fix the correct
// outcome with a noiseless reference run, run the trial budget in
// fixed shards with counter-derived streams, and reduce in shard order.
func monteCarlo(ctx context.Context, d *arch.Device, sched *router.Schedule, progs []*circuit.Circuit, trials int, seed int64, noise NoiseModel, workers int, engine engineKind) (*Outcome, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: trials must be positive, got %d", trials)
	}
	cp, plan, err := lowerSchedule(d, sched, len(progs), noise, engine)
	if err != nil {
		return nil, err
	}
	prepare(engine, cp, plan, trials)
	bufs := make([][]byte, len(progs))
	for _, mp := range plan {
		bufs[mp.prog] = append(bufs[mp.prog], byte('0'+mp.correct))
	}

	// Shard the trial budget: shard s runs trials [lo, hi) with its own
	// counter-derived stream, so per-shard counts do not depend on how
	// the shards are spread over goroutines. A shard takes a worker off
	// the free list (or makes one), re-seeds its stream and hands it
	// back: a re-seeded stream and a reset register keep nothing from the
	// shard before, and a call makes one worker per shard in flight.
	shards := numShards(trials)
	perShard := make([][]int, shards)       // per shard, per program: successes
	free := make(chan *shardWorker, shards) // every send finds room
	ferr := pool.ForEach(ctx, shards, shardWorkers(workers, trials, cp.trialWork), func(s int) error {
		var w *shardWorker
		select {
		case w = <-free:
			w.rng.seed(shardSeed(seed, s))
		default:
			w = &shardWorker{rng: newStream(shardSeed(seed, s)), reg: newRegister(engine, cp, len(progs))}
		}
		lo, hi := shardRange(s, trials)
		succ := make([]int, len(progs))
		w.reg.shard(cp, plan, hi-lo, w.rng, succ)
		perShard[s] = succ
		free <- w
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	// Reduce in shard-index order (integer sums are order-independent,
	// but the fixed order keeps the pattern uniform).
	total := perShard[0]
	for _, succ := range perShard[1:] {
		for p, n := range succ {
			total[p] += n
		}
	}
	out := &Outcome{PST: make([]float64, len(progs)), Correct: make([]string, len(progs)), Trials: trials}
	for p := range progs {
		out.PST[p] = float64(total[p]) / float64(trials)
		out.Correct[p] = string(bufs[p])
	}
	return out, nil
}

// lowerSchedule is monteCarlo's compile step: layerize, group the
// measurements into a plan in (program, logical) order, and lower the
// schedule for the engine, with the plan's points moved to the slots the
// ops leave the measured wires' states in.
func lowerSchedule(d *arch.Device, sched *router.Schedule, progs int, noise NoiseModel, engine engineKind) (*compiledProgram, []measPoint, error) {
	lay := layerize(sched)
	measOf := make([][]router.Measurement, progs)
	for _, m := range lay.measures {
		if m.Program < 0 || m.Program >= progs {
			return nil, nil, fmt.Errorf("sim: measurement for unknown program %d", m.Program)
		}
		measOf[m.Program] = append(measOf[m.Program], m)
	}
	var plan []measPoint
	for p, ms := range measOf {
		sort.Slice(ms, func(i, j int) bool { return ms[i].Logical < ms[j].Logical })
		for _, m := range ms {
			plan = append(plan, measPoint{prog: p, q: lay.compact[m.Phys], readout: threshold(d.ReadoutErr[m.Phys]), err: d.ReadoutErr[m.Phys]})
		}
	}

	// Lower the schedule once: operand indices, folded error rates, 1q
	// matrices, idle lists and the factoring are trial-invariant (see
	// hotpath.go). This is also where a non-Clifford
	// gate fails the tableau engine and an entangled component too large
	// for a register fails the statevector engine.
	cp, err := compileLayers(d, lay, noise, engine)
	if err != nil {
		return nil, nil, err
	}
	// The plan measures wires; the ops have moved their states.
	for i := range plan {
		plan[i].q = cp.fac.slot[plan[i].q]
	}
	return cp, plan, nil
}

// layer2qEdges collects the normalized links of a layer's two-qubit ops
// when the noise model needs them for crosstalk — either the legacy
// scalar factor or the device's pairwise matrix. Returns nil otherwise
// so the per-layer scan is skipped entirely on crosstalk-free runs.
func layer2qEdges(d *arch.Device, layer []router.Op, noise NoiseModel) []graph.Edge {
	if !noise.Enabled || (noise.CrosstalkFactor <= 0 && !d.HasCrosstalk()) {
		return nil
	}
	return twoQubitLinks(layer)
}

// twoQubitLinks returns the normalized links a layer's two-qubit ops
// fire on, in op order.
func twoQubitLinks(layer []router.Op) []graph.Edge {
	var edges []graph.Edge
	for _, op := range layer {
		if op.Gate.IsTwoQubit() {
			edges = append(edges, graph.NewEdge(op.Gate.Qubits[0], op.Gate.Qubits[1]))
		}
	}
	return edges
}

// effective2qErr returns the error rate charged to one execution of the
// two-qubit link (a,b) given the other two-qubit links firing in the
// same layer. A device carrying a pairwise crosstalk matrix supersedes
// the scalar model: the worst characterized conditional error
// E((a,b)|busy) wins, and neighbors absent from the matrix are benign.
// Without a matrix the legacy scalar model applies — base error times
// 1+CrosstalkFactor when any same-layer two-qubit op is adjacent —
// byte-identical to the pre-matrix simulator.
func effective2qErr(d *arch.Device, noise NoiseModel, layerEdges []graph.Edge, a, b int) float64 {
	if d.HasCrosstalk() {
		return d.Worst2qErrUnder(graph.NewEdge(a, b), layerEdges)
	}
	errRate := d.CNOTError(a, b)
	if noise.CrosstalkFactor > 0 && crosstalkAdjacent(d, layerEdges, a, b) {
		errRate *= 1 + noise.CrosstalkFactor
	}
	return errRate
}

// crosstalkAdjacent reports whether another CNOT in the same layer acts
// on a link adjacent to (a,b): sharing a qubit or coupled to one of its
// endpoints. The self-skip compares normalized edges, so a hand-built
// layer listing the same link in reversed orientation still does not
// count as its own aggressor.
func crosstalkAdjacent(d *arch.Device, layerEdges []graph.Edge, a, b int) bool {
	self := graph.NewEdge(a, b)
	for _, e := range layerEdges {
		if graph.NewEdge(e.U, e.V) == self {
			continue
		}
		for _, x := range [2]int{e.U, e.V} {
			for _, y := range [2]int{a, b} {
				if x == y || d.Coupling.HasEdge(x, y) {
					return true
				}
			}
		}
	}
	return false
}

func pick2(a, b int, rng prng) int {
	if rng.Intn(2) == 0 {
		return a
	}
	return b
}

// SimulateIdeal runs a plain circuit (logical qubits, no device) without
// noise and returns its modal output bitstring over measured qubits (in
// qubit order) plus that outcome's probability.
func SimulateIdeal(c *circuit.Circuit) (string, float64, error) {
	fac := newFactoring(c.NumQubits)
	var ops []compiledOp
	for _, g := range c.Gates {
		op, err := lowerGate(g, engineStatevector)
		if err != nil {
			return "", 0, err
		}
		if op.kind != opNone {
			fac.place(&op)
			ops = append(ops, op)
		}
	}
	if err := fac.finish(engineStatevector); err != nil {
		return "", 0, err
	}
	// The lowered gates run as one layer of the statevector engine.
	reg := newFactored(fac)
	(&compiledProgram{layers: []compiledLayer{{ops: ops}}}).runStatevector(reg, nil, false)
	bits, prob := reg.modalBits()
	buf := make([]byte, c.NumQubits)
	for q := range buf {
		buf[q] = byte('0' + bits[fac.slot[q]])
	}
	return string(buf), prob, nil
}
