// Package router solves the mapping-transition problem: given programs
// with initial mappings on a chip, it inserts SWAPs until every
// two-qubit gate is executed on coupled physical qubits. It implements
// a SABRE-style heuristic search (front layer + extended-set look-ahead
// + decay), an optional noise-aware SWAP cost (the multi-programming
// baseline's transition), and the paper's X-SWAP scheme (Algorithm 3):
// joint routing of all co-located programs with inter-program SWAPs,
// critical-gate candidate restriction, and the gain/score function of
// Equations 2-3.
package router

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/circuit"
)

// Options tunes the router. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// NoisePenalty adds -NoisePenalty*log(reliability of the SWAP's 3
	// CNOTs) to each candidate score, making routes prefer reliable
	// links (the noise-aware baseline). 0 disables it.
	NoisePenalty float64
	// InterProgram enables inter-program SWAPs (X-SWAP). When false,
	// each SWAP must stay within one program's qubits plus free qubits.
	InterProgram bool
	// GainTerm enables Equation 3's gain prioritization (SWAPs on the
	// global shortest path of gates where inter-program routing is
	// shorter score better). Only meaningful with InterProgram.
	GainTerm bool
	// CriticalGatesOnly restricts SWAP candidates to qubits of critical
	// gates (front gates with second-layer successors), as X-SWAP does.
	// When no critical gates exist, all front gates are used.
	CriticalGatesOnly bool
	// UseBridge executes distance-2 CNOTs as a 4-CNOT bridge (the
	// middle qubit is restored) instead of SWAPping, when the same
	// qubit pair does not recur in the look-ahead window. Bridges never
	// change the mapping; under InterProgram the middle qubit may
	// belong to another program (it is returned to its state).
	UseBridge bool
	// Seed drives random tie-breaking among equal-score candidates
	// ("best of 5 attempts" in the paper's methodology).
	Seed int64
}

// SABRE's fixed heuristic weights, shared by every strategy.
const (
	// extendedSetSize is the look-ahead window |E| (gates).
	extendedSetSize = 20
	// extendedSetWeight is SABRE's W: the weight of the extended-set
	// cost relative to the front-layer cost.
	extendedSetWeight = 0.5
	// decayFactor discourages ping-ponging the same qubit; each SWAP
	// bumps its qubits' decay, which multiplies candidate scores.
	decayFactor = 0.001
	// decayResetInterval resets decay every this many SWAPs.
	decayResetInterval = 5
)

// DefaultOptions returns the SABRE-like defaults used by every strategy.
func DefaultOptions() Options {
	return Options{Seed: 1}
}

// XSWAPOptions returns Algorithm 3's configuration: inter-program SWAPs
// with critical-gate prioritization on top of the SABRE defaults.
func XSWAPOptions() Options {
	o := DefaultOptions()
	o.InterProgram = true
	o.GainTerm = true
	o.CriticalGatesOnly = true
	return o
}

// Op is one scheduled operation on physical qubits.
type Op struct {
	// Program is the index of the owning program, or -1 for SWAPs
	// (SWAPs belong to the schedule, not to any single program).
	Program int
	// Gate has physical qubit operands.
	Gate circuit.Gate
	// IsSwap marks inserted routing SWAPs (not gates from the source).
	IsSwap bool
	// InterProgram marks SWAPs whose endpoints belonged to two
	// different programs when applied.
	InterProgram bool
	// GateIndex is the source gate index within its program (-1 for
	// inserted SWAPs).
	GateIndex int
	// TriggerProgram is, for SWAPs, the program whose blocked gate
	// caused the SWAP (-1 for non-SWAP ops; cost attribution).
	TriggerProgram int
	// BridgePart is 1..4 for the CNOTs of a bridged source CNOT
	// (GateIndex then names the source gate), 0 otherwise.
	BridgePart int
}

// Measurement records where a program's logical qubit was measured.
type Measurement struct {
	Program int
	Logical int
	Phys    int
}

// Schedule is the routed output for a set of co-located programs.
type Schedule struct {
	Device       *arch.Device
	Ops          []Op
	Measurements []Measurement
	// SwapCount and InterSwapCount total the inserted SWAPs;
	// BridgeCount totals the CNOTs executed as 4-CNOT bridges.
	SwapCount      int
	InterSwapCount int
	BridgeCount    int
	// SwapsByProgram attributes each SWAP to the program whose gate
	// triggered it (inter-program SWAPs count for that program too).
	SwapsByProgram []int
	// FinalMapping[p][l] is the physical qubit holding program p's
	// logical qubit l after all gates executed.
	FinalMapping [][]int
	// TieBreaks counts the SWAP decisions whose best score several
	// candidates shared: the only decisions Options.Seed can change.
	TieBreaks int
}

// PhysicalCircuit renders the schedule as one circuit over the device's
// physical qubits (SWAPs kept as swap gates; CNOTCount and Depth then
// account them as 3 CNOTs / 3 layers).
func (s *Schedule) PhysicalCircuit() *circuit.Circuit {
	c := circuit.New("schedule", s.Device.NumQubits())
	for _, op := range s.Ops {
		c.Add(op.Gate)
	}
	return c
}

// CNOTCount returns the post-compilation CNOT count (SWAP = 3 CNOTs).
func (s *Schedule) CNOTCount() int { return s.PhysicalCircuit().CNOTCount() }

// Depth returns the post-compilation circuit depth (SWAP = 3 layers).
func (s *Schedule) Depth() int { return s.PhysicalCircuit().Depth() }

// Counts returns CNOTCount and Depth from one rendering of the physical
// circuit; callers that need both should prefer it.
func (s *Schedule) Counts() (cnots, depth int) {
	c := s.PhysicalCircuit()
	return c.CNOTCount(), c.Depth()
}

// Validate re-simulates the schedule's qubit movements and checks that
// every two-qubit op touches coupled qubits, every source gate appears
// exactly once per program in dependency order, and measurements match
// the qubit positions at measure time.
func (s *Schedule) Validate(progs []*circuit.Circuit, initial [][]int) error {
	l2p := make([][]int, len(progs))
	for p := range progs {
		l2p[p] = append([]int(nil), initial[p]...)
	}
	next := make([]int, len(progs)) // next expected source gate per program (by DAG order we just check count)
	emitted := make([][]bool, len(progs))
	for p := range progs {
		emitted[p] = make([]bool, len(progs[p].Gates))
	}
	p2l := map[int][2]int{} // phys -> (program, logical)
	bridgeParts := map[[2]int]int{}
	for p, m := range l2p {
		for l, phys := range m {
			if prev, ok := p2l[phys]; ok {
				return fmt.Errorf("router: initial mapping collision on phys %d (%v vs %d/%d)", phys, prev, p, l)
			}
			p2l[phys] = [2]int{p, l}
		}
	}
	type measCheck struct {
		opIndex, program, logical, phys int
	}
	var measChecks []measCheck
	for i, op := range s.Ops {
		if op.Gate.IsTwoQubit() && !s.Device.Coupling.HasEdge(op.Gate.Qubits[0], op.Gate.Qubits[1]) {
			return fmt.Errorf("router: op %d %v on uncoupled qubits", i, op.Gate)
		}
		if op.IsSwap {
			a, b := op.Gate.Qubits[0], op.Gate.Qubits[1]
			la, aok := p2l[a]
			lb, bok := p2l[b]
			if aok {
				l2p[la[0]][la[1]] = b
			}
			if bok {
				l2p[lb[0]][lb[1]] = a
			}
			delete(p2l, a)
			delete(p2l, b)
			if aok {
				p2l[b] = la
			}
			if bok {
				p2l[a] = lb
			}
			continue
		}
		p := op.Program
		if p < 0 || p >= len(progs) {
			return fmt.Errorf("router: op %d has program %d", i, p)
		}
		gi := op.GateIndex
		if gi < 0 || gi >= len(progs[p].Gates) || emitted[p][gi] {
			return fmt.Errorf("router: op %d bad/duplicate gate index %d", i, gi)
		}
		src := progs[p].Gates[gi]
		if src.IsMeasure() {
			// Measurements are deferred and carry final positions;
			// verified after the replay completes.
			measChecks = append(measChecks, measCheck{i, p, src.Qubits[0], op.Gate.Qubits[0]})
			emitted[p][gi] = true
			next[p]++
			continue
		}
		if op.BridgePart > 0 {
			key := [2]int{p, gi}
			if op.BridgePart != bridgeParts[key]+1 {
				return fmt.Errorf("router: op %d bridge part %d out of order", i, op.BridgePart)
			}
			bridgeParts[key] = op.BridgePart
			// Parts 2 and 4 carry the control on the source's control
			// qubit; parts 1 and 3 carry the target on the source's
			// target qubit.
			switch op.BridgePart {
			case 2, 4:
				if op.Gate.Qubits[0] != l2p[p][src.Qubits[0]] {
					return fmt.Errorf("router: op %d bridge control mismatch", i)
				}
			default:
				if op.Gate.Qubits[1] != l2p[p][src.Qubits[1]] {
					return fmt.Errorf("router: op %d bridge target mismatch", i)
				}
			}
			if op.BridgePart == 4 {
				emitted[p][gi] = true
				next[p]++
			}
			continue
		}
		for k, lq := range src.Qubits {
			if l2p[p][lq] != op.Gate.Qubits[k] {
				return fmt.Errorf("router: op %d operand %d: logical %d is at phys %d, op says %d",
					i, k, lq, l2p[p][lq], op.Gate.Qubits[k])
			}
		}
		emitted[p][gi] = true
		next[p]++
	}
	for _, mc := range measChecks {
		if got := l2p[mc.program][mc.logical]; got != mc.phys {
			return fmt.Errorf("router: op %d measures phys %d but logical %d/%d ends at %d",
				mc.opIndex, mc.phys, mc.program, mc.logical, got)
		}
	}
	if len(s.Measurements) != len(measChecks) {
		return fmt.Errorf("router: %d measurement records for %d measure ops", len(s.Measurements), len(measChecks))
	}
	for i, m := range s.Measurements {
		if got := l2p[m.Program][m.Logical]; got != m.Phys {
			return fmt.Errorf("router: measurement %d records phys %d, final position is %d", i, m.Phys, got)
		}
	}
	for p := range progs {
		want := 0
		for _, g := range progs[p].Gates {
			if !g.IsBarrier() {
				want++
			}
		}
		if next[p] != want {
			return fmt.Errorf("router: program %d emitted %d/%d gates", p, next[p], want)
		}
	}
	return nil
}

// Route routes the programs jointly on the device starting from the
// given initial mappings (initial[p][l] = physical qubit of program p's
// logical qubit l). Regions must be disjoint; every physical qubit not
// in any mapping is free. It returns the complete schedule.
func Route(d *arch.Device, progs []*circuit.Circuit, initial [][]int, opts Options) (*Schedule, error) {
	r, err := newRun(d, dagsOf(progs), initial, opts)
	if err != nil {
		return nil, err
	}
	if err := r.route(); err != nil {
		return nil, err
	}
	r.sched.FinalMapping = make([][]int, len(progs))
	for p, pr := range r.progs {
		r.sched.FinalMapping[p] = append([]int(nil), pr.l2p...)
	}
	// Measurements are deferred to the end of the co-located schedule
	// (a program cannot be measured while others still run, §III-C),
	// and later SWAPs — including other programs' inter-program SWAPs —
	// may move an already-"measured" qubit. Rewrite every measurement
	// to the qubit's final physical position.
	for i := range r.sched.Ops {
		op := &r.sched.Ops[i]
		if op.Gate.IsMeasure() && op.Program >= 0 {
			lq := progs[op.Program].Gates[op.GateIndex].Qubits[0]
			op.Gate = circuit.Gate{Name: circuit.GateMeasure, Qubits: []int{r.progs[op.Program].l2p[lq]}}
		}
	}
	for i := range r.sched.Measurements {
		m := &r.sched.Measurements[i]
		m.Phys = r.progs[m.Program].l2p[m.Logical]
	}
	return r.sched, nil
}

// dagsOf builds each program's dependency DAG.
func dagsOf(progs []*circuit.Circuit) []*circuit.DAG {
	dags := make([]*circuit.DAG, len(progs))
	for i, p := range progs {
		dags[i] = circuit.NewDAG(p)
	}
	return dags
}

// newRun validates the inputs and builds the routing state Route drives
// to completion (split out so tests can step the loop manually). It
// takes the programs as DAGs so the reverse traversal can build them
// once for all its passes.
func newRun(d *arch.Device, dags []*circuit.DAG, initial [][]int, opts Options) (*run, error) {
	if len(dags) != len(initial) {
		return nil, fmt.Errorf("router: %d programs but %d mappings", len(dags), len(initial))
	}
	r := &run{
		d:      d,
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		sched:  &Schedule{Device: d, SwapsByProgram: make([]int, len(dags))},
		decay:  make([]float64, d.NumQubits()),
		queue:  make([]int, 0, d.NumQubits()),
		ownGen: 1,
	}
	if opts.NoisePenalty > 0 {
		// Noise-awareness penalizes unreliable links; the term depends
		// only on the edge, so it is computed once per run.
		n := d.NumQubits()
		r.noise = make([]float64, n*n)
		for _, e := range d.Coupling.Edges() {
			rel := 1 - d.CNOTError(e.U, e.V)
			if rel < 1e-9 {
				rel = 1e-9
			}
			r.noise[e.U*n+e.V] = opts.NoisePenalty * 3 * -math.Log(rel)
		}
	}
	r.owner = make([]int, d.NumQubits())
	r.physLog = make([]int, d.NumQubits())
	for q := range r.owner {
		r.owner[q] = -1
		r.physLog[q] = -1
	}
	for p, dag := range dags {
		prog := dag.Circ
		if prog.NumQubits != len(initial[p]) {
			return nil, fmt.Errorf("router: program %d has %d qubits, mapping has %d", p, prog.NumQubits, len(initial[p]))
		}
		pr := &progCtx{
			idx:   p,
			circ:  prog,
			state: circuit.NewState(dag),
			l2p:   append([]int(nil), initial[p]...),
		}
		for l, phys := range pr.l2p {
			if phys < 0 || phys >= d.NumQubits() {
				return nil, fmt.Errorf("router: program %d logical %d mapped to %d", p, l, phys)
			}
			if r.owner[phys] != -1 {
				return nil, fmt.Errorf("router: physical qubit %d assigned twice", phys)
			}
			r.owner[phys] = p
			r.physLog[phys] = l
		}
		r.progs = append(r.progs, pr)
	}
	for p, pr := range r.progs {
		if err := measuresAreTerminal(pr.circ); err != nil {
			return nil, fmt.Errorf("router: program %d: %w", p, err)
		}
	}
	return r, nil
}

// measuresAreTerminal checks that no gate touches a qubit after that
// qubit's measurement: the schedule defers all measurements to the end,
// which is only sound for terminal measurements.
func measuresAreTerminal(c *circuit.Circuit) error {
	measured := make([]bool, c.NumQubits)
	for i, g := range c.Gates {
		if g.IsBarrier() {
			continue
		}
		for _, q := range g.Qubits {
			if measured[q] {
				return fmt.Errorf("gate %d touches qubit %d after its measurement", i, q)
			}
		}
		if g.IsMeasure() {
			measured[g.Qubits[0]] = true
		}
	}
	return nil
}

type progCtx struct {
	idx   int
	circ  *circuit.Circuit
	state *circuit.State
	l2p   []int
	// Blocked-front cache: fb holds the blocked front-layer two-qubit
	// gates, valid while fbOK. It is invalidated whenever the front
	// layer advances (run.exec) or the program's mapping moves
	// (applySwap). Routing asks for the blocked front several times per
	// SWAP step (bridges, candidates, scoring) — the cache makes all but
	// the first ask free. frontBuf is executeCompliant's snapshot of the
	// whole front layer.
	fb       []int
	fbOK     bool
	frontBuf []int
	// Restricted distances (Equation 2's D'_p): hop counts over the
	// qubits that are free or owned by this program, one row per source
	// qubit, filled on first touch. They depend on the ownership map
	// alone, whose changes run.ownGen counts: row src is valid while
	// rowGen[src] == ownGen, and mask while maskGen == ownGen.
	mask    []bool
	maskGen int
	rows    []int // n*n backing store, row src at [src*n, (src+1)*n)
	rowGen  []int
}

type run struct {
	d       *arch.Device
	opts    Options
	rng     *rand.Rand
	progs   []*progCtx
	sched   *Schedule
	owner   []int // phys -> program or -1
	physLog []int // phys -> logical within owner or -1
	// ownGen counts the SWAPs that changed owner (inter-program, or
	// moving a free qubit); intra-program SWAPs leave it alone.
	ownGen int
	decay  []float64
	nswaps int
	// mapOnly marks a reverse-traversal pass, routed only for its final
	// mapping: it keeps the counters but emits no ops.
	mapOnly bool
	// Per-step scratch (see DESIGN.md, "Hot-path memory discipline"):
	// the candidate/scoring loop runs once per inserted SWAP, so its
	// working sets are reused instead of reallocated.
	queue    []int           // restrictedRow BFS scratch
	seenEdge []bool          // swapCandidates dedup, indexed a*n+b
	seenKeys []int           // touched seenEdge entries to clear
	candBuf  []swapCandidate // swapCandidates output buffer
	critBuf  []int           // candidateGates critical-subset buffer
	bestBuf  []swapCandidate // pickSwap tied-best buffer
	noise    []float64       // noise term per coupling edge, indexed a*n+b
	pairs    []int           // current chunk of SWAP operand slices
	// One SWAP decision's lowered scoring state, rebuilt by lower and
	// read by scoreSwap (see DESIGN.md, "Routing cost model").
	snaps   []progSnapshot
	gates   []loweredGate
	gains   []gainEntry
	incHead []int // per physical qubit: its first incidence, or -1
	incNext []int // incidence 2k (2k+1) is gate k's endpoint a (b)
	delta   []int // per scoring slot: the candidate's distance-sum change
}

// exec advances program p past gate gi and invalidates its cached
// blocked front. Every front-layer Execute in the routing loop must go
// through here — a stale front cache would silently change SWAP
// candidates.
func (r *run) exec(p *progCtx, gi int) {
	p.state.Execute(gi)
	p.fbOK = false
}

func (r *run) route() error {
	hops := r.d.Hops()
	stall := 0
	limit := 200 + 20*r.d.NumQubits()
	for {
		progress := r.executeCompliant()
		done := true
		for _, p := range r.progs {
			if !p.state.Done() {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		if progress {
			stall = 0
		} else {
			stall++
		}
		if stall > limit {
			// Livelock backstop: walk the most blocked gate home along
			// its shortest legal path.
			if err := r.forceProgress(hops); err != nil {
				return err
			}
			stall = 0
			continue
		}
		if r.opts.UseBridge && r.tryBridges(hops) {
			stall = 0
			continue
		}
		cands := r.swapCandidates()
		if len(cands) == 0 {
			if err := r.forceProgress(hops); err != nil {
				return err
			}
			continue
		}
		best := r.pickSwap(cands, hops)
		r.applySwap(best, hops)
	}
}

// executeCompliant drains every hardware-compliant gate from all front
// layers (Algorithm 3 lines 4-6), returning whether anything executed.
func (r *run) executeCompliant() bool {
	any := false
	for {
		progress := false
		for _, p := range r.progs {
			p.frontBuf = p.state.AppendFront(p.frontBuf[:0])
			for _, gi := range p.frontBuf {
				g := p.circ.Gates[gi]
				switch {
				case g.IsBarrier():
					r.exec(p, gi)
					progress = true
				case g.IsMeasure():
					phys := p.l2p[g.Qubits[0]]
					r.emit(p, gi, circuit.Gate{Name: circuit.GateMeasure, Qubits: []int{phys}})
					r.sched.Measurements = append(r.sched.Measurements, Measurement{
						Program: p.idx, Logical: g.Qubits[0], Phys: phys,
					})
					r.exec(p, gi)
					progress = true
				case !g.IsTwoQubit():
					r.emitSource(p, gi)
					r.exec(p, gi)
					progress = true
				default:
					a, b := p.l2p[g.Qubits[0]], p.l2p[g.Qubits[1]]
					if r.d.Coupling.HasEdge(a, b) {
						r.emitSource(p, gi)
						r.exec(p, gi)
						progress = true
					}
				}
			}
		}
		if !progress {
			return any
		}
		any = true
	}
}

func (r *run) emit(p *progCtx, gateIndex int, g circuit.Gate) {
	r.sched.Ops = append(r.sched.Ops, Op{Program: p.idx, Gate: g, GateIndex: gateIndex, TriggerProgram: -1})
}

// emitSource emits p's source gate gi on its operands' current physical
// qubits; a mapOnly pass skips the remap along with the op.
func (r *run) emitSource(p *progCtx, gi int) {
	if !r.mapOnly {
		r.emit(p, gi, p.circ.Gates[gi].Remap(func(l int) int { return p.l2p[l] }))
	}
}

// tryBridges executes blocked distance-2 CNOTs whose qubit pair does
// not recur in the look-ahead window as 4-CNOT bridges (middle qubit
// restored, mapping unchanged). Returns whether any gate executed.
func (r *run) tryBridges(hops [][]int) bool {
	any := false
	for _, p := range r.progs {
		for _, gi := range r.blockedFront(p) {
			g := p.circ.Gates[gi]
			if !g.IsCNOT() {
				continue
			}
			c, t := p.l2p[g.Qubits[0]], p.l2p[g.Qubits[1]]
			if hops[c][t] != 2 {
				continue
			}
			if r.pairRecurs(p, g.Qubits[0], g.Qubits[1]) {
				continue // SWAPping pays off for recurring pairs
			}
			m := r.bridgeMiddle(c, t, p.idx)
			if m < 0 {
				continue
			}
			seq := [4][2]int{{m, t}, {c, m}, {m, t}, {c, m}}
			for k, cx := range seq {
				if r.mapOnly {
					break
				}
				r.sched.Ops = append(r.sched.Ops, Op{
					Program:        p.idx,
					Gate:           circuit.Gate{Name: circuit.GateCX, Qubits: []int{cx[0], cx[1]}},
					GateIndex:      gi,
					BridgePart:     k + 1,
					TriggerProgram: -1,
				})
			}
			r.sched.BridgeCount++
			r.exec(p, gi)
			any = true
		}
	}
	return any
}

// pairRecurs reports whether the logical pair (a,b) appears in another
// unexecuted two-qubit gate within the program's look-ahead window.
func (r *run) pairRecurs(p *progCtx, a, b int) bool {
	if a > b {
		a, b = b, a
	}
	window := p.state.ExtendedSet(extendedSetSize)
	for _, gi := range window {
		g := p.circ.Gates[gi]
		x, y := g.Qubits[0], g.Qubits[1]
		if x > y {
			x, y = y, x
		}
		if x == a && y == b {
			return true
		}
	}
	return false
}

// bridgeMiddle returns the most reliable qubit adjacent to both c and t
// that the inter-program policy allows as a bridge middle, or -1.
func (r *run) bridgeMiddle(c, t, prog int) int {
	best, bestRel := -1, -1.0
	for _, m := range r.d.Coupling.Neighbors(c) {
		if !r.d.Coupling.HasEdge(m, t) {
			continue
		}
		if !r.opts.InterProgram && r.owner[m] != -1 && r.owner[m] != prog {
			continue
		}
		rel := (1 - r.d.CNOTError(c, m)) * (1 - r.d.CNOTError(m, t))
		if rel > bestRel {
			best, bestRel = m, rel
		}
	}
	return best
}

// swapCandidate is one candidate SWAP on a coupling edge.
type swapCandidate struct {
	a, b int // physical qubits
	// trigger is the program whose blocked gate generated the
	// candidate (for SWAP attribution).
	trigger int
}

// swapCandidates collects the SWAPs associated with the qubits of the
// candidate gates (critical gates when enabled and present, otherwise
// all blocked front gates), filtered by the inter-program policy. The
// dedup set and output list live on the run and are reused every step;
// the returned slice is valid until the next call.
func (r *run) swapCandidates() []swapCandidate {
	n := r.d.NumQubits()
	if r.seenEdge == nil {
		r.seenEdge = make([]bool, n*n)
	}
	out := r.candBuf[:0]
	r.seenKeys = r.seenKeys[:0]
	for _, p := range r.progs {
		gates := r.candidateGates(p)
		for _, gi := range gates {
			g := p.circ.Gates[gi]
			for _, lq := range g.Qubits {
				phys := p.l2p[lq]
				for _, nb := range r.d.Coupling.Neighbors(phys) {
					if !r.swapAllowed(p.idx, phys, nb) {
						continue
					}
					a, b := phys, nb
					if a > b {
						a, b = b, a
					}
					key := a*n + b
					if r.seenEdge[key] {
						continue
					}
					r.seenEdge[key] = true
					r.seenKeys = append(r.seenKeys, key)
					out = append(out, swapCandidate{a: a, b: b, trigger: p.idx})
				}
			}
		}
	}
	for _, key := range r.seenKeys {
		r.seenEdge[key] = false
	}
	// Candidate edges are unique, so insertion sort by (a, b) yields the
	// same order sort.Slice did, without its per-call allocations; lists
	// are a handful of edges long.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].a < out[j-1].a || (out[j].a == out[j-1].a && out[j].b < out[j-1].b)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	r.candBuf = out
	return out
}

// candidateGates returns the gate indices whose qubits seed SWAP
// candidates for program p: blocked front two-qubit gates, narrowed to
// critical gates when the option is on and any exist.
func (r *run) candidateGates(p *progCtx) []int {
	front := r.blockedFront(p)
	if !r.opts.CriticalGatesOnly {
		return front
	}
	// Both lists are sorted ascending, so the intersection is a linear
	// merge into the reusable critical-subset buffer.
	crit := r.critBuf[:0]
	cg := p.state.CriticalGates()
	i := 0
	for _, gi := range front {
		for i < len(cg) && cg[i] < gi {
			i++
		}
		if i < len(cg) && cg[i] == gi {
			crit = append(crit, gi)
		}
	}
	r.critBuf = crit
	if len(crit) > 0 {
		return crit
	}
	return front
}

// blockedFront returns p's front-layer two-qubit gates that are not
// hardware-compliant (executeCompliant has already drained compliant
// ones, but stay defensive). The result is cached on the program and
// invalidated by exec and applySwap — the only two mutations that can
// change it; callers must not hold the slice across either.
func (r *run) blockedFront(p *progCtx) []int {
	if p.fbOK {
		return p.fb
	}
	front := p.state.AppendFrontTwoQubit(p.fb[:0])
	p.fb = front[:0]
	for _, gi := range front {
		g := p.circ.Gates[gi]
		a, b := p.l2p[g.Qubits[0]], p.l2p[g.Qubits[1]]
		if !r.d.Coupling.HasEdge(a, b) {
			p.fb = append(p.fb, gi)
		}
	}
	p.fbOK = true
	return p.fb
}

// swapAllowed applies the inter-program policy: a SWAP touching another
// program's qubit is only legal under X-SWAP.
func (r *run) swapAllowed(prog, a, b int) bool {
	if r.opts.InterProgram {
		return true
	}
	for _, q := range [2]int{a, b} {
		if r.owner[q] != -1 && r.owner[q] != prog {
			return false
		}
	}
	return true
}

// ownMask returns the qubits program p may route over without crossing
// another program: those that are free or its own.
func (r *run) ownMask(p *progCtx) []bool {
	if p.mask == nil {
		n := r.d.NumQubits()
		p.mask = make([]bool, n)
		p.rows = make([]int, n*n)
		p.rowGen = make([]int, n)
	}
	if p.maskGen != r.ownGen {
		for q, o := range r.owner {
			p.mask[q] = o == -1 || o == p.idx
		}
		p.maskGen = r.ownGen
	}
	return p.mask
}

// restrictedRow returns row src of D'_p: hop distances from src over
// ownMask(p), -1 where unreachable (Equation 2's per-program matrix).
// Rows are filled on first touch and kept until a SWAP moves one of p's
// boundaries; callers must treat the row as read-only.
func (r *run) restrictedRow(p *progCtx, src int) []int {
	mask := r.ownMask(p)
	n := len(mask)
	row := p.rows[src*n : (src+1)*n]
	if p.rowGen[src] != r.ownGen {
		r.d.Coupling.RestrictedHopsFrom(src, mask, row, r.queue)
		p.rowGen[src] = r.ownGen
	}
	return row
}

// progSnapshot is one program's share of a SWAP decision: its blocked
// front gates gates[f0:f1] and extended set gates[f1:e1] lowered to
// physical endpoints, with their distance sums under the current
// mapping, and its Equation 2 gains gains[g0:g1].
type progSnapshot struct {
	p          *progCtx
	f0, f1, e1 int
	sumF, sumE int
	g0, g1     int
}

// loweredGate is a front or extended-set gate on physical qubits: d is
// its current distance (H's summand) and slot the delta it accumulates
// into (2·snapshot for front gates, 2·snapshot+1 for the extended set).
type loweredGate struct {
	a, b, d, slot int
}

// gainEntry is Equation 2's gain (< 0) for a front gate between
// physical qubits s and t.
type gainEntry struct {
	s, t, gain int
}

// distance is H's per-gate summand between physical qubits x and y for
// program p: global hops under X-SWAP, D'_p otherwise; pairs the
// restriction disconnects are strongly discouraged.
func (r *run) distance(p *progCtx, hops [][]int, x, y int) int {
	var d int
	if r.opts.InterProgram {
		d = hops[x][y]
	} else {
		d = r.restrictedRow(p, x)[y]
	}
	if d < 0 {
		return r.d.NumQubits()
	}
	return d
}

// lower rebuilds the scoring state for one SWAP decision: per program
// with a blocked front, the lowered gates, their base distance sums, the
// per-qubit incidence lists scoreSwap walks, and the gains.
func (r *run) lower(hops [][]int) {
	if r.incHead == nil {
		r.incHead = make([]int, r.d.NumQubits())
	}
	for q := range r.incHead {
		r.incHead[q] = -1
	}
	r.snaps, r.gates, r.gains, r.incNext = r.snaps[:0], r.gates[:0], r.gains[:0], r.incNext[:0]
	lowerGates := func(p *progCtx, gis []int, slot int) (sum int) {
		for _, gi := range gis {
			g := p.circ.Gates[gi]
			a, b := p.l2p[g.Qubits[0]], p.l2p[g.Qubits[1]]
			d := r.distance(p, hops, a, b)
			k := len(r.gates)
			r.gates = append(r.gates, loweredGate{a: a, b: b, d: d, slot: slot})
			r.incNext = append(r.incNext, r.incHead[a], r.incHead[b])
			r.incHead[a], r.incHead[b] = 2*k, 2*k+1
			sum += d
		}
		return sum
	}
	for _, p := range r.progs {
		front := r.blockedFront(p)
		if len(front) == 0 {
			continue
		}
		slot := 2 * len(r.snaps)
		snap := progSnapshot{p: p, f0: len(r.gates), g0: len(r.gains)}
		snap.sumF = lowerGates(p, front, slot)
		snap.f1 = len(r.gates)
		snap.sumE = lowerGates(p, p.state.ExtendedSet(extendedSetSize), slot+1)
		snap.e1 = len(r.gates)
		if r.opts.InterProgram && r.opts.GainTerm {
			for _, g := range r.gates[snap.f0:snap.f1] {
				dOwn := r.restrictedRow(p, g.a)[g.b]
				if dOwn < 0 {
					dOwn = r.d.NumQubits() * 2
				}
				if gain := hops[g.a][g.b] - dOwn; gain < 0 {
					r.gains = append(r.gains, gainEntry{s: g.a, t: g.b, gain: gain})
				}
			}
		}
		snap.g1 = len(r.gains)
		r.snaps = append(r.snaps, snap)
	}
	for len(r.delta) < 2*len(r.snaps) {
		r.delta = append(r.delta, 0)
	}
}

// pickSwap scores every candidate with the heuristic cost function
// (Equation 3) and returns the minimum; ties break uniformly at random,
// the only read of the seeded RNG that can matter (Intn(1) is 0 in every
// RNG state), and each one is counted in TieBreaks.
func (r *run) pickSwap(cands []swapCandidate, hops [][]int) swapCandidate {
	r.lower(hops)
	best := r.bestBuf[:0]
	bestScore := math.Inf(1)
	for _, c := range cands {
		s := r.scoreSwap(c, hops)
		switch {
		case s < bestScore-1e-9:
			bestScore = s
			best = best[:0]
			best = append(best, c)
		case s <= bestScore+1e-9:
			best = append(best, c)
		}
	}
	r.bestBuf = best
	if len(best) > 1 {
		r.sched.TieBreaks++
	}
	return best[r.rng.Intn(len(best))]
}

// scoreSwap computes score(SWAP) = H(SWAP) + Σ_i (1/|F_i|) Σ_g
// gain(g)·I(SWAP,g) plus the decay and noise terms, against the state
// lower built. Only gates with an endpoint on c.a or c.b change distance
// under the SWAP, so H is the base sums plus those gates' deltas; the
// sums are small integers, which float64 adds exactly, so each
// program's term equals a gate-by-gate float accumulation bit for bit.
func (r *run) scoreSwap(c swapCandidate, hops [][]int) float64 {
	for _, q := range [2]int{c.a, c.b} {
		for e := r.incHead[q]; e >= 0; e = r.incNext[e] {
			g := &r.gates[e>>1]
			// Trial mapping: where the endpoints would be after the
			// swap. A gate spanning the candidate edge is visited from
			// both ends and adds 0 twice (distances are symmetric).
			x, y := g.a, g.b
			switch x {
			case c.a:
				x = c.b
			case c.b:
				x = c.a
			}
			switch y {
			case c.a:
				y = c.b
			case c.b:
				y = c.a
			}
			r.delta[g.slot] += r.distance(r.snaps[g.slot>>1].p, hops, x, y) - g.d
		}
	}
	h := 0.0
	for si := range r.snaps {
		snap := &r.snaps[si]
		nf := float64(snap.f1 - snap.f0)
		h += float64(snap.sumF+r.delta[2*si]) / nf
		if ne := snap.e1 - snap.f1; ne > 0 {
			h += extendedSetWeight * float64(snap.sumE+r.delta[2*si+1]) / float64(ne)
		}
		r.delta[2*si], r.delta[2*si+1] = 0, 0

		// Gain term (Equations 2-3): prioritize SWAPs lying on the
		// global shortest path of gates for which inter-program routing
		// is shorter than intra-program routing; gain(g) = D - D'_i < 0
		// lowers the score of such SWAPs.
		if r.opts.InterProgram && r.opts.GainTerm {
			gsum := 0
			for _, ge := range r.gains[snap.g0:snap.g1] {
				if onShortestPath(hops, ge.s, ge.t, c.a, c.b) {
					gsum += ge.gain
				}
			}
			h += float64(gsum) / nf
		}
	}

	// Decay discourages revisiting recently swapped qubits.
	dec := r.decay[c.a]
	if r.decay[c.b] > dec {
		dec = r.decay[c.b]
	}
	h *= 1 + dec

	if r.noise != nil {
		h += r.noise[c.a*r.d.NumQubits()+c.b]
	}
	return h
}

// onShortestPath reports whether the edge {a,b} lies on some shortest
// path between s and t.
func onShortestPath(hops [][]int, s, t, a, b int) bool {
	d := hops[s][t]
	if d < 0 {
		return false
	}
	if hops[s][a] >= 0 && hops[b][t] >= 0 && hops[s][a]+1+hops[b][t] == d {
		return true
	}
	return hops[s][b] >= 0 && hops[a][t] >= 0 && hops[s][b]+1+hops[a][t] == d
}

// operands returns {a, b} as a SWAP's operand slice, carved out of a
// chunk shared by a few hundred SWAPs (capacity-limited, so appending to
// one never reaches its neighbor) instead of allocated per SWAP.
func (r *run) operands(a, b int) []int {
	if len(r.pairs)+2 > cap(r.pairs) {
		r.pairs = make([]int, 0, 512)
	}
	r.pairs = append(r.pairs, a, b)
	return r.pairs[len(r.pairs)-2 : len(r.pairs) : len(r.pairs)]
}

// applySwap emits the SWAP and updates mappings, ownership and decay.
func (r *run) applySwap(c swapCandidate, hops [][]int) {
	inter := r.owner[c.a] != -1 && r.owner[c.b] != -1 && r.owner[c.a] != r.owner[c.b]
	if !r.mapOnly {
		r.sched.Ops = append(r.sched.Ops, Op{
			Program:        -1,
			Gate:           circuit.Gate{Name: circuit.GateSWAP, Qubits: r.operands(c.a, c.b)},
			IsSwap:         true,
			InterProgram:   inter,
			GateIndex:      -1,
			TriggerProgram: c.trigger,
		})
	}
	r.sched.SwapCount++
	if inter {
		r.sched.InterSwapCount++
	}
	if c.trigger >= 0 && c.trigger < len(r.sched.SwapsByProgram) {
		r.sched.SwapsByProgram[c.trigger]++
	}

	oa, ob := r.owner[c.a], r.owner[c.b]
	la, lb := r.physLog[c.a], r.physLog[c.b]
	if oa != -1 {
		r.progs[oa].l2p[la] = c.b
		r.progs[oa].fbOK = false
	}
	if ob != -1 {
		r.progs[ob].l2p[lb] = c.a
		r.progs[ob].fbOK = false
	}
	r.owner[c.a], r.owner[c.b] = ob, oa
	r.physLog[c.a], r.physLog[c.b] = lb, la
	if oa != ob {
		r.ownGen++ // a program boundary moved: every D'_p row is stale
	}

	r.nswaps++
	if r.nswaps%decayResetInterval == 0 {
		for i := range r.decay {
			r.decay[i] = 0
		}
	} else {
		r.decay[c.a] += decayFactor
		r.decay[c.b] += decayFactor
	}
}

// forceProgress routes the single most-blocked gate directly: it walks
// one endpoint toward the other along a legal shortest path, emitting
// the needed SWAPs. Guarantees termination when heuristic search stalls.
func (r *run) forceProgress(hops [][]int) error {
	// Pick the blocked gate with the smallest current distance.
	var (
		bp   *progCtx
		bg   = -1
		bd   = 1 << 30
		path []int
	)
	for _, p := range r.progs {
		for _, gi := range r.blockedFront(p) {
			g := p.circ.Gates[gi]
			s, t := p.l2p[g.Qubits[0]], p.l2p[g.Qubits[1]]
			var pth []int
			if r.opts.InterProgram {
				pth = r.d.Coupling.ShortestPath(s, t)
			} else {
				pth = r.d.Coupling.ShortestPathWithin(s, t, r.ownMask(p))
			}
			if pth == nil {
				continue
			}
			if len(pth) < bd {
				bp, bg, bd, path = p, gi, len(pth), pth
			}
		}
	}
	if bg < 0 {
		return fmt.Errorf("router: no blocked gate is routable; chip regions disconnected")
	}
	// Swap the source endpoint along the path until adjacent.
	for i := 0; i+2 < len(path); i++ {
		r.applySwap(swapCandidate{a: min(path[i], path[i+1]), b: max(path[i], path[i+1]), trigger: bp.idx}, hops)
	}
	return nil
}
