package circuit

import (
	"slices"
	"sort"
)

// DAG is the data-dependency graph of a circuit: gate i precedes gate j
// when they share a qubit and i comes first, with transitively implied
// edges omitted (each qubit contributes a chain). Barriers order
// everything before them against everything after.
type DAG struct {
	Circ *Circuit
	// Succ[i] and Pred[i] are the direct successors/predecessors of
	// gate i, sorted ascending.
	Succ [][]int
	Pred [][]int
}

// NewDAG builds the dependency DAG of c.
func NewDAG(c *Circuit) *DAG {
	n := len(c.Gates)
	d := &DAG{
		Circ: c,
		Succ: make([][]int, n),
		Pred: make([][]int, n),
	}
	last := make([]int, c.NumQubits) // last gate index touching qubit, -1 if none
	for i := range last {
		last[i] = -1
	}
	addEdge := func(from, to int) {
		d.Succ[from] = append(d.Succ[from], to)
		d.Pred[to] = append(d.Pred[to], from)
	}
	barrierFrontier := -1
	for i, g := range c.Gates {
		if g.IsBarrier() {
			// A barrier depends on the last gate of every qubit.
			seen := map[int]bool{}
			for q := 0; q < c.NumQubits; q++ {
				if last[q] >= 0 && !seen[last[q]] {
					seen[last[q]] = true
					addEdge(last[q], i)
				}
				last[q] = i
			}
			barrierFrontier = i
			continue
		}
		seen := map[int]bool{}
		for _, q := range g.Qubits {
			if last[q] >= 0 && !seen[last[q]] {
				seen[last[q]] = true
				addEdge(last[q], i)
			}
			last[q] = i
		}
		if len(seen) == 0 && barrierFrontier >= 0 {
			addEdge(barrierFrontier, i)
		}
	}
	for i := 0; i < n; i++ {
		sort.Ints(d.Succ[i])
		sort.Ints(d.Pred[i])
	}
	return d
}

// State tracks routing progress over a DAG: which gates have been
// emitted and which are currently in the front layer (no unexecuted
// predecessors). It is the per-program "program context" of Algorithm 3.
//
// The front layer is kept as a sorted slice that Execute edits in place,
// and the two look-ahead queries routing asks once per SWAP decision —
// ExtendedSet and CriticalGates — are memoised: both depend only on the
// DAG frontier, so Execute is the single mutation that invalidates them.
type State struct {
	dag      *DAG
	executed []bool
	npred    []int
	front    []int // sorted ascending
	inFront  []bool
	done     int

	ext      []int // ExtendedSet(extLimit) while extOK
	extLimit int
	extOK    bool
	crit     []int // CriticalGates() while critOK
	critOK   bool
	// Traversal scratch: seen[i] == stamp marks gate i visited by the
	// current walk, so clearing the set is one increment.
	seen  []uint32
	stamp uint32
	work  []int
}

// NewState returns a fresh routing state with the initial front layer
// populated.
func NewState(d *DAG) *State {
	n := len(d.Circ.Gates)
	s := &State{
		dag:      d,
		executed: make([]bool, n),
		npred:    make([]int, n),
		inFront:  make([]bool, n),
		seen:     make([]uint32, n),
	}
	for i := 0; i < n; i++ {
		s.npred[i] = len(d.Pred[i])
		if s.npred[i] == 0 {
			s.front = append(s.front, i)
			s.inFront[i] = true
		}
	}
	return s
}

// Done reports whether every gate has been executed.
func (s *State) Done() bool { return s.done == len(s.executed) }

// AppendFront appends the front layer to dst in ascending order and
// returns the extended slice, for callers that execute gates while
// walking a snapshot of the layer.
func (s *State) AppendFront(dst []int) []int { return append(dst, s.front...) }

// AppendFrontTwoQubit appends the front-layer two-qubit gates (the only
// ones that can be hardware-incompliant) to dst in ascending order and
// returns the extended slice.
func (s *State) AppendFrontTwoQubit(dst []int) []int {
	for _, i := range s.front {
		if s.dag.Circ.Gates[i].IsTwoQubit() {
			dst = append(dst, i)
		}
	}
	return dst
}

// Execute marks gate i as done, updating the front layer. It panics if
// i is not currently in the front layer (dependency violation).
func (s *State) Execute(i int) {
	if i < 0 || i >= len(s.inFront) || !s.inFront[i] {
		panic("circuit: executing a gate outside the front layer")
	}
	at, _ := slices.BinarySearch(s.front, i)
	s.front = slices.Delete(s.front, at, at+1)
	s.inFront[i] = false
	s.executed[i] = true
	s.done++
	s.extOK, s.critOK = false, false
	for _, succ := range s.dag.Succ[i] {
		s.npred[succ]--
		if s.npred[succ] == 0 && !s.executed[succ] {
			at, _ := slices.BinarySearch(s.front, succ)
			s.front = slices.Insert(s.front, at, succ)
			s.inFront[succ] = true
		}
	}
}

// newWalk starts a traversal: it empties the visited set and returns the
// work list, emptied.
func (s *State) newWalk() []int {
	s.stamp++
	if s.stamp == 0 { // wrapped: stale marks could alias the new stamp
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.stamp = 1
	}
	return s.work[:0]
}

// CriticalGates returns the front-layer two-qubit gates that have at
// least one two-qubit successor whose remaining dependencies would be
// (partly) resolved by executing them — the paper's Critical Gates (CG):
// CNOTs in F with successors on the second layer. Resolving them first
// advances the front layer fastest. The result is sorted, owned by the
// state and valid until the next Execute; callers must not modify it.
func (s *State) CriticalGates() []int {
	if s.critOK {
		return s.crit
	}
	s.crit = s.crit[:0]
	for _, i := range s.front {
		if s.dag.Circ.Gates[i].IsTwoQubit() && s.hasTwoQubitDescendantInSecondLayer(i) {
			s.crit = append(s.crit, i)
		}
	}
	s.critOK = true
	return s.crit
}

// hasTwoQubitDescendantInSecondLayer reports whether front gate i has a
// successor two-qubit gate reachable through only already-executed or
// single-qubit gates — i.e. a CNOT on the "second layer" that executing
// i helps unblock.
func (s *State) hasTwoQubitDescendantInSecondLayer(i int) bool {
	stack := append(s.newWalk(), s.dag.Succ[i]...)
	found := false
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.seen[j] == s.stamp || s.executed[j] {
			continue
		}
		s.seen[j] = s.stamp
		if s.dag.Circ.Gates[j].IsTwoQubit() {
			found = true
			break
		}
		// 1q gates and barriers are free; look through them.
		stack = append(stack, s.dag.Succ[j]...)
	}
	s.work = stack[:0]
	return found
}

// ExtendedSet returns up to limit unexecuted two-qubit gates that follow
// the front layer in dependency order (SABRE's look-ahead window E). The
// result is sorted, owned by the state and valid until the next Execute;
// callers must not modify it.
func (s *State) ExtendedSet(limit int) []int {
	if s.extOK && s.extLimit == limit {
		return s.ext
	}
	out := s.ext[:0]
	// BFS from the front layer through the DAG.
	queue := append(s.newWalk(), s.front...)
	for head := 0; head < len(queue) && len(out) < limit; head++ {
		for _, succ := range s.dag.Succ[queue[head]] {
			if s.seen[succ] == s.stamp || s.executed[succ] {
				continue
			}
			s.seen[succ] = s.stamp
			if s.dag.Circ.Gates[succ].IsTwoQubit() && !s.inFront[succ] {
				out = append(out, succ)
				if len(out) >= limit {
					break
				}
			}
			queue = append(queue, succ)
		}
	}
	s.work = queue[:0]
	sort.Ints(out)
	s.ext, s.extLimit, s.extOK = out, limit, true
	return out
}
