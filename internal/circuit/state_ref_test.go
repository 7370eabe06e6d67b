package circuit

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refState is the map-based routing state the incremental State
// replaced, kept as the oracle: every query rebuilds its answer from the
// front-layer map with fresh allocations, exactly as the router used to
// see it.
type refState struct {
	dag      *DAG
	executed []bool
	npred    []int
	front    map[int]bool
}

func newRefState(d *DAG) *refState {
	n := len(d.Circ.Gates)
	s := &refState{dag: d, executed: make([]bool, n), npred: make([]int, n), front: map[int]bool{}}
	for i := 0; i < n; i++ {
		s.npred[i] = len(d.Pred[i])
		if s.npred[i] == 0 {
			s.front[i] = true
		}
	}
	return s
}

func (s *refState) Front() []int {
	out := make([]int, 0, len(s.front))
	for i := range s.front {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func (s *refState) FrontTwoQubit() []int {
	var out []int
	for i := range s.front {
		if s.dag.Circ.Gates[i].IsTwoQubit() {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

func (s *refState) Execute(i int) {
	delete(s.front, i)
	s.executed[i] = true
	for _, succ := range s.dag.Succ[i] {
		s.npred[succ]--
		if s.npred[succ] == 0 && !s.executed[succ] {
			s.front[succ] = true
		}
	}
}

func (s *refState) CriticalGates() []int {
	var out []int
	for i := range s.front {
		if s.dag.Circ.Gates[i].IsTwoQubit() && s.hasTwoQubitDescendantInSecondLayer(i) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

func (s *refState) hasTwoQubitDescendantInSecondLayer(i int) bool {
	seen := map[int]bool{}
	stack := append([]int(nil), s.dag.Succ[i]...)
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[j] || s.executed[j] {
			continue
		}
		seen[j] = true
		if s.dag.Circ.Gates[j].IsTwoQubit() {
			return true
		}
		stack = append(stack, s.dag.Succ[j]...)
	}
	return false
}

func (s *refState) ExtendedSet(limit int) []int {
	var out []int
	seen := map[int]bool{}
	queue := s.Front()
	for len(queue) > 0 && len(out) < limit {
		i := queue[0]
		queue = queue[1:]
		for _, succ := range s.dag.Succ[i] {
			if seen[succ] || s.executed[succ] {
				continue
			}
			seen[succ] = true
			if s.dag.Circ.Gates[succ].IsTwoQubit() && !s.front[succ] {
				out = append(out, succ)
				if len(out) >= limit {
					break
				}
			}
			queue = append(queue, succ)
		}
	}
	sort.Ints(out)
	return out
}

// randomCircuit draws a circuit of 1q gates, CNOTs, barriers and
// trailing measurements over 2..9 qubits.
func randomCircuit(rng *rand.Rand) *Circuit {
	n := 2 + rng.Intn(8)
	c := New("rand", n)
	for k, gates := 0, 5+rng.Intn(60); k < gates; k++ {
		switch r := rng.Intn(20); {
		case r == 0:
			c.Add(Gate{Name: GateBarrier})
		case r < 6:
			c.H(rng.Intn(n))
		default:
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			c.CX(a, b)
		}
	}
	if rng.Intn(2) == 0 {
		c.MeasureAll()
	}
	return c
}

// TestStateMatchesReference drives the incremental State and the
// map-based reference through the same random legal Execute order on
// random DAGs and compares every query after every step. Queries are
// asked twice, and at two window sizes, so memo hits and the
// limit-change path are both covered.
func TestStateMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dag := NewDAG(randomCircuit(rng))
		st, ref := NewState(dag), newRefState(dag)
		for step := 0; ; step++ {
			for rep := 0; rep < 2; rep++ {
				if got, want := st.AppendFront(nil), ref.Front(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Front %v, reference %v", seed, step, got, want)
				}
				if got, want := st.AppendFrontTwoQubit(nil), ref.FrontTwoQubit(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: front 2q %v, reference %v", seed, step, got, want)
				}
				if got, want := st.CriticalGates(), ref.CriticalGates(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: CriticalGates %v, reference %v", seed, step, got, want)
				}
				for _, limit := range []int{20, 3, 0} {
					if got, want := st.ExtendedSet(limit), ref.ExtendedSet(limit); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: ExtendedSet(%d) %v, reference %v", seed, step, limit, got, want)
					}
				}
			}
			if st.Done() {
				break
			}
			front := ref.Front()
			gi := front[rng.Intn(len(front))]
			st.Execute(gi)
			ref.Execute(gi)
		}
	}
}

// TestStateQueriesDoNotAllocate is the allocation guard for the routing
// loop's per-decision queries: on a warm state ExtendedSet (memo hit and
// recomputation after Execute invalidated it), CriticalGates and the
// front snapshot all run in the state's own scratch.
func TestStateQueriesDoNotAllocate(t *testing.T) {
	c := New("chain", 6)
	for k := 0; k < 400; k++ {
		c.CX(k%6, (k+1)%6).H(k % 6)
	}
	st := NewState(NewDAG(c))
	buf := make([]int, 0, 16)
	warm := func() {
		st.ExtendedSet(20)
		st.CriticalGates()
		buf = st.AppendFront(buf[:0])
	}
	warm()
	if n := testing.AllocsPerRun(100, func() { warm() }); n != 0 {
		t.Fatalf("memoised queries allocate %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		st.Execute(st.front[0])
		warm()
	}); n != 0 {
		t.Fatalf("Execute + recomputed queries allocate %.1f per run, want 0", n)
	}
}
