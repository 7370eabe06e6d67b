package circuit

import (
	"reflect"
	"testing"
	"testing/quick"
)

// paperFigure11 builds the Figure 11 example: 4 CNOT layers where g1 is
// critical (successor g3 on l2) and g2 is not.
//
//	g1 = cx q0,q1   (l1)
//	g2 = cx q2,q3   (l1)  -- no successors
//	g3 = cx q1,q4   (l2, depends on g1)
func paperFigure11() *Circuit {
	c := New("fig11", 5)
	c.CX(0, 1) // 0: g1
	c.CX(2, 3) // 1: g2
	c.CX(1, 4) // 2: g3 depends on g1
	return c
}

func TestDAGEdges(t *testing.T) {
	d := NewDAG(paperFigure11())
	if !reflect.DeepEqual(d.Succ[0], []int{2}) {
		t.Fatalf("succ(g1) = %v, want [2]", d.Succ[0])
	}
	if len(d.Succ[1]) != 0 {
		t.Fatalf("succ(g2) = %v, want empty", d.Succ[1])
	}
	if !reflect.DeepEqual(d.Pred[2], []int{0}) {
		t.Fatalf("pred(g3) = %v, want [0]", d.Pred[2])
	}
}

func TestFrontLayerAndExecute(t *testing.T) {
	s := NewState(NewDAG(paperFigure11()))
	if got := s.AppendFront(nil); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("front = %v, want [0 1]", got)
	}
	s.Execute(0)
	if got := s.AppendFront(nil); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("front after g1 = %v, want [1 2]", got)
	}
	s.Execute(1)
	s.Execute(2)
	if !s.Done() {
		t.Fatal("all gates executed, state must be done")
	}
}

func TestExecuteNonFrontPanics(t *testing.T) {
	s := NewState(NewDAG(paperFigure11()))
	defer func() {
		if recover() == nil {
			t.Fatal("executing a non-front gate must panic")
		}
	}()
	s.Execute(2)
}

func TestCriticalGates(t *testing.T) {
	// Figure 11: g1 in F has successor g3 on l2 -> critical; g2 has no
	// successors -> not critical.
	s := NewState(NewDAG(paperFigure11()))
	if got := s.CriticalGates(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("critical = %v, want [0]", got)
	}
}

func TestCriticalGatesLookThrough1Q(t *testing.T) {
	// A 1q gate between two CNOTs must not hide the criticality.
	c := New("c", 3)
	c.CX(0, 1) // 0
	c.H(1)     // 1
	c.CX(1, 2) // 2
	s := NewState(NewDAG(c))
	if got := s.CriticalGates(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("critical = %v, want [0]", got)
	}
}

func TestFrontTwoQubitSkips1Q(t *testing.T) {
	c := New("c", 2)
	c.H(0).CX(0, 1)
	s := NewState(NewDAG(c))
	if got := s.AppendFrontTwoQubit(nil); len(got) != 0 {
		t.Fatalf("front 2q = %v, want empty (cx blocked by h)", got)
	}
	s.Execute(0)
	if got := s.AppendFrontTwoQubit(nil); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("front 2q = %v, want [1]", got)
	}
}

func TestExtendedSet(t *testing.T) {
	c := New("c", 4)
	c.CX(0, 1) // 0 front
	c.CX(1, 2) // 1
	c.CX(2, 3) // 2
	s := NewState(NewDAG(c))
	got := s.ExtendedSet(10)
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("extended = %v, want [1 2]", got)
	}
	if got := s.ExtendedSet(1); len(got) != 1 {
		t.Fatalf("extended limited = %v, want 1 entry", got)
	}
}

func TestBarrierOrdersAcrossQubits(t *testing.T) {
	c := New("b", 2)
	c.H(0)                         // 0
	c.Add(Gate{Name: GateBarrier}) // 1
	c.H(1)                         // 2: must depend on barrier
	d := NewDAG(c)
	if !reflect.DeepEqual(d.Pred[2], []int{1}) {
		t.Fatalf("pred(h q1) = %v, want [1]", d.Pred[2])
	}
}

// Property: executing gates in any front-respecting order visits each
// gate exactly once and ends Done.
func TestStateExhaustionProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed % 5)
		if n < 0 {
			n = -n
		}
		n += 2
		c := New("r", n)
		s := seed
		for k := 0; k < 3*n; k++ {
			s = s*6364136223846793005 + 1442695040888963407
			a := int(uint64(s)>>33) % n
			b := int(uint64(s)>>13) % n
			if a == b {
				c.H(a)
			} else {
				c.CX(a, b)
			}
		}
		st := NewState(NewDAG(c))
		steps := 0
		for !st.Done() {
			f := st.AppendFront(nil)
			if len(f) == 0 {
				return false // deadlock
			}
			// Execute the highest-index front gate to stress ordering.
			st.Execute(f[len(f)-1])
			steps++
			if steps > len(c.Gates) {
				return false
			}
		}
		return steps == len(c.Gates)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
