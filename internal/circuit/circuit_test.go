package circuit

import (
	"fmt"
	"reflect"
	"testing"
)

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range qubit must panic")
		}
	}()
	New("x", 2).H(2)
}

func TestDuplicateQubitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cx q,q must panic")
		}
	}()
	New("x", 2).CX(1, 1)
}

func TestCounts(t *testing.T) {
	c := New("t", 3)
	c.H(0).CX(0, 1).SWAP(1, 2).T(2).Measure(0)
	if got := c.CNOTCount(); got != 4 { // 1 cx + swap as 3
		t.Fatalf("CNOTCount = %d, want 4", got)
	}
	if got := c.RawCNOTCount(); got != 2 {
		t.Fatalf("RawCNOTCount = %d, want 2", got)
	}
	if got := c.Gate1Count(); got != 2 {
		t.Fatalf("Gate1Count = %d, want 2", got)
	}
	if got := c.MeasureCount(); got != 1 {
		t.Fatalf("MeasureCount = %d, want 1", got)
	}
}

func TestDepthSequentialVsParallel(t *testing.T) {
	seq := New("seq", 2).H(0).H(0).H(0)
	if seq.Depth() != 3 {
		t.Fatalf("sequential depth = %d, want 3", seq.Depth())
	}
	par := New("par", 3).H(0).H(1).H(2)
	if par.Depth() != 1 {
		t.Fatalf("parallel depth = %d, want 1", par.Depth())
	}
	mix := New("mix", 3).CX(0, 1).CX(1, 2) // chained on qubit 1
	if mix.Depth() != 2 {
		t.Fatalf("chained depth = %d, want 2", mix.Depth())
	}
}

func TestDepthSwapCostsThree(t *testing.T) {
	c := New("s", 2).SWAP(0, 1)
	if c.Depth() != 3 {
		t.Fatalf("swap depth = %d, want 3", c.Depth())
	}
}

func TestDepthBarrierSynchronizes(t *testing.T) {
	c := New("b", 2)
	c.H(0).H(0).Add(Gate{Name: GateBarrier}).H(1)
	// Qubit 1's H cannot start before layer 2 (barrier after 2 layers).
	if c.Depth() != 3 {
		t.Fatalf("barrier depth = %d, want 3", c.Depth())
	}
}

func TestInteractionGraph(t *testing.T) {
	c := New("ig", 3)
	c.CX(0, 1).CX(0, 1).CX(1, 2)
	g := c.InteractionGraph()
	if g.Weight(0, 1) != 2 || g.Weight(1, 2) != 1 || g.Weight(0, 2) != 0 {
		t.Fatalf("weights = %v %v %v", g.Weight(0, 1), g.Weight(1, 2), g.Weight(0, 2))
	}
}

func TestCompose(t *testing.T) {
	a := New("a", 2).CX(0, 1)
	merged := New("m", 5)
	merged.Compose(a, 0)
	merged.Compose(a, 3)
	if len(merged.Gates) != 2 {
		t.Fatalf("gates = %d", len(merged.Gates))
	}
	if got := merged.Gates[1].Qubits; !reflect.DeepEqual(got, []int{3, 4}) {
		t.Fatalf("offset qubits = %v", got)
	}
}

func TestComposeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing compose must panic")
		}
	}()
	New("m", 3).Compose(New("a", 2).CX(0, 1), 2)
}

// Validate checks all gate operands are in range and arities are legal.
func (c *Circuit) Validate() error {
	for i, g := range c.Gates {
		if err := g.validateArity(); err != nil {
			return fmt.Errorf("circuit %q gate %d: %w", c.Name, i, err)
		}
		for _, q := range g.Qubits {
			if q < 0 || q >= c.NumQubits {
				return fmt.Errorf("circuit %q gate %d: qubit %d out of range", c.Name, i, q)
			}
		}
	}
	return nil
}

func TestValidate(t *testing.T) {
	c := New("v", 2).CX(0, 1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Gates = append(c.Gates, Gate{Name: GateCX, Qubits: []int{0, 5}})
	if err := c.Validate(); err == nil {
		t.Fatal("Validate must catch out-of-range qubits")
	}
}

func TestMeasureAll(t *testing.T) {
	c := New("m", 3).MeasureAll()
	if c.MeasureCount() != 3 {
		t.Fatalf("measures = %d", c.MeasureCount())
	}
}

func TestGateString(t *testing.T) {
	g := Gate{Name: GateRZ, Qubits: []int{2}, Params: []float64{0.5}}
	if got := g.String(); got != "rz(0.5) q[2]" {
		t.Fatalf("String = %q", got)
	}
	if got := (Gate{Name: GateCX, Qubits: []int{0, 1}}).String(); got != "cx q[0],q[1]" {
		t.Fatalf("String = %q", got)
	}
}

func TestGateRemap(t *testing.T) {
	g := Gate{Name: GateCX, Qubits: []int{0, 1}}.Remap(func(q int) int { return q + 10 })
	if !reflect.DeepEqual(g.Qubits, []int{10, 11}) {
		t.Fatalf("remap = %v", g.Qubits)
	}
}

func TestToffoliDecomposition(t *testing.T) {
	c := New("ccx", 3)
	AppendToffoli(c, 0, 1, 2)
	if got := c.RawCNOTCount(); got != 6 {
		t.Fatalf("toffoli CNOTs = %d, want 6", got)
	}
	if got := len(c.Gates); got != 15 {
		t.Fatalf("toffoli gates = %d, want 15", got)
	}
}
