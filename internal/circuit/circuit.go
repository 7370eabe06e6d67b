package circuit

import (
	"fmt"

	"repro/internal/graph"
)

// Circuit is a quantum program: an ordered gate list over NumQubits
// logical qubits (indices 0..NumQubits-1).
type Circuit struct {
	Name      string
	NumQubits int
	Gates     []Gate
}

// New returns an empty circuit over n logical qubits.
func New(name string, n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{Name: name, NumQubits: n}
}

// Add appends a gate, validating that its qubits are in range.
func (c *Circuit) Add(g Gate) *Circuit {
	for _, q := range g.Qubits {
		if q < 0 || q >= c.NumQubits {
			panic(fmt.Sprintf("circuit %q: qubit %d out of range [0,%d)", c.Name, q, c.NumQubits))
		}
	}
	if err := g.validateArity(); err != nil {
		panic(err)
	}
	c.Gates = append(c.Gates, g)
	return c
}

// Convenience builders. Each appends the gate and returns the circuit so
// constructions chain.

// H appends a Hadamard on q.
func (c *Circuit) H(q int) *Circuit { return c.Add(Gate{Name: GateH, Qubits: []int{q}}) }

// X appends a Pauli-X on q.
func (c *Circuit) X(q int) *Circuit { return c.Add(Gate{Name: GateX, Qubits: []int{q}}) }

// Y appends a Pauli-Y on q.
func (c *Circuit) Y(q int) *Circuit { return c.Add(Gate{Name: GateY, Qubits: []int{q}}) }

// Z appends a Pauli-Z on q.
func (c *Circuit) Z(q int) *Circuit { return c.Add(Gate{Name: GateZ, Qubits: []int{q}}) }

// S appends an S gate on q.
func (c *Circuit) S(q int) *Circuit { return c.Add(Gate{Name: GateS, Qubits: []int{q}}) }

// Sdg appends an S-dagger on q.
func (c *Circuit) Sdg(q int) *Circuit { return c.Add(Gate{Name: GateSdg, Qubits: []int{q}}) }

// T appends a T gate on q.
func (c *Circuit) T(q int) *Circuit { return c.Add(Gate{Name: GateT, Qubits: []int{q}}) }

// Tdg appends a T-dagger on q.
func (c *Circuit) Tdg(q int) *Circuit { return c.Add(Gate{Name: GateTdg, Qubits: []int{q}}) }

// RZ appends a Z-rotation by theta on q.
func (c *Circuit) RZ(theta float64, q int) *Circuit {
	return c.Add(Gate{Name: GateRZ, Qubits: []int{q}, Params: []float64{theta}})
}

// RX appends an X-rotation by theta on q.
func (c *Circuit) RX(theta float64, q int) *Circuit {
	return c.Add(Gate{Name: GateRX, Qubits: []int{q}, Params: []float64{theta}})
}

// RY appends a Y-rotation by theta on q.
func (c *Circuit) RY(theta float64, q int) *Circuit {
	return c.Add(Gate{Name: GateRY, Qubits: []int{q}, Params: []float64{theta}})
}

// CX appends a CNOT with the given control and target.
func (c *Circuit) CX(control, target int) *Circuit {
	return c.Add(Gate{Name: GateCX, Qubits: []int{control, target}})
}

// CZ appends a controlled-Z between a and b.
func (c *Circuit) CZ(a, b int) *Circuit { return c.Add(Gate{Name: GateCZ, Qubits: []int{a, b}}) }

// SWAP appends a SWAP between a and b.
func (c *Circuit) SWAP(a, b int) *Circuit { return c.Add(Gate{Name: GateSWAP, Qubits: []int{a, b}}) }

// Measure appends a measurement of q.
func (c *Circuit) Measure(q int) *Circuit {
	return c.Add(Gate{Name: GateMeasure, Qubits: []int{q}})
}

// MeasureAll appends measurements on every qubit.
func (c *Circuit) MeasureAll() *Circuit {
	for q := 0; q < c.NumQubits; q++ {
		c.Measure(q)
	}
	return c
}

// CNOTCount returns the number of two-qubit gates, counting each SWAP as
// three CNOTs (the paper's accounting for post-compilation overheads).
func (c *Circuit) CNOTCount() int {
	n := 0
	for _, g := range c.Gates {
		switch {
		case g.Name == GateSWAP:
			n += 3
		case g.IsTwoQubit():
			n++
		}
	}
	return n
}

// RawCNOTCount returns the number of two-qubit gates without SWAP
// decomposition (SWAP counts once).
func (c *Circuit) RawCNOTCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			n++
		}
	}
	return n
}

// Gate1Count returns the number of single-qubit gates, excluding
// measurements and barriers.
func (c *Circuit) Gate1Count() int {
	n := 0
	for _, g := range c.Gates {
		if len(g.Qubits) == 1 && !g.IsMeasure() && !g.IsBarrier() {
			n++
		}
	}
	return n
}

// MeasureCount returns the number of measurement operations.
func (c *Circuit) MeasureCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsMeasure() {
			n++
		}
	}
	return n
}

// Depth returns the circuit depth: the length of the critical path when
// gates are scheduled as soon as their qubits are free. SWAPs count as 3
// layers (their CNOT decomposition); barriers synchronize all qubits but
// add no depth themselves.
func (c *Circuit) Depth() int {
	level := make([]int, c.NumQubits)
	maxLevel := 0
	for _, g := range c.Gates {
		if g.IsBarrier() {
			for q := range level {
				if level[q] < maxLevel {
					level[q] = maxLevel
				}
			}
			continue
		}
		cost := 1
		if g.Name == GateSWAP {
			cost = 3
		}
		start := 0
		for _, q := range g.Qubits {
			if level[q] > start {
				start = level[q]
			}
		}
		for _, q := range g.Qubits {
			level[q] = start + cost
		}
		if start+cost > maxLevel {
			maxLevel = start + cost
		}
	}
	return maxLevel
}

// InteractionGraph returns the logical-qubit interaction graph: an edge
// per qubit pair that shares a two-qubit gate, weighted by the number of
// such gates. Greatest-Weighted-Edge-First allocation consumes it.
func (c *Circuit) InteractionGraph() *graph.Graph {
	g := graph.New(c.NumQubits)
	for _, gt := range c.Gates {
		if !gt.IsTwoQubit() {
			continue
		}
		u, v := gt.Qubits[0], gt.Qubits[1]
		g.AddWeightedEdge(u, v, g.Weight(u, v)+1)
	}
	return g
}

// Compose appends all gates of other (remapped by offset) to c. The
// caller must ensure offset+other.NumQubits <= c.NumQubits. It is the
// "merge into one circuit" operation used by the plain-SABRE
// multi-programming baseline.
func (c *Circuit) Compose(other *Circuit, offset int) *Circuit {
	if offset < 0 || offset+other.NumQubits > c.NumQubits {
		panic(fmt.Sprintf("circuit: compose offset %d with %d qubits into %d", offset, other.NumQubits, c.NumQubits))
	}
	for _, g := range other.Gates {
		c.Add(g.Remap(func(q int) int { return q + offset }))
	}
	return c
}
