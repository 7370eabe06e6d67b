// Package circuit represents quantum programs as gate lists over logical
// qubits, with the derived structures the mapping stack needs: gate
// DAGs, front layers, critical gates, interaction graphs, depth, and an
// OpenQASM 2.0 subset reader/writer.
package circuit

import (
	"fmt"
	"strings"
)

// Gate names understood throughout the repository. All names are
// canonical lowercase OpenQASM spellings.
const (
	GateH       = "h"
	GateX       = "x"
	GateY       = "y"
	GateZ       = "z"
	GateS       = "s"
	GateSdg     = "sdg"
	GateT       = "t"
	GateTdg     = "tdg"
	GateRX      = "rx"
	GateRY      = "ry"
	GateRZ      = "rz"
	GateU1      = "u1"
	GateU2      = "u2"
	GateU3      = "u3"
	GateCX      = "cx"
	GateCZ      = "cz"
	GateSWAP    = "swap"
	GateMeasure = "measure"
	GateBarrier = "barrier"
)

// Gate is one operation on logical qubits. For GateCX, Qubits[0] is the
// control and Qubits[1] the target. GateMeasure carries one qubit; the
// classical bit is implicitly the same index.
type Gate struct {
	Name   string
	Qubits []int
	Params []float64
}

// NewGate builds a gate after validating the operand count for known
// gate names.
func NewGate(name string, qubits ...int) Gate {
	g := Gate{Name: name, Qubits: qubits}
	if err := g.validateArity(); err != nil {
		panic(err)
	}
	return g
}

func (g Gate) validateArity() error {
	want := -1
	switch g.Name {
	case GateH, GateX, GateY, GateZ, GateS, GateSdg, GateT, GateTdg,
		GateRX, GateRY, GateRZ, GateU1, GateU2, GateU3, GateMeasure:
		want = 1
	case GateCX, GateCZ, GateSWAP:
		want = 2
	case GateBarrier:
		return nil
	}
	if want >= 0 && len(g.Qubits) != want {
		return fmt.Errorf("circuit: gate %q takes %d qubits, got %d", g.Name, want, len(g.Qubits))
	}
	if len(g.Qubits) == 2 && g.Qubits[0] == g.Qubits[1] {
		return fmt.Errorf("circuit: gate %q with duplicate qubit %d", g.Name, g.Qubits[0])
	}
	return nil
}

// IsTwoQubit reports whether the gate acts on exactly two qubits.
func (g Gate) IsTwoQubit() bool { return len(g.Qubits) == 2 && g.Name != GateBarrier }

// IsCNOT reports whether the gate is a CX.
func (g Gate) IsCNOT() bool { return g.Name == GateCX }

// IsMeasure reports whether the gate is a measurement.
func (g Gate) IsMeasure() bool { return g.Name == GateMeasure }

// IsBarrier reports whether the gate is a barrier (scheduling no-op).
func (g Gate) IsBarrier() bool { return g.Name == GateBarrier }

// Remap returns a copy of the gate with each qubit q replaced by f(q).
func (g Gate) Remap(f func(int) int) Gate {
	q := make([]int, len(g.Qubits))
	for i, v := range g.Qubits {
		q[i] = f(v)
	}
	return Gate{Name: g.Name, Qubits: q, Params: g.Params}
}

// String renders the gate in QASM-like syntax, e.g. "cx q[0],q[1]".
func (g Gate) String() string {
	var b strings.Builder
	b.WriteString(g.Name)
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	return b.String()
}
