// Package sim estimates the fidelity (PST) of compiled schedules by
// Monte-Carlo statevector simulation over the active physical qubits,
// one dense state per group of qubits the schedule entangles.
// The noise model composes the same error channels the mapper optimizes
// against: per-gate stochastic Pauli errors drawn from the device
// calibration, per-qubit readout flips, idle-layer decoherence (the
// coherence-error channel that penalizes short programs co-located with
// long ones, §III-C), and a crosstalk penalty for simultaneous CNOTs on
// adjacent links. It stands in for the paper's 8024-trial executions on
// real IBMQ16 hardware.
package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/fp"
)

// state is a dense statevector over n qubits (amplitude index bit i is
// qubit i's value): one entangled component of the factored register.
type state struct {
	n    int
	amps []complex128
}

func newState(n int) *state {
	if n < 0 || n > 26 {
		panic(fmt.Sprintf("sim: unsupported qubit count %d", n))
	}
	s := &state{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s
}

// reset returns the state to |0...0> in place, so per-shard trial loops
// reuse one amplitude buffer instead of allocating 2^n complex128s per
// trial.
func (s *state) reset() {
	clear(s.amps)
	s.amps[0] = 1
}

// apply1q applies the 2x2 unitary m to qubit q. Like every amplitude loop
// here it walks only the amplitudes it changes, in blocks of 2·bit (low
// half qubit clear, high half set): bit for bit the index-testing loop in
// oracle_test.go.
func (s *state) apply1q(m [2][2]complex128, q int) {
	bit := 1 << uint(q)
	for lo := 0; lo < len(s.amps); lo += 2 * bit {
		zero, one := s.amps[lo:lo+bit], s.amps[lo+bit:lo+2*bit]
		for i := range zero {
			a0, a1 := zero[i], one[i]
			zero[i] = m[0][0]*a0 + m[0][1]*a1
			one[i] = m[1][0]*a0 + m[1][1]*a1
		}
	}
}

// applyCNOT applies a controlled-X with the given control and target; a
// qubit controlling itself is a no-op.
func (s *state) applyCNOT(c, t int) {
	if c == t {
		return
	}
	cb, tb := 1<<uint(c), 1<<uint(t)
	lo, hi := min(cb, tb), max(cb, tb)
	for i0 := 0; i0 < len(s.amps); i0 += 2 * hi {
		for i := i0 + cb; i < i0+cb+hi; i += 2 * lo {
			x, y := s.amps[i:i+lo], s.amps[i+tb:i+tb+lo]
			for j := range x {
				x[j], y[j] = y[j], x[j]
			}
		}
	}
}

// applyCZ applies a controlled-Z between a and b.
func (s *state) applyCZ(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	lo, hi := min(ab, bb), max(ab, bb)
	for i0 := 0; i0 < len(s.amps); i0 += 2 * hi {
		for i := i0 + ab + bb; i < i0+ab+bb+hi; i += 2 * lo {
			x := s.amps[i : i+lo]
			for j := range x {
				x[j] = -x[j]
			}
		}
	}
}

// prob1 returns the probability that qubit q measures 1.
func (s *state) prob1(q int) float64 {
	bit := 1 << uint(q)
	p := 0.0
	for lo := bit; lo < len(s.amps); lo += 2 * bit {
		for _, a := range s.amps[lo : lo+bit] {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// measure projectively measures qubit q, collapsing the state, and
// returns the outcome bit.
func (s *state) measure(q int, rng prng) int {
	outcome := s.sample(q, rng)
	s.project(q, outcome)
	return outcome
}

// sample is measure's outcome, drawn alike, without the collapse: for a
// qubit whose state nothing reads afterwards.
func (s *state) sample(q int, rng prng) int {
	if rng.Float64() < s.prob1(q) {
		return 1
	}
	return 0
}

// project collapses qubit q onto the given outcome and renormalizes.
func (s *state) project(q, outcome int) {
	bit := 1 << uint(q)
	keep, drop := outcome*bit, (1-outcome)*bit // offsets within a block
	norm := 0.0
	for lo := 0; lo < len(s.amps); lo += 2 * bit {
		for _, a := range s.amps[lo+keep : lo+keep+bit] {
			norm += real(a)*real(a) + imag(a)*imag(a)
		}
		clear(s.amps[lo+drop : lo+drop+bit])
	}
	if fp.Zero(norm) {
		// Numerically impossible branch; reset to the projected basis
		// state to stay total.
		s.amps[0] = 0
		idx := 0
		if outcome == 1 {
			idx = bit
		}
		s.amps[idx] = 1
		return
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for lo := keep; lo < len(s.amps); lo += 2 * bit {
		for i := lo; i < lo+bit; i++ {
			s.amps[i] *= scale
		}
	}
}

// modal returns the basis index with the highest probability (lowest
// index wins ties within 1e-12).
func (s *state) modal() int {
	best, bestP := 0, -1.0
	for i, a := range s.amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > bestP+1e-12 {
			best, bestP = i, p
		}
	}
	return best
}

// gateMatrix returns the 2x2 unitary of a named single-qubit gate.
func gateMatrix(g circuit.Gate) ([2][2]complex128, error) {
	i := complex(0, 1)
	s2 := complex(1/math.Sqrt2, 0)
	p := func(k int) float64 {
		if k < len(g.Params) {
			return g.Params[k]
		}
		return 0
	}
	switch g.Name {
	case circuit.GateH:
		return [2][2]complex128{{s2, s2}, {s2, -s2}}, nil
	case circuit.GateX:
		return [2][2]complex128{{0, 1}, {1, 0}}, nil
	case circuit.GateY:
		return [2][2]complex128{{0, -i}, {i, 0}}, nil
	case circuit.GateZ:
		return [2][2]complex128{{1, 0}, {0, -1}}, nil
	case circuit.GateS:
		return [2][2]complex128{{1, 0}, {0, i}}, nil
	case circuit.GateSdg:
		return [2][2]complex128{{1, 0}, {0, -i}}, nil
	case circuit.GateT:
		return [2][2]complex128{{1, 0}, {0, cmplx.Exp(i * math.Pi / 4)}}, nil
	case circuit.GateTdg:
		return [2][2]complex128{{1, 0}, {0, cmplx.Exp(-i * math.Pi / 4)}}, nil
	case circuit.GateRX:
		th := p(0) / 2
		c, s := complex(math.Cos(th), 0), complex(math.Sin(th), 0)
		return [2][2]complex128{{c, -i * s}, {-i * s, c}}, nil
	case circuit.GateRY:
		th := p(0) / 2
		c, s := complex(math.Cos(th), 0), complex(math.Sin(th), 0)
		return [2][2]complex128{{c, -s}, {s, c}}, nil
	case circuit.GateRZ, circuit.GateU1:
		return [2][2]complex128{{cmplx.Exp(-i * complex(p(0)/2, 0)), 0}, {0, cmplx.Exp(i * complex(p(0)/2, 0))}}, nil
	case circuit.GateU2:
		phi, lam := complex(p(0), 0), complex(p(1), 0)
		return [2][2]complex128{
			{s2, -s2 * cmplx.Exp(i*lam)},
			{s2 * cmplx.Exp(i*phi), s2 * cmplx.Exp(i*(phi+lam))},
		}, nil
	case circuit.GateU3:
		th, phi, lam := p(0)/2, complex(p(1), 0), complex(p(2), 0)
		c, s := complex(math.Cos(th), 0), complex(math.Sin(th), 0)
		return [2][2]complex128{
			{c, -s * cmplx.Exp(i*lam)},
			{s * cmplx.Exp(i*phi), c * cmplx.Exp(i*(phi+lam))},
		}, nil
	}
	return [2][2]complex128{}, fmt.Errorf("sim: no matrix for gate %q", g.Name)
}

var pauliX = [2][2]complex128{{0, 1}, {1, 0}}
var pauliY = [2][2]complex128{{0, complex(0, -1)}, {complex(0, 1), 0}}
var pauliZ = [2][2]complex128{{1, 0}, {0, -1}}

// injectPauli applies a uniformly random non-identity Pauli to qubit q.
func (s *state) injectPauli(q int, rng prng) {
	switch rng.Intn(3) {
	case 0:
		s.apply1q(pauliX, q)
	case 1:
		s.apply1q(pauliY, q)
	default:
		s.apply1q(pauliZ, q)
	}
}

// decay applies one trajectory step of combined T1/T2 decoherence to
// qubit q: a projective Z-basis measurement (dephasing) followed by a
// conditional relaxation of |1> to |0>.
func (s *state) decay(q int, rng prng) {
	if s.measure(q, rng) == 1 {
		s.apply1q(pauliX, q) // relax to |0>
	}
}
