package sim

// Exact PST for narrow programs (DESIGN.md §17, "Sampling contract v3
// (statevector)"). A program's success count is Binomial(trials, PST),
// and its PST is the weight the noisy density matrix of its measured
// components puts on its correct outcome. The evaluator reads the same
// lowered compiledProgram and plan the statevector trial loop runs, so
// both sample one lowering and one noise rule set; each channel is the
// trial loop's draws averaged in closed form.
//
// A program's ρ spans every slot of the components that hold its plan
// points, so a SWAP noise site between two of them is exact without
// merging anything. ρ over k qubits is a 2k-qubit state whose index is
// row | col<<k: the state kernels apply a gate U as U on the row half and
// conj(U) on the column half (ρ ↦ UρU†).

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/router"
)

// maxExactQubits is K: the widest ρ, in qubits, that monteCarlo samples
// a program's successes from its exact PST over. It is the widest
// program whose exact evaluation costs less than one shardTrials shard
// of the trial loop (BenchmarkExactVsShard; DESIGN.md §17 has the
// measurement), so from one shard's worth of trials up, sampling from
// the exact PST costs less than the trial loop it replaces.
const maxExactQubits = 6

// maxRhoQubits is ExactPST's own bound, set by memory alone: ρ over 10
// qubits is 4^10 complex128 entries, 16 MiB.
const maxRhoQubits = 10

// exactSpans returns, per program, each slot's qubit in the program's ρ
// (−1 outside it), or nil when some program's ρ would be wider than
// limit qubits or a component holds two programs' plan points.
func exactSpans(f *factoring, plan []measPoint, progs, limit int) [][]int {
	owner := make([]int, len(f.sizes)) // component -> program + 1
	for _, mp := range plan {
		c := f.comp[mp.q]
		if owner[c] != 0 && owner[c] != mp.prog+1 {
			return nil
		}
		owner[c] = mp.prog + 1
	}
	width := make([]int, progs)
	for c, p := range owner {
		if p != 0 {
			if width[p-1] += f.sizes[c]; width[p-1] > limit {
				return nil
			}
		}
	}
	spans := make([][]int, progs)
	for p := range spans {
		spans[p] = make([]int, len(f.comp))
		next := 0
		for slot, c := range f.comp {
			spans[p][slot] = -1
			if owner[c] == p+1 {
				spans[p][slot] = next
				next++
			}
		}
	}
	return spans
}

// prepareExact is the statevector's preparation when exactSpans allows
// it: the noiseless reference run (prepare) fixes every plan point's
// correct bit, and then each program's exact PST fixes the threshold its
// shards draw its successes with.
func prepareExact(cp *compiledProgram, plan []measPoint, spans [][]int) error {
	pst, err := exactPSTs(cp, plan, spans)
	if err != nil {
		return err
	}
	cp.pstT = make(binomial, len(pst))
	for p, v := range pst {
		cp.pstT[p] = threshold(v)
	}
	return nil
}

// exactPSTs runs the reference and evaluates every program's ρ.
func exactPSTs(cp *compiledProgram, plan []measPoint, spans [][]int) ([]float64, error) {
	if err := prepare(engineStatevector, cp, plan); err != nil {
		return nil, err
	}
	k := 0
	for _, span := range spans {
		for _, q := range span {
			k = max(k, q+1)
		}
	}
	rho := &density{state: newState(2 * k), idle: make([]int, k)}
	pst := make([]float64, len(spans))
	for p, span := range spans {
		pst[p] = cp.exactPST(rho, span, plan, p)
	}
	return pst, nil
}

// ExactPST returns each program's exact probability of a successful
// trial on the statevector engine's noise model: the PST its
// Monte-Carlo estimate converges to. It fails when a program's measured
// qubits span more than maxRhoQubits entangled qubits, or share a
// component with another program's.
func ExactPST(d *arch.Device, sched *router.Schedule, progs []*circuit.Circuit, noise NoiseModel) ([]float64, error) {
	cp, plan, err := lowerSchedule(d, sched, len(progs), noise)
	if err != nil {
		return nil, err
	}
	spans := exactSpans(cp.fac, plan, len(progs), maxRhoQubits)
	if spans == nil {
		return nil, fmt.Errorf("sim: exact PST needs every program's measured qubits in components of its own, at most %d qubits", maxRhoQubits)
	}
	return exactPSTs(cp, plan, spans)
}

// binomial is the statevector register when every program's PST is
// exact: a shard draws program p's count as n below(t[p]) draws, program
// by program, scanned with miss.
type binomial []uint64

func (b binomial) shard(_ *compiledProgram, _ []measPoint, n int, rng *stream, succ []int) {
	for p, t := range b {
		for i := rng.miss(t, n); i < n; i += 1 + rng.miss(t, n-i-1) {
			succ[p]++
		}
	}
}

// density is one program's ρ over k qubits. idle counts each qubit's
// idle layers not yet applied at rate idleP: a decay commutes with every
// channel on the other qubits, so a run of them is applied at once,
// before the next op on the qubit.
type density struct {
	*state
	k     int
	idleP float64
	idle  []int
}

// exactPST evaluates program p's ρ (reusing rho's buffer) through every
// op, noise site and idle layer touching its span, then weighs the final
// diagonal against p's plan points' correct bits and readout errors.
func (cp *compiledProgram) exactPST(rho *density, span []int, plan []measPoint, p int) float64 {
	k := 0
	for _, q := range span {
		k = max(k, q+1)
	}
	noisy := cp.noise.Enabled
	rho.k, rho.idle, rho.idleP = k, rho.idle[:k], 0
	clear(rho.idle)
	if noisy {
		rho.idleP = rate(cp.noise.IdleErrPerLayer)
	}
	rho.n, rho.amps = 2*k, rho.amps[:1<<uint(2*k)]
	rho.reset()
	for li := range cp.layers {
		cl := &cp.layers[li]
		for oi := range cl.ops {
			op := &cl.ops[oi]
			a, b := span[op.a], -1
			if op.kind.twoQubit() {
				b = span[op.b]
			}
			if a < 0 && b < 0 {
				continue
			}
			rho.settle(a)
			rho.settle(b)
			errP := 0.0
			if noisy {
				errP = rate(op.err)
			}
			switch op.kind {
			case opSWAP:
				// A relabel: three draws, each a Pauli on one of the two
				// slots.
				for range 3 {
					rho.pauli(a, b, errP/2)
				}
				continue
			case opCX:
				rho.applyCNOT(a, b)
				rho.applyCNOT(a+k, b+k)
			case opCZ:
				rho.applyCZ(a, b)
				rho.applyCZ(a+k, b+k)
			default:
				m := op.m
				rho.apply1q(m, a)
				for i := range m {
					for j := range m[i] {
						m[i][j] = cmplx.Conj(m[i][j])
					}
				}
				rho.apply1q(m, a+k)
			}
			if b >= 0 {
				rho.pauli(a, b, errP/2)
			} else {
				rho.pauli(a, -1, errP)
			}
		}
		if rho.idleP > 0 {
			for _, s := range cl.idle {
				if q := span[s]; q >= 0 {
					rho.idle[q]++
				}
			}
		}
	}
	for q := range k {
		rho.settle(q)
	}
	readout := noisy && cp.noise.Readout
	pst := 0.0
	for x := 0; x < 1<<uint(k); x++ {
		w := real(rho.amps[x|x<<uint(k)])
		for i := range plan {
			if mp := &plan[i]; mp.prog == p {
				e := 0.0
				if readout {
					e = rate(mp.err)
				}
				if (x>>uint(span[mp.q]))&1 == mp.correct {
					w *= 1 - e
				} else {
					w *= e
				}
			}
		}
		pst += w
	}
	return pst
}

// rate is the probability that a draw below(threshold(p)) fires, to
// within a draw's resolution: p clamped to [0, 1], and 0 for NaN.
func rate(p float64) float64 {
	if !(p > 0) {
		return 0
	}
	return min(p, 1)
}

// scale is v·f for a real f.
func scale(v complex128, f float64) complex128 { return complex(real(v)*f, imag(v)*f) }

// settle applies qubit q's pending idle layers (none for q < 0): n idle
// layers of rate p compose to one of rate 1 − (1−p)^n, which maps each
// (row q, col q) block [[a,b],[c,d]] to a′ = a + p·d and b, c, d × (1−p).
func (r *density) settle(q int) {
	if q < 0 || r.idle[q] == 0 {
		return
	}
	p := 1 - math.Pow(1-r.idleP, float64(r.idle[q]))
	r.idle[q] = 0
	row, col := 1<<uint(q), 1<<uint(q+r.k)
	for lo := 0; lo < len(r.amps); lo += 2 * row {
		for x := lo; x < lo+row; x++ { // x has row q clear
			if x&col == 0 { // a, with d at x|row|col
				r.amps[x] += scale(r.amps[x|row|col], p)
				r.amps[x|row|col] = scale(r.amps[x|row|col], 1-p)
			} else { // b, with c at x^col|row
				r.amps[x] = scale(r.amps[x], 1-p)
				r.amps[x^col|row] = scale(r.amps[x^col|row], 1-p)
			}
		}
	}
}

// pauli applies one draw of an op's Pauli error at rate w per operand,
// ρ + w·Σ_q (P_q(ρ) − ρ) over the operands a and b inside ρ (−1 is
// outside), P_q being the uniform X/Y/Z conjugation of qubit q, which
// maps each (row q, col q) block [[a,b],[c,d]] to a′ = (a+2d)/3,
// d′ = (2a+d)/3, b′ = −b/3 and c′ = −c/3. A one-qubit op's draw is
// w = p on its qubit; a two-qubit op's, (1−p)ρ + p/2·(P_a+P_b)(ρ), is
// w = p/2 on each, and so is each of a SWAP's three draws, which with
// one operand outside ρ is (1−p/2)ρ + p/2·P_a(ρ).
func (r *density) pauli(a, b int, w float64) {
	if a < 0 {
		a, b = b, a
	}
	if a < 0 || !(w > 0) {
		return
	}
	// Entry x moves with x^flip for each operand: the entry with both
	// its row and column bit of the operand flipped. Diagonal in the
	// operand, it keeps 1 − 2w/3 of itself and takes 2w/3 of that
	// partner; off-diagonal, it keeps 1 − 4w/3. Each group x, x^flipA
	// (and x^flipB, x^flipA^flipB when b is in ρ) is visited from the x
	// whose operands' row bits are clear.
	f := 2 * w / 3
	rowA, flipA := 1<<uint(a), 1<<uint(a)|1<<uint(a+r.k)
	rowB, flipB := 0, 0
	if b >= 0 {
		rowB, flipB = 1<<uint(b), 1<<uint(b)|1<<uint(b+r.k)
	}
	for x := range r.amps {
		if x&(rowA|rowB) != 0 {
			continue
		}
		self, crossA, crossB := 1.0, 0.0, 0.0
		if x&flipA == 0 {
			self, crossA = self-f, f
		} else {
			self -= 2 * f
		}
		if flipB != 0 {
			if x&flipB == 0 {
				self, crossB = self-f, f
			} else {
				self -= 2 * f
			}
		}
		xa := x ^ flipA
		v0, v1 := r.amps[x], r.amps[xa]
		if flipB == 0 {
			r.amps[x] = scale(v0, self) + scale(v1, crossA)
			r.amps[xa] = scale(v1, self) + scale(v0, crossA)
			continue
		}
		xb, xab := x^flipB, xa^flipB
		v2, v3 := r.amps[xb], r.amps[xab]
		r.amps[x] = scale(v0, self) + scale(v1, crossA) + scale(v2, crossB)
		r.amps[xa] = scale(v1, self) + scale(v0, crossA) + scale(v3, crossB)
		r.amps[xb] = scale(v2, self) + scale(v3, crossA) + scale(v0, crossB)
		r.amps[xab] = scale(v3, self) + scale(v2, crossA) + scale(v1, crossB)
	}
}
