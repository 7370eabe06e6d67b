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
// merging anything. ρ over k qubits is held in the Pauli basis, 4^k real
// coefficients (pauliRho), where every gate and channel the lowering
// emits is a 4×4 matrix on one qubit or a signed permutation with a
// diagonal factor on two.

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
// qubits is 4^10 float64 coefficients, 8 MiB.
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
	rho := &pauliRho{c: make([]float64, 1<<uint(2*k)), pend: make([]int, k), tm: make([]transfer, k), dirty: make([]bool, k)}
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
// by program, counted with hits.
type binomial []uint64

func (b binomial) shard(_ *compiledProgram, _ []measPoint, n int, rng *stream, succ []int) {
	for p, t := range b {
		succ[p] += rng.hits(t, n)
	}
}

// pauliRho is one program's ρ over k qubits in the Pauli basis: c[i]
// is tr(P_i ρ), real because every P_i is Hermitian, where bit q of i
// is qubit q's X part and bit q+k its Z part, both set for Y. Per qubit
// the local index x + 2z orders the basis I, X, Z, Y. Every channel
// the evaluator applies maps each coefficient to a few others:
//
//   - a one-qubit gate, its Pauli draw and a run of idle decays act on
//     one qubit's four coefficients at a time, each as a 4×4 transfer
//     matrix; tm[q] composes qubit q's until a two-qubit op on q, or
//     the end, applies them in one pass (pend counts its idle layers not
//     yet folded in: a decay commutes with every channel on the other
//     qubits, so a run of them is one matrix);
//   - CX and CZ permute the Paulis with a sign, and a two-qubit op's
//     Pauli draw scales each by a factor of how many of its two
//     operands it acts on, both folded into that same pass (pair);
//   - the readout is a sum over the {I,Z}^k coefficients (pst).
type pauliRho struct {
	k     int
	c     []float64
	idleP float64
	pend  []int
	tm    []transfer
	dirty []bool // tm[q] is not the identity
}

// transfer is a one-qubit channel in the Pauli basis: c′_P = Σ_Q t[P][Q]
// c_Q over I, X, Z, Y. Every channel here preserves the trace, so row I
// is (1, 0, 0, 0).
type transfer [4][4]float64

var identityTransfer = transfer{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}

// after sets m to the channel t after m.
func (m *transfer) after(t *transfer) {
	for j := range 4 {
		c0, c1, c2, c3 := m[0][j], m[1][j], m[2][j], m[3][j]
		for i := 1; i < 4; i++ { // row I is t's and m's: (1, 0, 0, 0)
			m[i][j] = t[i][0]*c0 + t[i][1]*c1 + t[i][2]*c2 + t[i][3]*c3
		}
	}
}

// depolarize sets m to n draws of a uniform X, Y or Z at rate w after
// m: each of the three Paulis commutes with itself and anticommutes with
// the other two, so a draw leaves c_P for P ≠ I 1 − w + (w/3)(1 − 2) =
// 1 − 4w/3 of itself.
func (m *transfer) depolarize(w float64, n int) {
	f := draws(1-4*w/3, n)
	for i := 1; i < 4; i++ {
		for j := range 4 {
			m[i][j] *= f
		}
	}
}

// draws is f^n, the factor n draws that each leave f leave.
func draws(f float64, n int) float64 {
	g := 1.0
	for range n {
		g *= f
	}
	return g
}

// unitaryTransfer is ρ ↦ UρU†: t[P][Q] = tr(P·U Q U†)/2. For Q = X, Z,
// Y, UQU† is Hermitian with diagonal m00, m11 and corner m01, whose X,
// Z and Y parts are Re m01, (m00 − m11)/2 and −Im m01.
func unitaryTransfer(u [2][2]complex128) transfer {
	a, b, c, d := u[0][0], u[0][1], u[1][0], u[1][1]
	ac, bc, cc, dc := cmplx.Conj(a), cmplx.Conj(b), cmplx.Conj(c), cmplx.Conj(d)
	t := transfer{{1, 0, 0, 0}}
	for i, m := range [3]struct {
		m00, m11 float64
		m01      complex128
	}{
		{2 * real(b*ac), 2 * real(d*cc), b*cc + a*dc},          // X
		{real(a*ac - b*bc), real(c*cc - d*dc), a*cc - b*dc},    // Z
		{-2 * imag(b*ac), -2 * imag(d*cc), 1i * (b*cc - a*dc)}, // Y
	} {
		t[1][i+1], t[2][i+1], t[3][i+1] = real(m.m01), (m.m00-m.m11)/2, -imag(m.m01)
	}
	return t
}

// compose queues a one-qubit op on q: its pending idle layers, then
// the gate t (nil for none), then n Pauli draws at rate w.
func (r *pauliRho) compose(q int, t *transfer, w float64, n int) {
	r.settle(q)
	m := &r.tm[q]
	if t != nil {
		m.after(t)
	}
	m.depolarize(w, n)
	r.dirty[q] = true
}

// settle folds qubit q's pending idle layers into its transfer: n idle
// layers of rate p compose to one decay of rate d = 1 − (1−p)^n, which
// with probability d measures the qubit and resets it to |0⟩. That
// zeroes X and Y and sets Z to I: X, Y and Z keep 1 − d, and Z takes d
// of I.
func (r *pauliRho) settle(q int) {
	if r.pend[q] == 0 {
		return
	}
	d := 1 - math.Pow(1-r.idleP, float64(r.pend[q]))
	r.pend[q] = 0
	m := &r.tm[q]
	for j := range 4 {
		m[1][j] *= 1 - d
		m[2][j] = d*m[0][j] + (1-d)*m[2][j]
		m[3][j] *= 1 - d
	}
	r.dirty[q] = true
}

// pairTable is a two-qubit op's signed permutation on the 16 local
// indices l = x_a + 2z_a + 4x_b + 8z_b: U P_l U† = sign[l]·P_src[l], U
// being self-inverse, and n[l] of P_l's two factors are not I.
type pairTable struct {
	src  [16]uint8
	sign [16]float64
	n    [16]uint8
}

func newPairTable(conj func(xa, za, xb, zb int) (int, bool)) *pairTable {
	var t pairTable
	for l := range 16 {
		src, neg := conj(l&1, l>>1&1, l>>2&1, l>>3&1)
		t.src[l], t.sign[l] = uint8(src), 1
		if neg {
			t.sign[l] = -1
		}
		t.n[l] = uint8(min(l&3, 1) + min(l>>2, 1))
	}
	return &t
}

var (
	// cxTable is CX with control a and target b in Aaronson and
	// Gottesman's rule: x_b ^= x_a, z_a ^= z_b, and the sign flips when
	// x_a·z_b·(x_b ⊕ z_a ⊕ 1).
	cxTable = newPairTable(func(xa, za, xb, zb int) (int, bool) {
		return xa | (za^zb)<<1 | (xb^xa)<<2 | zb<<3, xa&zb&(xb^za^1) == 1
	})
	// czTable is CZ: z_a ^= x_b, z_b ^= x_a, and the sign flips when
	// x_a·x_b·(z_a ⊕ z_b).
	czTable = newPairTable(func(xa, za, xb, zb int) (int, bool) {
		return xa | (za^xb)<<1 | xb<<2 | (zb^xa)<<3, xa&xb&(za^zb) == 1
	})
	// swapTable is a SWAP's noise alone: the relabel moved no state.
	swapTable = newPairTable(func(xa, za, xb, zb int) (int, bool) {
		return xa | za<<1 | xb<<2 | zb<<3, false
	})
)

// pair applies qubits a's and b's pending transfers, then the op tab,
// then n draws of its Pauli error at rate w per operand, in one pass
// over ρ, 16 coefficients at a time. A draw, (1−2w)ρ + w·(P_a + P_b)(ρ),
// leaves each c_P 1 − (4w/3)·m of itself, m being how many of a and b P
// acts on.
func (r *pauliRho) pair(a, b int, tab *pairTable, w float64, n int) {
	r.settle(a)
	r.settle(b)
	f := [3]float64{1, draws(1-4*w/3, n), draws(1-8*w/3, n)}
	var coef [16]float64
	for i := range coef {
		coef[i] = tab.sign[i] * f[tab.n[i]]
	}
	k := r.k
	xa, za, xb, zb := 1<<uint(a), 1<<uint(a+k), 1<<uint(b), 1<<uint(b+k)
	offA, offB := [4]int{0, xa, za, xa | za}, [4]int{0, xb, zb, xb | zb}
	var off [16]int
	for i := range off {
		off[i] = offA[i&3] + offB[i>>2]
	}
	// Rows X, Z and Y of each pending transfer (row I is the identity),
	// or nil when it is the identity itself.
	var ta, tb *[3][4]float64
	if r.dirty[a] {
		ta = (*[3][4]float64)(r.tm[a][1:])
	}
	if r.dirty[b] {
		tb = (*[3][4]float64)(r.tm[b][1:])
	}
	mask := xa | za | xb | zb
	c := r.c
	for base := 0; base < len(c); base = ((base | mask) + 1) &^ mask {
		var v [16]float64
		for i, o := range off {
			v[i] = c[base+o]
		}
		if ta != nil {
			for h := range 4 {
				apply4(ta, (*[4]float64)(v[4*h:]))
			}
		}
		if tb != nil {
			for h := range 4 {
				u := [4]float64{v[h], v[h+4], v[h+8], v[h+12]}
				apply4(tb, &u)
				v[h+4], v[h+8], v[h+12] = u[1], u[2], u[3]
			}
		}
		for i, o := range off {
			c[base+o] = coef[i] * v[tab.src[i]]
		}
	}
	r.tm[a], r.tm[b] = identityTransfer, identityTransfer
	r.dirty[a], r.dirty[b] = false, false
}

// apply4 applies a transfer, given by its rows X, Z and Y, to one
// qubit's four coefficients.
func apply4(t *[3][4]float64, v *[4]float64) {
	i, x, z, y := v[0], v[1], v[2], v[3]
	v[1] = t[0][0]*i + t[0][1]*x + t[0][2]*z + t[0][3]*y
	v[2] = t[1][0]*i + t[1][1]*x + t[1][2]*z + t[1][3]*y
	v[3] = t[2][0]*i + t[2][1]*x + t[2][2]*z + t[2][3]*y
}

// flush applies qubit q's pending idle layers and transfer.
func (r *pauliRho) flush(q int) {
	r.settle(q)
	if !r.dirty[q] {
		return
	}
	t := (*[3][4]float64)(r.tm[q][1:])
	xb, zb := 1<<uint(q), 1<<uint(q+r.k)
	c := r.c
	for base := 0; base < len(c); base = ((base | xb | zb) + 1) &^ (xb | zb) {
		v := [4]float64{c[base], c[base|xb], c[base|zb], c[base|xb|zb]}
		apply4(t, &v)
		c[base|xb], c[base|zb], c[base|xb|zb] = v[1], v[2], v[3]
	}
	r.tm[q], r.dirty[q] = identityTransfer, false
}

// exactPST evaluates program p's ρ (reusing r's buffers) through every
// op, noise site and idle layer touching its span, then weighs the
// outcome distribution against p's plan points' correct bits and
// readout errors.
func (cp *compiledProgram) exactPST(r *pauliRho, span []int, plan []measPoint, p int) float64 {
	k := 0
	for _, q := range span {
		k = max(k, q+1)
	}
	noisy := cp.noise.Enabled
	r.k, r.c = k, r.c[:1<<uint(2*k)]
	r.pend, r.tm, r.dirty = r.pend[:k], r.tm[:k], r.dirty[:k]
	clear(r.c)
	for z := range 1 << uint(k) { // |0…0⟩: tr(Pρ) = 1 on {I,Z}^k
		r.c[z<<uint(k)] = 1
	}
	clear(r.pend)
	clear(r.dirty)
	for q := range r.tm {
		r.tm[q] = identityTransfer
	}
	r.idleP = 0
	if noisy {
		r.idleP = rate(cp.noise.IdleErrPerLayer)
	}
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
			errP := 0.0
			if noisy {
				errP = rate(op.err)
			}
			switch op.kind {
			case opSWAP:
				// A relabel: three draws, each a Pauli on one of the two
				// slots; with one slot outside ρ, half of them act on the
				// other.
				if a < 0 || b < 0 {
					r.compose(max(a, b), nil, errP/2, 3)
				} else {
					r.pair(a, b, swapTable, errP/2, 3)
				}
			case opCX:
				r.pair(a, b, cxTable, errP/2, 1)
			case opCZ:
				r.pair(a, b, czTable, errP/2, 1)
			default:
				u := unitaryTransfer(op.m)
				r.compose(a, &u, errP, 1)
			}
		}
		if r.idleP > 0 {
			for _, s := range cl.idle {
				if q := span[s]; q >= 0 {
					r.pend[q]++
				}
			}
		}
	}
	for q := range k {
		r.flush(q)
	}
	return r.pst(span, plan, p, noisy && cp.noise.Readout)
}

// pst reads program p's PST off the {I,Z}^k coefficients. Each qubit's
// plan points weigh its outcome b by f(b), a product of 1 − e for a
// correct bit and e for a wrong one (1 unmeasured), and
// Σ_x ρ_xx Π_q f_q(x_q) = Σ_z c_{Z^z} Π_q g_q(z_q) with
// g(0) = (f(0)+f(1))/2 and g(1) = (f(0)−f(1))/2.
func (r *pauliRho) pst(span []int, plan []measPoint, p int, readout bool) float64 {
	f := make([][2]float64, r.k)
	for q := range f {
		f[q] = [2]float64{1, 1}
	}
	for i := range plan {
		if mp := &plan[i]; mp.prog == p {
			e := 0.0
			if readout {
				e = rate(mp.err)
			}
			q := span[mp.q]
			f[q][mp.correct] *= 1 - e
			f[q][1-mp.correct] *= e
		}
	}
	// g over z doubles one qubit at a time: weights for z < 2^q, then
	// the same times g_q(1) for z with bit q set.
	w := make([]float64, 1<<uint(r.k))
	w[0] = 1
	for q, fq := range f {
		h := 1 << uint(q)
		g0, g1 := (fq[0]+fq[1])/2, (fq[0]-fq[1])/2
		for z := range h {
			w[z|h] = w[z] * g1
			w[z] *= g0
		}
	}
	pst := 0.0
	for z, wz := range w {
		pst += wz * r.c[z<<uint(r.k)]
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
