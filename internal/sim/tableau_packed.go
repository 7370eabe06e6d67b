package sim

import (
	"math/bits"
	"math/rand"
)

// ptab is a bit-packed Aaronson-Gottesman stabilizer tableau over n
// qubits: rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers; each
// row is a Pauli string with a sign bit r, its x/z bits stored in 64-bit
// words so gate updates and row products run word-parallel (~64 qubits
// per operation). It simulates Clifford circuits in O(n^2) per gate
// regardless of entanglement; the stabilizer register holds one per
// entangled component, so n is a component's qubit count, not the
// batch's — the engine behind 50-qubit fidelity estimation
// (SimulateScheduleCliffordCtx, CliffordOutcome). The boolean tableau in
// oracle_test.go is its cross-validation reference.
type ptab struct {
	n     int
	words int
	x, z  [][]uint64
	r     []bool
	// xbits/zbits back every row in one contiguous allocation (cache
	// locality + a single memclr on reset); sx/sz are the deterministic-
	// measure scratch rows, reused across measurements.
	xbits, zbits []uint64
	sx, sz       []uint64
	// pickRng/pickFn make measureT's random pick allocation-free: the
	// closure is built once here instead of once per measurement.
	pickRng *rand.Rand
	pickFn  func() bool
}

func newPtab(n int) *ptab {
	w := (n + 63) / 64
	t := &ptab{
		n:     n,
		words: w,
		x:     make([][]uint64, 2*n),
		z:     make([][]uint64, 2*n),
		r:     make([]bool, 2*n),
		xbits: make([]uint64, 2*n*w),
		zbits: make([]uint64, 2*n*w),
		sx:    make([]uint64, w),
		sz:    make([]uint64, w),
	}
	for i := 0; i < 2*n; i++ {
		t.x[i] = t.xbits[i*w : (i+1)*w : (i+1)*w]
		t.z[i] = t.zbits[i*w : (i+1)*w : (i+1)*w]
	}
	t.pickFn = func() bool { return t.pickRng.Intn(2) == 1 }
	t.init()
	return t
}

// init sets the identity tableau (destabilizer X_q, stabilizer Z_q).
func (t *ptab) init() {
	for q := 0; q < t.n; q++ {
		t.x[q][q>>6] |= 1 << uint(q&63)
		t.z[t.n+q][q>>6] |= 1 << uint(q&63)
	}
}

// reset restores the identity tableau in place, so per-shard trial
// loops reuse one ptab instead of reallocating 4n*words words per
// trial.
func (t *ptab) reset() {
	clear(t.xbits)
	clear(t.zbits)
	clear(t.r)
	t.init()
}

func (t *ptab) getx(i, q int) bool { return t.x[i][q>>6]&(1<<uint(q&63)) != 0 }
func (t *ptab) getz(i, q int) bool { return t.z[i][q>>6]&(1<<uint(q&63)) != 0 }

// h applies a Hadamard to qubit q.
func (t *ptab) h(q int) {
	w, b := q>>6, uint64(1)<<uint(q&63)
	for i := 0; i < 2*t.n; i++ {
		xi, zi := t.x[i][w]&b, t.z[i][w]&b
		if xi != 0 && zi != 0 {
			t.r[i] = !t.r[i]
		}
		if (xi != 0) != (zi != 0) {
			t.x[i][w] ^= b
			t.z[i][w] ^= b
		}
	}
}

// s applies the phase gate to qubit q.
func (t *ptab) s(q int) {
	w, b := q>>6, uint64(1)<<uint(q&63)
	for i := 0; i < 2*t.n; i++ {
		xi, zi := t.x[i][w]&b, t.z[i][w]&b
		if xi != 0 && zi != 0 {
			t.r[i] = !t.r[i]
		}
		if xi != 0 {
			t.z[i][w] ^= b
		}
	}
}

// sdg applies S-dagger to qubit q in one pass: X -> -Y, Y -> X.
func (t *ptab) sdg(q int) {
	w, b := q>>6, uint64(1)<<uint(q&63)
	for i := 0; i < 2*t.n; i++ {
		xi := t.x[i][w] & b
		if xi != 0 && t.z[i][w]&b == 0 {
			t.r[i] = !t.r[i]
		}
		t.z[i][w] ^= xi
	}
}

// cx applies a CNOT with control c and target tq.
func (t *ptab) cx(c, tq int) {
	cw, cb := c>>6, uint64(1)<<uint(c&63)
	tw, tb := tq>>6, uint64(1)<<uint(tq&63)
	for i := 0; i < 2*t.n; i++ {
		xc := t.x[i][cw]&cb != 0
		zt := t.z[i][tw]&tb != 0
		xt := t.x[i][tw]&tb != 0
		zc := t.z[i][cw]&cb != 0
		if xc && zt && (xt == zc) {
			t.r[i] = !t.r[i]
		}
		if xc {
			t.x[i][tw] ^= tb
		}
		if t.z[i][tw]&tb != 0 {
			t.z[i][cw] ^= cb
		}
	}
}

func (t *ptab) xg(q int) { t.pauli(q, 0, 1) }
func (t *ptab) zg(q int) { t.pauli(q, 1, 0) }
func (t *ptab) yg(q int) { t.pauli(q, 1, 1) }

// pauli applies a Pauli to qubit q in one pass: a row's sign flips where
// the row anticommutes with the Pauli, i.e. where its x bit (counted when
// onX = 1: Z and Y) XOR its z bit (counted when onZ = 1: X and Y) is set.
func (t *ptab) pauli(q int, onX, onZ uint64) {
	w, s := q>>6, uint(q&63)
	mx, mz := onX<<s, onZ<<s
	for i := 0; i < 2*t.n; i++ {
		if (t.x[i][w]&mx)^(t.z[i][w]&mz) != 0 {
			t.r[i] = !t.r[i]
		}
	}
}

// cz applies a controlled-Z to qubits a and b in one pass:
// r ^= xa·xb·(za⊕zb), za ^= xb, zb ^= xa.
func (t *ptab) cz(a, b int) {
	aw, ab := a>>6, uint64(1)<<uint(a&63)
	bw, bb := b>>6, uint64(1)<<uint(b&63)
	for i := 0; i < 2*t.n; i++ {
		xa, xb := t.x[i][aw]&ab != 0, t.x[i][bw]&bb != 0
		if xa && xb && (t.z[i][aw]&ab != 0) != (t.z[i][bw]&bb != 0) {
			t.r[i] = !t.r[i]
		}
		if xb {
			t.z[i][aw] ^= ab
		}
		if xa {
			t.z[i][bw] ^= bb
		}
	}
}

// phaseOf returns the i-power exponent (mod 4, as 0 or ±popcount
// difference) accumulated when multiplying Pauli row (x1,z1) into
// (x2,z2), using the word-parallel {X,Y,Z} cycle formula.
func phaseOf(x1, z1, x2, z2 []uint64) int {
	plus, minus := 0, 0
	for w := range x1 {
		a, b, c, d := x1[w], z1[w], x2[w], z2[w]
		X1, Y1, Z1 := a&^b, a&b, b&^a
		X2, Y2, Z2 := c&^d, c&d, d&^c
		plus += bits.OnesCount64(X1&Y2 | Y1&Z2 | Z1&X2)
		minus += bits.OnesCount64(Y1&X2 | Z1&Y2 | X1&Z2)
	}
	return plus - minus
}

// rowsum multiplies row i into row h.
func (t *ptab) rowsum(h, i int) {
	sum := 2*b2i(t.r[h]) + 2*b2i(t.r[i]) + phaseOf(t.x[i], t.z[i], t.x[h], t.z[h])
	sum = ((sum % 4) + 4) % 4
	t.r[h] = sum == 2
	for w := 0; w < t.words; w++ {
		t.x[h][w] ^= t.x[i][w]
		t.z[h][w] ^= t.z[i][w]
	}
}

// measure performs a Z-basis measurement of qubit q; pick resolves
// random outcomes.
func (t *ptab) measure(q int, pick func() bool) int {
	n := t.n
	p := -1
	for i := n; i < 2*n; i++ {
		if t.getx(i, q) {
			p = i
			break
		}
	}
	if p >= 0 {
		for i := 0; i < 2*n; i++ {
			if i != p && t.getx(i, q) {
				t.rowsum(i, p)
			}
		}
		copy(t.x[p-n], t.x[p])
		copy(t.z[p-n], t.z[p])
		t.r[p-n] = t.r[p]
		for w := 0; w < t.words; w++ {
			t.x[p][w] = 0
			t.z[p][w] = 0
		}
		t.z[p][q>>6] |= 1 << uint(q&63)
		outcome := pick()
		t.r[p] = outcome
		return b2i(outcome)
	}
	// Deterministic: accumulate stabilizer rows into the reusable
	// scratch row.
	sx, sz := t.sx, t.sz
	clear(sx)
	clear(sz)
	sr := false
	for i := 0; i < n; i++ {
		if t.getx(i, q) {
			sum := 2*b2i(sr) + 2*b2i(t.r[i+n]) + phaseOf(t.x[i+n], t.z[i+n], sx, sz)
			sum = ((sum % 4) + 4) % 4
			sr = sum == 2
			for w := 0; w < t.words; w++ {
				sx[w] ^= t.x[i+n][w]
				sz[w] ^= t.z[i+n][w]
			}
		}
	}
	return b2i(sr)
}

func (t *ptab) injectPauliT(q int, rng *rand.Rand) {
	switch rng.Intn(3) {
	case 0:
		t.xg(q)
	case 1:
		t.yg(q)
	default:
		t.zg(q)
	}
}

// measureT is measure with random outcomes drawn from rng.
func (t *ptab) measureT(q int, rng *rand.Rand) int {
	t.pickRng = rng
	return t.measure(q, t.pickFn)
}

// decayT is the tableau counterpart of state.decay: projective Z
// measurement followed by relaxation of |1> to |0>.
func (t *ptab) decayT(q int, rng *rand.Rand) {
	if t.measureT(q, rng) == 1 {
		t.xg(q)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
