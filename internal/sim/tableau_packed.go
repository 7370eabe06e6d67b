package sim

import "math/bits"

// ptab is a bit-packed Aaronson-Gottesman stabilizer tableau over n
// qubits: rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers, each
// a Pauli string with a sign bit. It is stored qubit-major, the layout
// Stim uses: qubit q owns an x column and a z column of ⌈2n/64⌉ words
// over the rows, and the signs are one more such column, so a gate is a
// few word ops per column word and a measurement O(n·⌈2n/64⌉) word ops.
// It simulates Clifford circuits regardless of entanglement; the
// stabilizer register holds one per entangled component, so n is a
// component's qubit count, not the batch's — the engine behind 50-qubit
// fidelity estimation (SimulateScheduleCliffordCtx, CliffordOutcome).
// The boolean tableau in oracle_test.go is its cross-validation
// reference.
type ptab struct {
	n     int
	words int
	// x and z hold every qubit's column back to back (column q is
	// [q*words, (q+1)*words)), r the sign column: three memclrs on reset.
	x, z, r []uint64
	// mask, lo and hi are the measurement scratch columns: the rows a
	// random outcome rewrites (or the stabilizers a deterministic one
	// multiplies) and a bit-sliced mod-4 phase counter over the rows.
	mask, lo, hi []uint64
	// pickRng/pickFn make measureT's random pick allocation-free: the
	// closure is built once here instead of once per measurement, and a
	// decay's pre-drawn coin (frame.go) goes through it as a prng.
	pickRng prng
	pickFn  func() bool
}

func newPtab(n int) *ptab {
	w := (2*n + 63) / 64
	t := &ptab{
		n:     n,
		words: w,
		x:     make([]uint64, n*w),
		z:     make([]uint64, n*w),
		r:     make([]uint64, w),
		mask:  make([]uint64, w),
		lo:    make([]uint64, w),
		hi:    make([]uint64, w),
	}
	t.pickFn = func() bool { return t.pickRng.Intn(2) == 1 }
	t.init()
	return t
}

// init sets the identity tableau (destabilizer X_q, stabilizer Z_q).
func (t *ptab) init() {
	for q := 0; q < t.n; q++ {
		setBit(t.col(t.x, q), q)
		setBit(t.col(t.z, q), t.n+q)
	}
}

// reset restores the identity tableau in place, so per-shard trial
// loops reuse one ptab instead of reallocating it per trial.
func (t *ptab) reset() {
	clear(t.x)
	clear(t.z)
	clear(t.r)
	t.init()
}

// copyFrom makes t a copy of u, a tableau of the same size.
func (t *ptab) copyFrom(u *ptab) {
	copy(t.x, u.x)
	copy(t.z, u.z)
	copy(t.r, u.r)
}

// apply runs one lowered Clifford op on qubit a (and b, for a two-qubit
// op). A SWAP was lowered to a relabel, so it does nothing here.
func (t *ptab) apply(kind opKind, a, b int) {
	switch kind {
	case opCX:
		t.cx(a, b)
	case opCZ:
		t.cz(a, b)
	case opH:
		t.h(a)
	case opX:
		t.xg(a)
	case opY:
		t.yg(a)
	case opZ:
		t.zg(a)
	case opS:
		t.s(a)
	case opSdg:
		t.sdg(a)
	}
}

// col is qubit q's column of the x or z bits.
func (t *ptab) col(bits []uint64, q int) []uint64 {
	return bits[q*t.words : (q+1)*t.words : (q+1)*t.words]
}

func setBit(c []uint64, i int) { c[i>>6] |= 1 << uint(i&63) }

// h applies a Hadamard to qubit q.
func (t *ptab) h(q int) {
	x, z, r := t.col(t.x, q), t.col(t.z, q), t.r
	for w := range r {
		r[w] ^= x[w] & z[w]
		x[w], z[w] = z[w], x[w]
	}
}

// s applies the phase gate to qubit q.
func (t *ptab) s(q int) {
	x, z, r := t.col(t.x, q), t.col(t.z, q), t.r
	for w := range r {
		r[w] ^= x[w] & z[w]
		z[w] ^= x[w]
	}
}

// sdg applies S-dagger to qubit q: X -> -Y, Y -> X.
func (t *ptab) sdg(q int) {
	x, z, r := t.col(t.x, q), t.col(t.z, q), t.r
	for w := range r {
		r[w] ^= x[w] &^ z[w]
		z[w] ^= x[w]
	}
}

// cx applies a CNOT with control c and target tq.
func (t *ptab) cx(c, tq int) {
	xc, zc := t.col(t.x, c), t.col(t.z, c)
	xt, zt := t.col(t.x, tq), t.col(t.z, tq)
	r := t.r
	for w := range r {
		r[w] ^= xc[w] & zt[w] &^ (xt[w] ^ zc[w])
		xt[w] ^= xc[w]
		zc[w] ^= zt[w]
	}
}

// cz applies a controlled-Z to qubits a and b:
// r ^= xa·xb·(za⊕zb), za ^= xb, zb ^= xa.
func (t *ptab) cz(a, b int) {
	xa, za := t.col(t.x, a), t.col(t.z, a)
	xb, zb := t.col(t.x, b), t.col(t.z, b)
	r := t.r
	for w := range r {
		r[w] ^= xa[w] & xb[w] & (za[w] ^ zb[w])
		za[w] ^= xb[w]
		zb[w] ^= xa[w]
	}
}

// A Pauli flips the sign of every row it anticommutes with: X of the
// rows with a z bit on q, Z of those with an x bit, Y of those with one
// but not both.
func (t *ptab) xg(q int) { xorInto(t.r, t.col(t.z, q)) }
func (t *ptab) zg(q int) { xorInto(t.r, t.col(t.x, q)) }
func (t *ptab) yg(q int) {
	x, z, r := t.col(t.x, q), t.col(t.z, q), t.r
	for w := range r {
		r[w] ^= x[w] ^ z[w]
	}
}

func xorInto(dst, src []uint64) {
	for w := range dst {
		dst[w] ^= src[w]
	}
}

// measure performs a Z-basis measurement of qubit q; pick resolves
// random outcomes. The result is bit for bit the row-by-row
// Aaronson-Gottesman procedure the boolean tableau runs.
func (t *ptab) measure(q int, pick func() bool) int {
	n, xq := t.n, t.col(t.x, q)
	// The pivot is the first stabilizer row with an x bit on q.
	p := -1
	for w := n >> 6; w < t.words; w++ {
		v := xq[w]
		if w == n>>6 {
			v &^= 1<<uint(n&63) - 1
		}
		if v != 0 {
			p = w<<6 + bits.TrailingZeros64(v)
			break
		}
	}
	if p < 0 {
		return t.deterministic(q)
	}
	// Random: rowsum(i, p) for every other row i with an x bit on q, all
	// at once. Each target row's i-exponent accumulates in the bit-sliced
	// counter lo + 2·hi, column by column over the pivot's Paulis, before
	// that column takes the pivot's bits; then row p moves to row p-n
	// and becomes Z_q with the picked sign.
	pw, pb := p>>6, uint(p&63)
	dw, db := (p-n)>>6, uint((p-n)&63)
	m, lo, hi := t.mask, t.lo, t.hi
	copy(m, xq)
	m[pw] &^= 1 << pb
	clear(lo)
	clear(hi)
	for j := 0; j < n; j++ {
		x, z := t.col(t.x, j), t.col(t.z, j)
		px, pz := x[pw]>>pb&1, z[pw]>>pb&1
		if px|pz != 0 {
			for w := range m {
				// The pivot's Pauli times the row's: +i where the row holds
				// the next of X→Y→Z→X, -i (3 mod 4) where it holds the one
				// before; lo gets one for either, hi one more for -i.
				xi, zi := x[w], z[w]
				var plus, minus uint64
				switch {
				case pz == 0: // X
					plus, minus = xi&zi, zi&^xi
				case px == 0: // Z
					plus, minus = xi&^zi, xi&zi
				default: // Y
					plus, minus = zi&^xi, xi&^zi
				}
				a0 := (plus | minus) & m[w]
				carry := lo[w] & a0
				lo[w] ^= a0
				hi[w] ^= minus&m[w] ^ carry
				if px != 0 {
					x[w] ^= m[w]
				}
				if pz != 0 {
					z[w] ^= m[w]
				}
			}
		}
		x[dw] = x[dw]&^(1<<db) | px<<db
		z[dw] = z[dw]&^(1<<db) | pz<<db
		x[pw] &^= 1 << pb
		z[pw] &^= 1 << pb
	}
	// A row's new sign is whether 2·r_i + 2·r_p + phase ≡ 2 (mod 4).
	r := t.r
	rp := -(r[pw] >> pb & 1)
	for w := range r {
		sign := (hi[w] ^ r[w] ^ rp) &^ lo[w]
		r[w] = r[w]&^m[w] | sign&m[w]
	}
	r[dw] = r[dw]&^(1<<db) | (rp&1)<<db
	setBit(t.col(t.z, q), p)
	outcome := pick()
	r[pw] &^= 1 << pb
	if outcome {
		r[pw] |= 1 << pb
	}
	return b2i(outcome)
}

// deterministic returns the fixed outcome of measuring q: the sign of
// the product of the stabilizer rows whose destabilizers have an x bit on
// q. Those rows commute, so the product's i-exponent is, column by
// column, Σ x·z over the rows plus 2·Σ_{a<b} z_a·x_b (moving each row's
// X past the earlier rows' Z), plus 2 per negative row; it is ≡ 0 or 2
// (mod 4), and 2 means outcome 1.
func (t *ptab) deterministic(q int) int {
	n, xq, sel := t.n, t.col(t.x, q), t.mask
	// sel = destabilizer rows 0..n-1 of column q, shifted onto their
	// stabilizers n..2n-1.
	clear(sel)
	sw, sb := n>>6, uint(n&63)
	for w := 0; w <= (n-1)>>6; w++ {
		v := xq[w]
		if w == (n-1)>>6 && n&63 != 0 {
			v &= 1<<uint(n&63) - 1
		}
		sel[w+sw] |= v << sb
		if sb != 0 && w+sw+1 < t.words {
			sel[w+sw+1] |= v >> (64 - sb)
		}
	}
	sum := 0
	for w := range sel {
		sum += 2 * bits.OnesCount64(t.r[w]&sel[w])
	}
	x, z := t.x, t.z
	for base := 0; base < len(x); base += len(sel) {
		// A column where no selected row holds an x bit adds nothing.
		var hasX uint64
		for w, s := range sel {
			hasX |= x[base+w] & s
		}
		if hasX == 0 {
			continue
		}
		var prior uint64 // all ones when the earlier words' z bits have odd parity
		for w, s := range sel {
			xs, zs := x[base+w]&s, z[base+w]&s
			pre := zs // inclusive prefix XOR, bit by bit
			pre ^= pre << 1
			pre ^= pre << 2
			pre ^= pre << 4
			pre ^= pre << 8
			pre ^= pre << 16
			pre ^= pre << 32
			sum += bits.OnesCount64(xs&zs) + 2*bits.OnesCount64(xs&(pre<<1^prior))
			prior ^= -(pre >> 63)
		}
	}
	return sum >> 1 & 1
}

func (t *ptab) injectPauliT(q int, rng prng) {
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
func (t *ptab) measureT(q int, rng prng) int {
	t.pickRng = rng
	return t.measure(q, t.pickFn)
}

// decayT is the tableau counterpart of state.decay: projective Z
// measurement followed by relaxation of |1> to |0>.
func (t *ptab) decayT(q int, rng prng) {
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
