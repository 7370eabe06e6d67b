package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

// TestPackedMatchesBooleanTableau drives both stabilizer backends with
// identical random Clifford gate streams and measurement orders; every
// outcome (with identical random picks) must agree, and so must every
// bit and sign of the final tableaus. The boolean tableau composes X, Y,
// Z, Sdg and CZ from H, S and CX; the packed one updates each in a
// single pass. Here every column fits in one word.
func TestPackedMatchesBooleanTableau(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return packedMatchesBoolean(rng, 2+rng.Intn(8), 60)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedMatchesBooleanTableauMultiWord is the same check at widths
// whose 2n rows end just before, on and just after one and two word
// boundaries, so the pivot search, the destabilizer-to-stabilizer shift
// and the deterministic outcome's prefix parity all cross words.
func TestPackedMatchesBooleanTableauMultiWord(t *testing.T) {
	for _, n := range []int{31, 32, 33, 63, 64, 65} {
		f := func(seed int64) bool {
			return packedMatchesBoolean(rand.New(rand.NewSource(seed)), n, 12*n)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// packedMatchesBoolean runs steps random gates and mid-circuit
// measurements on n qubits through both tableaus, then compares them
// bit for bit and reads every qubit out.
func packedMatchesBoolean(rng *rand.Rand, n, steps int) bool {
	a, b := newTableau(n), newPtab(n)
	for step := 0; step < steps; step++ {
		q, r := rng.Intn(n), rng.Intn(n-1)
		if r >= q {
			r++
		}
		if !stepBoth(a, b, rng.Intn(10), q, r, step%2 == 0, rng.Intn(2) == 1) {
			return false
		}
	}
	if !sameTableau(a, b) {
		return false
	}
	// Final readout of every qubit, prefer 0.
	for q := 0; q < n; q++ {
		if a.measure(q, func() bool { return false }) != b.measure(q, func() bool { return false }) {
			return false
		}
	}
	return sameTableau(a, b)
}

// stepBoth applies operation op (0-5 a one-qubit gate on q, 6-8 a CZ or,
// when cz is false, a CX from q to r, 9 a measurement of q with the
// random outcome pick) to both tableaus and reports whether the
// measured outcomes agree.
func stepBoth(a *tableau, b *ptab, op, q, r int, cz, pick bool) bool {
	switch op {
	case 0:
		a.h(q)
		b.h(q)
	case 1:
		a.s(q)
		b.s(q)
	case 2:
		a.sdg(q)
		b.sdg(q)
	case 3:
		a.xg(q)
		b.xg(q)
	case 4:
		a.yg(q)
		b.yg(q)
	case 5:
		a.zg(q)
		b.zg(q)
	case 6, 7, 8:
		if cz {
			a.cz(q, r)
			b.cz(q, r)
		} else {
			a.cx(q, r)
			b.cx(q, r)
		}
	default:
		return a.measure(q, func() bool { return pick }) == b.measure(q, func() bool { return pick })
	}
	return true
}

// sameTableau compares every row's sign and every x and z bit.
func sameTableau(a *tableau, b *ptab) bool {
	for i := 0; i < 2*a.n; i++ {
		if a.r[i] != b.getr(i) {
			return false
		}
		for k := 0; k < a.n; k++ {
			if a.x[i][k] != b.getx(i, k) || a.z[i][k] != b.getz(i, k) {
				return false
			}
		}
	}
	return true
}

func getBit(c []uint64, i int) bool { return c[i>>6]&(1<<uint(i&63)) != 0 }

// getx, getz and getr read row i's bit on qubit q and its sign.
func (t *ptab) getx(i, q int) bool { return getBit(t.col(t.x, q), i) }
func (t *ptab) getz(i, q int) bool { return getBit(t.col(t.z, q), i) }
func (t *ptab) getr(i int) bool    { return getBit(t.r, i) }

// FuzzPackedTableau decodes its input into a qubit count and a stream of
// gates, measurements and random picks, and runs it through the packed
// and the boolean tableau: every outcome, bit and sign must agree. The
// first byte sets n in 1..70; each later group of three bytes is one
// step, its operation (and the pick, in the high bit) and two qubits.
func FuzzPackedTableau(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 6, 0, 1, 9, 1, 0, 0x89, 0, 0})
	f.Add([]byte{33, 0, 5, 0, 7, 5, 40, 1, 40, 0, 9, 40, 0, 0x89, 5, 0, 9, 40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%70
		a, b := newTableau(n), newPtab(n)
		for i := 1; i+2 < len(data); i += 3 {
			op, q, r := int(data[i]&0x7f)%10, int(data[i+1])%n, int(data[i+2])%n
			if op >= 6 && op <= 8 && q == r {
				continue
			}
			if !stepBoth(a, b, op, q, r, op == 6, data[i]&0x80 != 0) {
				t.Fatalf("step %d: outcomes differ", i/3)
			}
		}
		if !sameTableau(a, b) {
			t.Fatal("tableaus differ")
		}
	})
}

func TestPackedTableauLargeChip(t *testing.T) {
	// 100-qubit GHZ: well beyond the statevector limit; prefer-0
	// readout must give all zeros, and bell correlations must hold.
	n := 100
	b := newPtab(n)
	b.h(0)
	for q := 0; q+1 < n; q++ {
		b.cx(q, q+1)
	}
	first := b.measure(0, func() bool { return false })
	for q := 1; q < n; q++ {
		if got := b.measure(q, func() bool { return false }); got != first {
			t.Fatalf("GHZ qubit %d decorrelated: %d vs %d", q, got, first)
		}
	}
	if first != 0 {
		t.Fatal("prefer-0 readout must resolve GHZ to all zeros")
	}
}

func BenchmarkPackedVsBooleanTableau(b *testing.B) {
	run := func(b *testing.B, mk func(int) cliffordBackend) {
		n := 50
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb := mk(n)
			for q := 0; q < n; q++ {
				tb.injectPauliT(q%n, rand.New(rand.NewSource(int64(q))))
			}
			for q := 0; q+1 < n; q++ {
				if err := tb.applyCliffordGate(cxGate(q, q+1), ident); err != nil {
					b.Fatal(err)
				}
			}
			for q := 0; q < n; q++ {
				tb.measure(q, func() bool { return false })
			}
		}
	}
	b.Run("boolean", func(b *testing.B) {
		run(b, func(n int) cliffordBackend { return newTableau(n) })
	})
	b.Run("packed", func(b *testing.B) {
		run(b, func(n int) cliffordBackend { return newPtab(n) })
	})
}

func ident(q int) int { return q }

func cxGate(c, t int) circuit.Gate {
	return circuit.Gate{Name: circuit.GateCX, Qubits: []int{c, t}}
}

// BenchmarkTableauMeasureHeavy stresses the rowsum path (random-outcome
// measurements on a fully superposed register), where bit-packing pays.
func BenchmarkTableauMeasureHeavy(b *testing.B) {
	run := func(b *testing.B, mk func(int) cliffordBackend) {
		n := 64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb := mk(n)
			for q := 0; q < n; q++ {
				if err := tb.applyCliffordGate(circuit.Gate{Name: circuit.GateH, Qubits: []int{q}}, ident); err != nil {
					b.Fatal(err)
				}
			}
			for q := 0; q+1 < n; q++ {
				if err := tb.applyCliffordGate(cxGate(q, q+1), ident); err != nil {
					b.Fatal(err)
				}
			}
			for q := 0; q < n; q++ {
				tb.measure(q, func() bool { return false })
			}
		}
	}
	b.Run("boolean", func(b *testing.B) {
		run(b, func(n int) cliffordBackend { return newTableau(n) })
	})
	b.Run("packed", func(b *testing.B) {
		run(b, func(n int) cliffordBackend { return newPtab(n) })
	})
}
