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
// single pass.
func TestPackedMatchesBooleanTableau(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := newTableau(n)
		b := newPtab(n)
		for step := 0; step < 60; step++ {
			q := rng.Intn(n)
			switch rng.Intn(10) {
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
				r := rng.Intn(n - 1)
				if r >= q {
					r++
				}
				if step%2 == 0 {
					a.cz(q, r)
					b.cz(q, r)
				} else {
					a.cx(q, r)
					b.cx(q, r)
				}
			default:
				// Mid-circuit measurement with a shared random pick.
				pickVal := rng.Intn(2) == 1
				pick := func() bool { return pickVal }
				ma := a.measure(q, pick)
				mb := b.measure(q, pick)
				if ma != mb {
					return false
				}
			}
		}
		for i := 0; i < 2*n; i++ {
			if a.r[i] != b.r[i] {
				return false
			}
			for k := 0; k < n; k++ {
				if a.x[i][k] != b.getx(i, k) || a.z[i][k] != b.getz(i, k) {
					return false
				}
			}
		}
		// Final readout of every qubit, prefer 0.
		for q := 0; q < n; q++ {
			if a.measure(q, func() bool { return false }) != b.measure(q, func() bool { return false }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
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
