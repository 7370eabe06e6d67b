// Package nisqbench provides the NISQ benchmark programs of the paper's
// Table I. The algorithmically well-specified programs
// (Bernstein-Vazirani, Toffoli, Fredkin, Peres, QFT, Ising model) are
// constructed exactly. The RevLib reversible-arithmetic circuits, whose
// original gate lists are not redistributable here, are generated as
// seeded synthetic NCT (NOT / CNOT / Toffoli) circuits matching the
// published qubit and CNOT-count signatures; because NCT circuits are
// classical permutations, their noiseless output on |0...0> is a
// deterministic bitstring, just like the originals — which is what the
// PST metric requires.
package nisqbench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/circuit"
)

// SizeClass groups the benchmarks as in Table I.
type SizeClass int

// Size classes from Table I.
const (
	Tiny SizeClass = iota
	Small
	Large
)

func (s SizeClass) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Large:
		return "large"
	case Extra:
		return "extra"
	}
	return fmt.Sprintf("SizeClass(%d)", int(s))
}

// Spec describes one benchmark: how to build it and its class.
type Spec struct {
	Name  string
	Class SizeClass
	Build func() *circuit.Circuit
}

// revlibSig holds the published (qubits, CNOTs) signature of a RevLib
// circuit that we synthesize. Gate totals follow from the NCT mix.
type revlibSig struct {
	name   string
	class  SizeClass
	qubits int
	cnots  int
}

var revlibSigs = []revlibSig{
	{"3_17_13", Small, 3, 17},
	{"decod24-v2_43", Small, 4, 22},
	{"4mod5-v1_22", Small, 5, 11},
	{"mod5mils_65", Small, 5, 16},
	{"alu-v0_27", Small, 5, 17},
	{"aj-e11_165", Large, 5, 69},
	{"4gt4-v0_72", Large, 6, 113},
	{"alu-bdd_288", Large, 7, 38},
	{"ex2_227", Large, 7, 275},
	{"ham7_104", Large, 7, 149},
	{"sys6-v0_111", Large, 10, 98},
	{"rd53_311", Large, 13, 124},
	{"alu-v2_31", Large, 5, 198},
	{"C17_204", Large, 7, 205},
	{"cnt3-5_180", Large, 16, 215},
	{"sf_276", Large, 6, 336},
	{"sym9_146", Large, 12, 148},
}

var registry = buildRegistry()

func buildRegistry() map[string]Spec {
	reg := map[string]Spec{}
	add := func(name string, class SizeClass, build func() *circuit.Circuit) {
		reg[name] = Spec{Name: name, Class: class, Build: build}
	}
	add("bv_n3", Tiny, func() *circuit.Circuit { return BernsteinVazirani(3) })
	add("bv_n4", Tiny, func() *circuit.Circuit { return BernsteinVazirani(4) })
	add("bv_n10", Large, func() *circuit.Circuit { return BernsteinVazirani(10) })
	add("peres_3", Tiny, Peres)
	add("toffoli_3", Tiny, Toffoli)
	add("fredkin_3", Tiny, Fredkin)
	add("qft_10", Large, func() *circuit.Circuit { return QFT(10) })
	add("qft_16", Large, func() *circuit.Circuit { return QFT(16) })
	add("ising_model_10", Large, func() *circuit.Circuit { return IsingModel(10, 5) })
	for _, sig := range revlibSigs {
		sig := sig
		add(sig.name, sig.class, func() *circuit.Circuit {
			return SyntheticRevLib(sig.name, sig.qubits, sig.cnots)
		})
	}
	return reg
}

// Get builds the named benchmark circuit. The returned circuit ends with
// measurements on every qubit.
func Get(name string) (*circuit.Circuit, error) {
	spec, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("nisqbench: unknown benchmark %q", name)
	}
	return spec.Build(), nil
}

// MustGet is Get but panics on unknown names; for tests and examples.
func MustGet(name string) *circuit.Circuit {
	c, err := Get(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns all benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByClass returns the benchmark names of one size class, sorted.
func ByClass(class SizeClass) []string {
	var out []string
	for n, s := range registry {
		if s.Class == class {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Class returns the size class of a known benchmark.
func Class(name string) (SizeClass, error) {
	spec, ok := registry[name]
	if !ok {
		return 0, fmt.Errorf("nisqbench: unknown benchmark %q", name)
	}
	return spec.Class, nil
}

// BernsteinVazirani returns the n-qubit BV circuit for the hidden string
// of all ones over n-1 data qubits (qubit n-1 is the ancilla). The
// noiseless outcome on the data qubits is the hidden string.
func BernsteinVazirani(n int) *circuit.Circuit {
	if n < 2 {
		panic("nisqbench: BV needs >= 2 qubits")
	}
	c := circuit.New(fmt.Sprintf("bv_n%d", n), n)
	anc := n - 1
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	c.X(anc)
	c.H(anc)
	for q := 0; q < n-1; q++ {
		c.CX(q, anc)
	}
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	c.H(anc)
	c.X(anc) // uncompute the ancilla to |0> for a clean deterministic output
	return c.MeasureAll()
}

// Toffoli returns the decomposed Toffoli benchmark: controls prepared in
// |11> so the target deterministically flips (|111> out).
func Toffoli() *circuit.Circuit {
	c := circuit.New("toffoli_3", 3)
	c.X(0).X(1)
	circuit.AppendToffoli(c, 0, 1, 2)
	return c.MeasureAll()
}

// Peres returns the Peres-gate benchmark (Toffoli followed by a CNOT on
// the controls), inputs prepared as |11>.
func Peres() *circuit.Circuit {
	c := circuit.New("peres_3", 3)
	c.X(0).X(1)
	circuit.AppendToffoli(c, 0, 1, 2)
	c.CX(0, 1)
	return c.MeasureAll()
}

// Fredkin returns the controlled-SWAP benchmark with the control and
// first target prepared in |1>, so the targets swap (|101> out). The
// standard decomposition is CX(b,a); CCX(c,a,b); CX(b,a).
func Fredkin() *circuit.Circuit {
	c := circuit.New("fredkin_3", 3)
	c.X(0).X(1)
	c.CX(2, 1)
	circuit.AppendToffoli(c, 0, 1, 2)
	c.CX(2, 1)
	return c.MeasureAll()
}

// QFT returns the n-qubit quantum Fourier transform with each controlled
// phase decomposed into two CNOTs and three u1 rotations (the final
// qubit-reversal SWAP network is omitted, as is conventional for mapping
// benchmarks).
func QFT(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("qft_%d", n), n)
	for i := 0; i < n; i++ {
		c.H(i)
		for j := i + 1; j < n; j++ {
			theta := math.Pi / math.Pow(2, float64(j-i))
			appendCU1(c, theta, j, i)
		}
	}
	return c.MeasureAll()
}

// appendCU1 appends a controlled-u1(theta) using 2 CNOTs.
func appendCU1(c *circuit.Circuit, theta float64, control, target int) {
	c.RZ(theta/2, control)
	c.CX(control, target)
	c.RZ(-theta/2, target)
	c.CX(control, target)
	c.RZ(theta/2, target)
}

// IsingModel returns a trotterized 1-D transverse-field Ising chain on n
// qubits with the given number of Trotter steps. Each step applies a ZZ
// interaction (2 CNOTs) on every nearest-neighbor pair plus RX fields.
func IsingModel(n, steps int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("ising_model_%d", n), n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for s := 0; s < steps; s++ {
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
			c.RZ(0.3, q+1)
			c.CX(q, q+1)
		}
		for q := 0; q < n; q++ {
			c.RX(0.2, q)
		}
	}
	return c.MeasureAll()
}

// SyntheticRevLib generates a deterministic classical-reversible (NCT)
// circuit with the given qubit count whose CNOT count (after Toffoli
// decomposition) is exactly targetCNOTs. The gate sequence is seeded by
// the circuit name, so the same name always produces the same circuit.
// Two-qubit interactions have a locality bias (geometrically distributed
// operand distance) to mimic the structure of real arithmetic circuits.
func SyntheticRevLib(name string, qubits, targetCNOTs int) *circuit.Circuit {
	if qubits < 3 {
		panic("nisqbench: synthetic RevLib circuits need >= 3 qubits")
	}
	rng := rand.New(rand.NewSource(seedFromName(name)))
	c := circuit.New(name, qubits)
	// Prepare a non-trivial basis input so the permutation output isn't
	// |0...0>.
	for q := 0; q < qubits; q += 2 {
		c.X(q)
	}
	pick2 := func() (int, int) {
		a := rng.Intn(qubits)
		// Geometric-ish distance bias: mostly neighbors.
		d := 1 + rng.Intn(2) + rng.Intn(2)
		b := a + d
		if rng.Intn(2) == 0 {
			b = a - d
		}
		if b < 0 || b >= qubits {
			b = (a + d) % qubits
		}
		if a == b {
			b = (a + 1) % qubits
		}
		return a, b
	}
	cnots := 0
	for cnots < targetCNOTs {
		remaining := targetCNOTs - cnots
		switch {
		case remaining >= 6 && rng.Float64() < 0.45:
			a, b := pick2()
			t := rng.Intn(qubits)
			for t == a || t == b {
				t = rng.Intn(qubits)
			}
			circuit.AppendToffoli(c, a, b, t)
			cnots += 6
		default:
			a, b := pick2()
			c.CX(a, b)
			cnots++
		}
		if rng.Float64() < 0.25 {
			c.X(rng.Intn(qubits))
		}
	}
	return c.MeasureAll()
}

func seedFromName(name string) int64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h & math.MaxInt64)
}
