package nisqbench

import (
	"bytes"
	"testing"

	"repro/internal/circuit"
)

func TestAllBenchmarksBuildAndValidate(t *testing.T) {
	for _, name := range Names() {
		c := MustGet(name)
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if c.MeasureCount() != c.NumQubits {
			t.Errorf("%s: %d measures for %d qubits", name, c.MeasureCount(), c.NumQubits)
		}
		if c.RawCNOTCount() == 0 && name != "bv_n2" {
			t.Errorf("%s: no CNOTs", name)
		}
	}
}

func TestTableIInventory(t *testing.T) {
	// The registry must contain exactly the Table I programs.
	wantTiny := []string{"bv_n3", "bv_n4", "fredkin_3", "peres_3", "toffoli_3"}
	wantSmall := []string{"3_17_13", "4mod5-v1_22", "alu-v0_27", "decod24-v2_43", "mod5mils_65"}
	if got := ByClass(Tiny); !equalStrings(got, wantTiny) {
		t.Fatalf("tiny = %v, want %v", got, wantTiny)
	}
	if got := ByClass(Small); !equalStrings(got, wantSmall) {
		t.Fatalf("small = %v, want %v", got, wantSmall)
	}
	if got := len(ByClass(Large)); got != 16 {
		t.Fatalf("large count = %d, want 16", got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := Class("nope"); err == nil {
		t.Fatal("unknown class must error")
	}
}

func TestClassReporting(t *testing.T) {
	if cl, _ := Class("bv_n3"); cl != Tiny {
		t.Fatalf("bv_n3 class = %v", cl)
	}
	if cl, _ := Class("qft_16"); cl != Large {
		t.Fatalf("qft_16 class = %v", cl)
	}
	if Tiny.String() != "tiny" || Small.String() != "small" || Large.String() != "large" {
		t.Fatal("SizeClass strings")
	}
}

func TestBVStructure(t *testing.T) {
	c := BernsteinVazirani(4)
	if c.NumQubits != 4 {
		t.Fatalf("qubits = %d", c.NumQubits)
	}
	if got := c.RawCNOTCount(); got != 3 {
		t.Fatalf("bv_n4 CNOTs = %d, want 3", got)
	}
}

func TestToffoliFredkinPeresCNOTs(t *testing.T) {
	if got := Toffoli().RawCNOTCount(); got != 6 {
		t.Fatalf("toffoli CNOTs = %d, want 6", got)
	}
	if got := Fredkin().RawCNOTCount(); got != 8 {
		t.Fatalf("fredkin CNOTs = %d, want 8", got)
	}
	if got := Peres().RawCNOTCount(); got != 7 {
		t.Fatalf("peres CNOTs = %d, want 7", got)
	}
}

func TestQFTCNOTCount(t *testing.T) {
	// QFT(n) has n(n-1)/2 controlled phases, each 2 CNOTs.
	c := QFT(10)
	if got, want := c.RawCNOTCount(), 90; got != want {
		t.Fatalf("qft_10 CNOTs = %d, want %d", got, want)
	}
	if got, want := QFT(16).RawCNOTCount(), 240; got != want {
		t.Fatalf("qft_16 CNOTs = %d, want %d", got, want)
	}
}

func TestIsingCNOTCount(t *testing.T) {
	c := IsingModel(10, 5)
	if got, want := c.RawCNOTCount(), 90; got != want { // 9 pairs x 2 x 5 steps
		t.Fatalf("ising CNOTs = %d, want %d", got, want)
	}
}

func TestSyntheticRevLibSignatures(t *testing.T) {
	for _, sig := range revlibSigs {
		c := MustGet(sig.name)
		if c.NumQubits != sig.qubits {
			t.Errorf("%s qubits = %d, want %d", sig.name, c.NumQubits, sig.qubits)
		}
		if got := c.RawCNOTCount(); got != sig.cnots {
			t.Errorf("%s CNOTs = %d, want %d", sig.name, got, sig.cnots)
		}
	}
}

func TestSyntheticRevLibDeterministic(t *testing.T) {
	a := SyntheticRevLib("ham7_104", 7, 149)
	b := SyntheticRevLib("ham7_104", 7, 149)
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("same name must give same circuit")
	}
	for i := range a.Gates {
		if a.Gates[i].String() != b.Gates[i].String() {
			t.Fatalf("gate %d differs: %v vs %v", i, a.Gates[i], b.Gates[i])
		}
	}
	c := SyntheticRevLib("other", 7, 149)
	same := len(a.Gates) == len(c.Gates)
	if same {
		for i := range a.Gates {
			if a.Gates[i].String() != c.Gates[i].String() {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different names must differ")
	}
}

func TestSyntheticRevLibIsNCTOnly(t *testing.T) {
	// Only classical-permutation building blocks (plus the Toffoli
	// decomposition's h/t/tdg) and measurements may appear.
	allowed := map[string]bool{
		circuit.GateX: true, circuit.GateCX: true, circuit.GateH: true,
		circuit.GateT: true, circuit.GateTdg: true, circuit.GateMeasure: true,
	}
	c := MustGet("alu-v0_27")
	for _, g := range c.Gates {
		if !allowed[g.Name] {
			t.Fatalf("unexpected gate %q in synthetic RevLib circuit", g.Name)
		}
	}
}

func TestTinyBenchmarksAreTiny(t *testing.T) {
	for _, name := range ByClass(Tiny) {
		c := MustGet(name)
		if c.NumQubits > 5 {
			t.Errorf("%s: %d qubits, tiny should be <= 5", name, c.NumQubits)
		}
		if c.RawCNOTCount() > 60 {
			t.Errorf("%s: %d CNOTs, too many for tiny", name, c.RawCNOTCount())
		}
	}
}

// TestQASMRoundTrip writes every registered benchmark as OpenQASM,
// parses it back and requires the same shape and, written again, the
// same text.
func TestQASMRoundTrip(t *testing.T) {
	for _, name := range Names() {
		want := MustGet(name)
		var buf bytes.Buffer
		if err := circuit.WriteQASM(&buf, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := buf.String()
		got, err := circuit.ParseQASM(name, &buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumQubits != want.NumQubits || got.RawCNOTCount() != want.RawCNOTCount() ||
			got.MeasureCount() != want.MeasureCount() {
			t.Fatalf("%s round-trip mismatch: %d/%d/%d vs %d/%d/%d", name,
				got.NumQubits, got.RawCNOTCount(), got.MeasureCount(),
				want.NumQubits, want.RawCNOTCount(), want.MeasureCount())
		}
		if again := circuit.QASMString(got); again != src {
			t.Fatalf("%s: rewritten QASM differs from the first write", name)
		}
	}
}
