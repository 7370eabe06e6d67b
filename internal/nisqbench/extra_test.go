package nisqbench

import "testing"

func TestExtraSuiteRegistered(t *testing.T) {
	want := []string{"adder_n4", "dj_n4", "ghz_n4", "ghz_n8", "grover_n2", "qaoa_n6", "wstate_n3"}
	got := ByClass(Extra)
	if len(got) != len(want) {
		t.Fatalf("extra = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("extra = %v, want %v", got, want)
		}
	}
	if Extra.String() != "extra" {
		t.Fatal("Extra string")
	}
}

// MustGet builds through circuit.Circuit.Add, which panics on an
// out-of-range operand or a bad arity, so building validates.
func TestExtraBenchmarksValidate(t *testing.T) {
	for _, name := range ByClass(Extra) {
		c := MustGet(name)
		if c.MeasureCount() != c.NumQubits {
			t.Errorf("%s: %d measures for %d qubits", name, c.MeasureCount(), c.NumQubits)
		}
	}
}

func TestGHZStructure(t *testing.T) {
	c := GHZ(8)
	if c.NumQubits != 8 || c.RawCNOTCount() != 7 {
		t.Fatalf("ghz_n8: %d qubits %d CNOTs", c.NumQubits, c.RawCNOTCount())
	}
}

func TestQAOACNOTCount(t *testing.T) {
	// Ring of 6 with 2 layers: 6 edges x 2 CNOTs x 2 layers = 24.
	if got := QAOAMaxCutRing(6, 2).RawCNOTCount(); got != 24 {
		t.Fatalf("qaoa CNOTs = %d, want 24", got)
	}
}

func TestExtraConstructorsPanicOnBadArgs(t *testing.T) {
	for name, f := range map[string]func(){
		"ghz":    func() { GHZ(1) },
		"wstate": func() { WState(4) },
		"dj":     func() { DeutschJozsa(1) },
		"qaoa":   func() { QAOAMaxCutRing(2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad args must panic", name)
				}
			}()
			f()
		}()
	}
}
