package circuit

import (
	"math"
	"strings"
	"testing"
)

const sampleQASM = `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/2) q[2];
u3(pi/2, 0, -pi) q[1]; // euler rotation
barrier q[0],q[1],q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
`

func TestParseQASMBasics(t *testing.T) {
	c, err := ParseQASMString("sample", sampleQASM)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 {
		t.Fatalf("qubits = %d", c.NumQubits)
	}
	if c.RawCNOTCount() != 1 || c.MeasureCount() != 2 {
		t.Fatalf("cnots=%d measures=%d", c.RawCNOTCount(), c.MeasureCount())
	}
	var rz Gate
	for _, g := range c.Gates {
		if g.Name == GateRZ {
			rz = g
		}
	}
	if len(rz.Params) != 1 || math.Abs(rz.Params[0]-math.Pi/2) > 1e-12 {
		t.Fatalf("rz params = %v", rz.Params)
	}
	var u3 Gate
	for _, g := range c.Gates {
		if g.Name == GateU3 {
			u3 = g
		}
	}
	if len(u3.Params) != 3 || math.Abs(u3.Params[2]+math.Pi) > 1e-12 {
		t.Fatalf("u3 params = %v", u3.Params)
	}
}

func TestParseQASMMultiLineStatement(t *testing.T) {
	src := "OPENQASM 2.0;\nqreg q[2]\n;\ncx\nq[0],\nq[1];\n"
	c, err := ParseQASMString("ml", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.RawCNOTCount() != 1 {
		t.Fatalf("cnots = %d", c.RawCNOTCount())
	}
}

func TestParseQASMCCXExpanded(t *testing.T) {
	src := "qreg q[3]; ccx q[0],q[1],q[2];"
	c, err := ParseQASMString("ccx", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.RawCNOTCount() != 6 {
		t.Fatalf("ccx must expand to 6 CNOTs, got %d", c.RawCNOTCount())
	}
}

func TestParseQASMErrors(t *testing.T) {
	cases := []string{
		"cx q[0],q[1];",               // gate before qreg
		"qreg q[2]; frobnicate q[0];", // unknown gate
		"qreg q[2]; cx q[0];",         // wrong arity
		"qreg q[0];",                  // zero-size register
		"qreg q[2]; h q[5];",          // parse ok but Add panics? -> out of range
		"qreg q[2]; rz(pi/0) q[0];",   // division by zero
		"qreg q[2]; h q[0]",           // unterminated
	}
	for _, src := range cases {
		func() {
			defer func() { recover() }() // out-of-range Add panics; treat as failure signal too
			if c, err := ParseQASMString("bad", src); err == nil && c != nil {
				// The out-of-range case panics inside Add; reaching here
				// with no error means the parser accepted invalid input.
				if src != "qreg q[2]; h q[5];" {
					t.Errorf("ParseQASM(%q) accepted invalid input", src)
				}
			}
		}()
	}
}

func TestQASMRoundTrip(t *testing.T) {
	c := New("rt", 3)
	c.H(0).CX(0, 1).RZ(1.25, 2).SWAP(1, 2).MeasureAll()
	src := QASMString(c)
	got, err := ParseQASMString("rt", src)
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, src)
	}
	if got.NumQubits != c.NumQubits || len(got.Gates) != len(c.Gates) {
		t.Fatalf("round-trip mismatch: %d gates vs %d", len(got.Gates), len(c.Gates))
	}
	for i := range c.Gates {
		if got.Gates[i].Name != c.Gates[i].Name {
			t.Fatalf("gate %d: %q vs %q", i, got.Gates[i].Name, c.Gates[i].Name)
		}
	}
}

func TestEvalExpr(t *testing.T) {
	cases := map[string]float64{
		"pi":           math.Pi,
		"pi/2":         math.Pi / 2,
		"-pi/4":        -math.Pi / 4,
		"3*pi/2":       3 * math.Pi / 2,
		"1+2*3":        7,
		"(1+2)*3":      9,
		"2.5e-1":       0.25,
		"-(1-4)":       3,
		"pi/2 + pi/4":  3 * math.Pi / 4,
		"--1":          1,
		"+0.5":         0.5,
		"1e3":          1000,
		"(pi)/(2)":     math.Pi / 2,
		"0.1*0.2":      0.1 * 0.2,
		"10/4":         2.5,
		"1-2-3":        -4, // left associativity
		"8/2/2":        2,
		"pi*pi":        math.Pi * math.Pi,
		"2*(3+(4-1))":  12,
		"-pi":          -math.Pi,
		"0":            0,
		"  1 + 1  ":    2,
		"1.5 * -2":     -3,
		"(1+1)*(2+2)":  8,
		"3.14159":      3.14159,
		"1/3":          1.0 / 3.0,
		"2e2/4":        50,
		"((((1))))":    1,
		"pi - pi":      0,
		"5*0.2":        1,
		"7/7":          1,
		"1+2+3+4":      10,
		"2*2*2":        8,
		"100/10*2":     20, // left-to-right
		"-1*-1":        1,
		"(2+3)*(2-3)":  -5,
		"0.5+0.25":     0.75,
		"pi/2/2":       math.Pi / 4,
		"1e-2":         0.01,
		"9.99":         9.99,
		"-(-(-(1)))":   -1,
		"4*(pi/4)":     math.Pi,
		"((1+2)*3)+4":  13,
		"1 - -1":       2,
		"2 * (1 + 1)":  4,
		"(1/2)*(1/2)":  0.25,
		"3 - 1 * 2":    1, // precedence
		"(3 - 1) * 2":  4,
		"6/3+1":        3,
		"6/(3+1)":      1.5,
		"2+pi*0":       2,
		"1.0e0":        1,
		"0.0":          0,
		"5":            5,
		"(pi+pi)/2":    math.Pi,
		"((2)*(3))/6":  1,
		"1/(1+1)":      0.5,
		"10-5-5":       0,
		"2*pi":         2 * math.Pi,
		"-0.5*2":       -1,
		"4/2*3":        6,
		"1+(2*(3+4))":  15,
		"(1)":          1,
		"((1+1))":      2,
		"-((1+1))":     -2,
		"3*-2":         -6,
		"0.25*4":       1,
		"pi/(2*2)":     math.Pi / 4,
		"1e1*1e1":      100,
		"100/4/5":      5,
		"7-2*3":        1,
		"(7-2)*3":      15,
		"2.5*2":        5,
		"9/3*3":        9,
		"1+1/2":        1.5,
		"(1+1)/2":      1,
		"pi*0.5":       math.Pi / 2,
		"0-1":          -1,
		"5+-3":         2,
		"5-+3":         2,
		"1.25e2":       125,
		"3/4":          0.75,
		"(2*3)+(4*5)":  26,
		"((2*3)+4)*5":  50,
		"-(2+3)*2":     -10,
		"1/8":          0.125,
		"16/2/2/2":     2,
		"2+2":          4,
		"pi+0":         math.Pi,
		"(0.1+0.2)*10": (0.1 + 0.2) * 10,
	}
	for src, want := range cases {
		got, err := evalExprVars(src, nil)
		if err != nil {
			t.Errorf("evalExprVars(%q): %v", src, err)
			continue
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("evalExprVars(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestEvalExprErrors(t *testing.T) {
	for _, src := range []string{"", "1+", "(1", "1)", "1//2", "abc", "1 2", "*3", "1/(2-2)"} {
		if _, err := evalExprVars(src, nil); err == nil {
			t.Errorf("evalExprVars(%q) must error", src)
		}
	}
}

func TestWriteQASMContainsHeader(t *testing.T) {
	c := New("h", 1).H(0).Measure(0)
	s := QASMString(c)
	for _, want := range []string{"OPENQASM 2.0;", "qreg q[1];", "h q[0];", "measure q[0] -> c[0];"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

const gateDefQASM = `
OPENQASM 2.0;
include "qelib1.inc";
gate majority a,b,c
{
  cx c,b;
  cx c,a;
  ccx a,b,c;
}
gate rot(theta) q {
  rz(theta/2) q;
  rx(theta) q;
  rz(-theta/2) q;
}
qreg q[4];
creg c[4];
majority q[0],q[1],q[2];
rot(pi/2) q[3];
measure q[0] -> c[0];
`

func TestParseQASMGateDefinitions(t *testing.T) {
	c, err := ParseQASMString("defs", gateDefQASM)
	if err != nil {
		t.Fatal(err)
	}
	// majority expands to 2 cx + ccx (6 cx) = 8 CNOTs.
	if got := c.RawCNOTCount(); got != 8 {
		t.Fatalf("CNOTs = %d, want 8", got)
	}
	// rot expands to rz, rx, rz on qubit 3 with bound parameters.
	var rzs []Gate
	for _, g := range c.Gates {
		if g.Name == GateRZ && g.Qubits[0] == 3 {
			rzs = append(rzs, g)
		}
	}
	if len(rzs) != 2 {
		t.Fatalf("rz on q3 = %d, want 2", len(rzs))
	}
	if math.Abs(rzs[0].Params[0]-math.Pi/4) > 1e-12 {
		t.Fatalf("rz theta/2 = %v, want pi/4", rzs[0].Params[0])
	}
	if math.Abs(rzs[1].Params[0]+math.Pi/4) > 1e-12 {
		t.Fatalf("rz -theta/2 = %v, want -pi/4", rzs[1].Params[0])
	}
}

func TestParseQASMNestedGateDefinitions(t *testing.T) {
	src := `
qreg q[3];
gate inner a,b { cx a,b; }
gate outer a,b,c { inner a,b; inner b,c; }
outer q[0],q[1],q[2];
`
	c, err := ParseQASMString("nested", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RawCNOTCount(); got != 2 {
		t.Fatalf("CNOTs = %d, want 2", got)
	}
	if c.Gates[0].Qubits[0] != 0 || c.Gates[1].Qubits[1] != 2 {
		t.Fatalf("expansion qubits wrong: %v", c.Gates)
	}
}

// TestSplitStatementsErrorOffsets pins the offset info on the three
// malformed-input shapes: a trailing statement with no ';', an
// unclosed '{' reaching end of input, and a stray '}'. Offsets index
// the cleaned source handed to splitStatements.
func TestSplitStatementsErrorOffsets(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"qreg q[2]; h q[0]", `trailing unterminated statement "h q[0]" at offset 11`},
		{"qreg q[2]; gate g a { cx a,a", "unclosed '{' opened at offset 20"},
		{"qreg q[1]; }", "unbalanced '}' at offset 11"},
		{"h q[0]", `trailing unterminated statement "h q[0]" at offset 0`},
		{"{", "unclosed '{' opened at offset 0"},
	}
	for _, c := range cases {
		_, err := splitStatements(c.src)
		if err == nil {
			t.Errorf("splitStatements(%q) accepted malformed input", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("splitStatements(%q) error = %q, want it to contain %q", c.src, err, c.want)
		}
	}
}

// TestParseQASMErrorsCarryOffsets checks the offsets survive the
// ParseQASM wrapping, so a user of the public API can locate the
// malformed byte.
func TestParseQASMErrorsCarryOffsets(t *testing.T) {
	if _, err := ParseQASMString("bad", "qreg q[2]; h q[0]"); err == nil || !strings.Contains(err.Error(), "offset") {
		t.Errorf("trailing statement error lacks offset info: %v", err)
	}
	if _, err := ParseQASMString("bad", "qreg q[2]; gate g a { cx a,a"); err == nil || !strings.Contains(err.Error(), "offset") {
		t.Errorf("unclosed brace error lacks offset info: %v", err)
	}
}

func TestParseQASMGateDefErrors(t *testing.T) {
	cases := []string{
		"qreg q[2]; gate g a,b { cx a,b; } g q[0];",           // wrong qubit count
		"qreg q[2]; gate g(t) a { rz(t) a; } g q[0];",         // missing parameter
		"qreg q[2]; gate g a { rz(undefinedvar) a; } g q[0];", // unknown identifier
		"qreg q[2]; gate g a { cx a,a",                        // unbalanced brace
	}
	for _, src := range cases {
		if _, err := ParseQASMString("bad", src); err == nil {
			t.Errorf("ParseQASM(%q) accepted invalid input", src)
		}
	}
}

func TestParseQASMBarrierInsideGateBodyIgnored(t *testing.T) {
	src := "qreg q[2]; gate g a,b { cx a,b; barrier a; cx a,b; } g q[0],q[1];"
	c, err := ParseQASMString("b", src)
	if err != nil {
		t.Fatal(err)
	}
	// Body barriers are scheduling hints within the definition; the
	// expansion keeps only the gates.
	if got := c.RawCNOTCount(); got != 2 {
		t.Fatalf("CNOTs = %d", got)
	}
	for _, g := range c.Gates {
		if g.IsBarrier() {
			t.Fatal("body barrier must not leak into the circuit")
		}
	}
}
