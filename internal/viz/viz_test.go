package viz

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/router"
)

func TestCalibrationReport(t *testing.T) {
	d := arch.Linear(3, 0.02, 0.05)
	d.CNOTErr[graph.NewEdge(1, 2)] = 0.09 // weak
	rep := CalibrationReport(d)
	for _, want := range []string{"device linear3", "readout error", "CNOT error", "<- weak", "Q0", "Q1-Q2"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	// Worst link first: the weak 1-2 line precedes 0-1.
	if strings.Index(rep, "Q1-Q2") > strings.Index(rep, "Q0-Q1") {
		t.Fatal("links must be sorted worst first")
	}
}

func routedBell(t *testing.T) (*router.Schedule, *circuit.Circuit) {
	t.Helper()
	d := arch.Linear(3, 0.02, 0.02)
	p := circuit.New("p", 2)
	p.H(0).CX(0, 1).MeasureAll()
	s, err := router.Route(d, []*circuit.Circuit{p}, [][]int{{0, 2}}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func TestTimelineShape(t *testing.T) {
	s, _ := routedBell(t)
	tl := Timeline(s, 0)
	lines := strings.Split(strings.TrimRight(tl, "\n"), "\n")
	if len(lines) != 3 { // qubits 0,1,2 all active (swap through 1)
		t.Fatalf("lanes = %d:\n%s", len(lines), tl)
	}
	if !strings.Contains(tl, "h") {
		t.Fatalf("timeline missing h gate:\n%s", tl)
	}
	if !strings.Contains(tl, "S") {
		t.Fatalf("timeline missing swap:\n%s", tl)
	}
	if !strings.Contains(tl, "M") {
		t.Fatalf("timeline missing measurement:\n%s", tl)
	}
	if !strings.Contains(tl, "C") || !strings.Contains(tl, "T") {
		t.Fatalf("timeline missing cnot marks:\n%s", tl)
	}
	// All lanes equal width.
	w := -1
	for _, l := range lines {
		inner := l[strings.Index(l, "|")+1 : strings.LastIndex(l, "|")]
		if w < 0 {
			w = len(inner)
		} else if len(inner) != w {
			t.Fatalf("ragged lanes:\n%s", tl)
		}
	}
}

func TestTimelineTruncation(t *testing.T) {
	s, _ := routedBell(t)
	tl := Timeline(s, 2)
	if !strings.Contains(tl, "layers shown") {
		t.Fatalf("truncated timeline must say so:\n%s", tl)
	}
}
