package arch

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestIBMQ16Shape(t *testing.T) {
	d := IBMQ16(0)
	if d.NumQubits() != IBMQ16NumQubits {
		t.Fatalf("qubits = %d, want %d", d.NumQubits(), IBMQ16NumQubits)
	}
	if got, want := d.Coupling.M(), 20; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	if !d.Coupling.Connected() {
		t.Fatal("IBMQ16 coupling must be connected")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper §IV-A: "Q1 has links to the three adjacent physical
	// qubits, while Q7 has a link to only one qubit."
	if d.Coupling.Degree(1) != 3 {
		t.Fatalf("Q1 degree = %d, want 3", d.Coupling.Degree(1))
	}
	if d.Coupling.Degree(7) != 1 {
		t.Fatalf("Q7 degree = %d, want 1", d.Coupling.Degree(7))
	}
	for q := 0; q < d.NumQubits(); q++ {
		if deg := d.Coupling.Degree(q); deg < 1 || deg > 4 {
			t.Fatalf("qubit %d degree %d outside [1,4]", q, deg)
		}
	}
}

func TestIBMQ50Shape(t *testing.T) {
	d := IBMQ50(0)
	if d.NumQubits() != IBMQ50NumQubits {
		t.Fatalf("qubits = %d, want %d", d.NumQubits(), IBMQ50NumQubits)
	}
	if !d.Coupling.Connected() {
		t.Fatal("IBMQ50 coupling must be connected")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < d.NumQubits(); q++ {
		if deg := d.Coupling.Degree(q); deg > 4 {
			t.Fatalf("qubit %d degree %d > 4; superconducting lattices are sparse", q, deg)
		}
	}
}

func TestLondonShape(t *testing.T) {
	d := London()
	if d.NumQubits() != 5 || d.Coupling.M() != 4 {
		t.Fatalf("london = %d qubits %d edges", d.NumQubits(), d.Coupling.M())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Figure 8 preconditions: Q0-Q1 is the most reliable link, and
	// Q1-Q3 is more reliable than Q1-Q2.
	if !(d.CNOTError(0, 1) < d.CNOTError(1, 3) && d.CNOTError(1, 3) < d.CNOTError(1, 2)) {
		t.Fatal("london calibration must satisfy figure 8 ordering")
	}
}

func TestCalibrationDeterministic(t *testing.T) {
	a, b := IBMQ16(7), IBMQ16(7)
	for e, v := range a.CNOTErr {
		if b.CNOTErr[e] != v {
			t.Fatalf("same seed produced different CNOT error at %v", e)
		}
	}
	c := IBMQ16(8)
	same := true
	for e, v := range a.CNOTErr {
		if c.CNOTErr[e] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must produce different calibrations")
	}
}

func TestCalibrationRanges(t *testing.T) {
	f := func(seed int64) bool {
		d := IBMQ16(seed)
		for _, v := range d.CNOTErr {
			if v < MinCNOTErr || v > MaxCNOTErr {
				return false
			}
		}
		for q := 0; q < d.NumQubits(); q++ {
			if d.ReadoutErr[q] < MinReadoutErr || d.ReadoutErr[q] > MaxReadoutErr {
				return false
			}
			if d.Gate1Err[q] < MinGate1Err || d.Gate1Err[q] > MaxGate1Err {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrationSeries(t *testing.T) {
	d := IBMQ16(0)
	series := CalibrationSeries(d, 1, 21)
	if len(series) != 21 {
		t.Fatalf("series length = %d", len(series))
	}
	// Days must differ.
	e := graph.NewEdge(0, 1)
	if series[0].CNOTErr[e] == series[1].CNOTErr[e] && series[1].CNOTErr[e] == series[2].CNOTErr[e] {
		t.Fatal("calibration days should differ")
	}
	// Applying must be loss-free.
	ApplyCalibration(d, series[3])
	if d.CNOTErr[e] != series[3].CNOTErr[e] {
		t.Fatal("ApplyCalibration did not install values")
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	d := IBMQ16(0)
	d.ReadoutErr[3] = 1.5
	if err := d.Validate(); err == nil {
		t.Fatal("Validate must reject out-of-range readout error")
	}
	d = IBMQ16(0)
	d.ReadoutErr = d.ReadoutErr[:3]
	if err := d.Validate(); err == nil {
		t.Fatal("Validate must reject wrong-length ReadoutErr")
	}
}

func TestCNOTErrorPanicsOnMissingLink(t *testing.T) {
	d := IBMQ16(0)
	defer func() {
		if recover() == nil {
			t.Fatal("CNOTError on a non-link must panic")
		}
	}()
	d.CNOTError(0, 5) // not coupled on Melbourne
}

func TestRegionFidelity(t *testing.T) {
	d := Linear(5, 0.05, 0.02)
	// Region {0,1}: one link rel 0.95 + two readout rel 0.98 -> mean.
	want := (0.95 + 0.98 + 0.98) / 3
	if got := d.RegionFidelity([]int{0, 1}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RegionFidelity = %v, want %v", got, want)
	}
	if d.RegionFidelity(nil) != 0 {
		t.Fatal("empty region must score 0")
	}
	// A region with worse qubits must score lower.
	d2 := Linear(5, 0.05, 0.02)
	d2.ReadoutErr[0] = 0.3
	if d2.RegionFidelity([]int{0, 1}) >= d.RegionFidelity([]int{0, 1}) {
		t.Fatal("worse readout must lower region fidelity")
	}
}

func TestUtility(t *testing.T) {
	d := Linear(3, 0.1, 0.02)
	free := []bool{true, true, true}
	// Qubit 1 has two links with err 0.1 each: utility = 2/0.2 = 10.
	if got := d.Utility(1, free); math.Abs(got-10) > 1e-9 {
		t.Fatalf("utility = %v, want 10", got)
	}
	// Masking neighbor 2 halves links and err sum: 1/0.1 = 10 still.
	free[2] = false
	if got := d.Utility(1, free); math.Abs(got-10) > 1e-9 {
		t.Fatalf("utility with mask = %v, want 10", got)
	}
	free[0] = false
	if got := d.Utility(1, free); got != 0 {
		t.Fatalf("utility with no free links = %v, want 0", got)
	}
}

func TestHopsCached(t *testing.T) {
	d := IBMQ16(0)
	h1 := d.Hops()
	h2 := d.Hops()
	if &h1[0] != &h2[0] {
		t.Fatal("Hops must cache the matrix")
	}
	if h1[0][0] != 0 || h1[0][1] != 1 {
		t.Fatalf("unexpected hop values %d %d", h1[0][0], h1[0][1])
	}
}

func TestWeakLinks(t *testing.T) {
	d := Linear(4, 0.02, 0.02)
	d.CNOTErr[graph.NewEdge(1, 2)] = 0.2
	weak := d.WeakLinks(0.1)
	if len(weak) != 1 || weak[0] != graph.NewEdge(1, 2) {
		t.Fatalf("weak links = %v", weak)
	}
}

func TestGridShape(t *testing.T) {
	d := Grid(3, 3, 0.02, 0.02)
	if d.NumQubits() != 9 {
		t.Fatalf("grid qubits = %d", d.NumQubits())
	}
	if got, want := d.Coupling.M(), 12; got != want {
		t.Fatalf("grid edges = %d, want %d", got, want)
	}
	// Center qubit (4) must touch 4 neighbors.
	if d.Coupling.Degree(4) != 4 {
		t.Fatalf("center degree = %d", d.Coupling.Degree(4))
	}
}

func TestLinearShape(t *testing.T) {
	d := Linear(6, 0.03, 0.01)
	if d.NumQubits() != 6 || d.Coupling.M() != 5 {
		t.Fatalf("linear = %d qubits %d edges", d.NumQubits(), d.Coupling.M())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAvgCNOTErr(t *testing.T) {
	d := Linear(3, 0.1, 0.02)
	if got := d.AvgCNOTErr(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("avg = %v", got)
	}
}

func TestDriftSeriesAutocorrelated(t *testing.T) {
	d := IBMQ16(0)
	days := DriftSeries(d, 1, 10, 0.1)
	if len(days) != 10 {
		t.Fatalf("days = %d", len(days))
	}
	e := graph.NewEdge(0, 1)
	// Consecutive days stay within the drift bound; distant days wander.
	for t1 := 1; t1 < 10; t1++ {
		prev, cur := days[t1-1].CNOTErr[e], days[t1].CNOTErr[e]
		rel := math.Abs(cur-prev) / prev
		if rel > 0.1001 && cur != MinCNOTErr && cur != MaxCNOTErr {
			t.Fatalf("day %d drifted %.0f%% > 10%%", t1, rel*100)
		}
	}
	// Values stay in range.
	for _, day := range days {
		for _, v := range day.CNOTErr {
			if v < MinCNOTErr || v > MaxCNOTErr {
				t.Fatalf("cnot err %v out of range", v)
			}
		}
		for q := range day.ReadoutErr {
			if day.ReadoutErr[q] < MinReadoutErr || day.ReadoutErr[q] > MaxReadoutErr {
				t.Fatalf("readout err out of range")
			}
		}
	}
	if DriftSeries(d, 1, 0, 0.1) != nil {
		t.Fatal("zero days must return nil")
	}
}

func TestDriftSeriesDeterministic(t *testing.T) {
	d := IBMQ16(0)
	a := DriftSeries(d, 5, 4, 0.08)
	b := DriftSeries(d, 5, 4, 0.08)
	e := graph.NewEdge(0, 1)
	for i := range a {
		if a[i].CNOTErr[e] != b[i].CNOTErr[e] {
			t.Fatal("same seed must give same drift")
		}
	}
}
