package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/router"
)

func TestAnalyticESPSimpleCircuit(t *testing.T) {
	d := arch.Linear(3, 0.1, 0.2)
	for q := range d.Gate1Err {
		d.Gate1Err[q] = 0.05
	}
	p := circuit.New("p", 2)
	p.H(0).CX(0, 1).MeasureAll()
	s, err := router.RouteSingle(d, p, []int{0, 1}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	esp, err := AnalyticESP(d, s, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 1 h (0.95) * 1 cx (0.9) * 2 readouts (0.8^2).
	want := 0.95 * 0.9 * 0.8 * 0.8
	if math.Abs(esp.PerProgram[0]-want) > 1e-12 {
		t.Fatalf("ESP = %v, want %v", esp.PerProgram[0], want)
	}
}

func TestAnalyticESPCountsSwapAsThreeCNOTs(t *testing.T) {
	d := arch.Linear(3, 0.1, 0) // readout perfect to isolate gates
	for q := range d.Gate1Err {
		d.Gate1Err[q] = 0
	}
	p := circuit.New("p", 2)
	p.CX(0, 1)
	s, err := router.RouteSingle(d, p, []int{0, 2}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.SwapCount != 1 {
		t.Fatalf("swaps = %d", s.SwapCount)
	}
	esp, err := AnalyticESP(d, s, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 1 swap = 3 cnots at rel 0.9 plus the cx itself: 0.9^4.
	want := math.Pow(0.9, 4)
	if math.Abs(esp.PerProgram[0]-want) > 1e-12 {
		t.Fatalf("ESP = %v, want %v", esp.PerProgram[0], want)
	}
}

func TestAnalyticESPIdlePenalizesShortProgram(t *testing.T) {
	d := arch.Linear(6, 0.004, 0)
	short := circuit.New("short", 2)
	short.CX(0, 1).MeasureAll()
	deep := circuit.New("deep", 2)
	for i := 0; i < 50; i++ {
		deep.CX(0, 1)
	}
	deep.MeasureAll()
	s, err := router.Route(d, []*circuit.Circuit{short, deep}, [][]int{{0, 1}, {3, 4}}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	esp, err := AnalyticESP(d, s, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if esp.IdleFactor[0] >= esp.IdleFactor[1] {
		t.Fatalf("short program idle factor %v must be below deep program's %v",
			esp.IdleFactor[0], esp.IdleFactor[1])
	}
	noIdle, err := AnalyticESP(d, s, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if noIdle.IdleFactor[0] != 1 {
		t.Fatal("idle factor must be 1 when disabled")
	}
}

func TestAnalyticESPTracksMonteCarloOrdering(t *testing.T) {
	// ESP and MC PST must agree on which placement is better.
	good := arch.Linear(3, 0.01, 0.01)
	bad := arch.Linear(3, 0.09, 0.09)
	p := nisqbench.MustGet("bv_n3")
	run := func(d *arch.Device) (float64, float64) {
		s, err := router.RouteSingle(d, p, []int{0, 1, 2}, router.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		esp, err := AnalyticESP(d, s, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := SimulateScheduleCtx(context.Background(), d, s, []*circuit.Circuit{p}, 600, 5, DefaultNoise(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return esp.PerProgram[0], out.PST[0]
	}
	gESP, gPST := run(good)
	bESP, bPST := run(bad)
	if !(gESP > bESP && gPST > bPST) {
		t.Fatalf("ESP ordering (%v vs %v) must match PST ordering (%v vs %v)", gESP, bESP, gPST, bPST)
	}
	// ESP should be in the same ballpark as PST for the good chip
	// (within ~15 points; MC includes error cancellation ESP ignores).
	if math.Abs(gESP-gPST) > 0.15 {
		t.Fatalf("ESP %v far from PST %v", gESP, gPST)
	}
}

func TestAnalyticESPErrors(t *testing.T) {
	d := arch.Linear(3, 0.05, 0.05)
	p := circuit.New("p", 2)
	p.CX(0, 1)
	s, err := router.RouteSingle(d, p, []int{0, 2}, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Claiming 0 programs makes the swap's trigger out of range.
	if _, err := AnalyticESP(d, s, 0, 0); err == nil {
		t.Fatal("program count 0 must error on attribution")
	}
}
