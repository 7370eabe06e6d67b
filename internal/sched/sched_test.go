package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/nisqbench"
)

func tinyQueue() []Job {
	names := []string{"bv_n3", "bv_n4", "peres_3", "toffoli_3", "fredkin_3",
		"3_17_13", "4mod5-v1_22", "mod5mils_65", "alu-v0_27", "decod24-v2_43"}
	jobs := make([]Job, len(names))
	for i, n := range names {
		jobs[i] = Job{ID: i, Circ: nisqbench.MustGet(n)}
	}
	return jobs
}

// epst is Equation 4 for p on region, as SeparateEPST evaluates it.
func epst(d *arch.Device, p *circuit.Circuit, region []int) float64 {
	return d.EPST(region, p.RawCNOTCount(), p.Gate1Count(), p.NumQubits, nil)
}

func TestEPSTFormula(t *testing.T) {
	d := arch.Linear(3, 0.1, 0.15)
	for q := range d.Gate1Err {
		d.Gate1Err[q] = 0.05
	}
	p := circuit.New("p", 3)
	p.CX(0, 1).CX(1, 2).H(0)
	// r2q = 0.9, r1q = 0.95, rro = 0.85; EPST = 0.9^2 * 0.95 * 0.85^3
	// (the worked example from §IV-C).
	want := math.Pow(0.9, 2) * 0.95 * math.Pow(0.85, 3)
	if got := epst(d, p, []int{0, 1, 2}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("EPST = %v, want %v", got, want)
	}
}

func TestEPSTEmptyRegion(t *testing.T) {
	d := arch.Linear(3, 0.1, 0.1)
	if epst(d, circuit.New("p", 1), nil) != 0 {
		t.Fatal("empty region EPST must be 0")
	}
}

func TestEPSTSingleQubitRegion(t *testing.T) {
	d := arch.Linear(3, 0.1, 0.1)
	p := circuit.New("p", 1)
	p.H(0).Measure(0)
	got := epst(d, p, []int{1})
	want := (1 - d.Gate1Err[1]) * 0.9
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("EPST = %v, want %v", got, want)
	}
}

func TestSeparateVsColocatedEPST(t *testing.T) {
	d := arch.IBMQ16(0)
	tree := community.Build(d, 0.95)
	a := nisqbench.MustGet("bv_n4")
	b := nisqbench.MustGet("toffoli_3")
	sepA, err := SeparateEPST(d, tree, a)
	if err != nil {
		t.Fatal(err)
	}
	co, err := ColocatedEPST(d, tree, []*circuit.Circuit{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if sepA <= 0 || sepA > 1 {
		t.Fatalf("sep EPST = %v", sepA)
	}
	// Separate execution is (approximately) the best case. The solo
	// allocator optimizes region fidelity rather than EPST, so tiny
	// inversions are possible; co-location must not beat it by more
	// than a sliver.
	if co[0] > sepA*1.02 {
		t.Fatalf("co-located EPST %v far exceeds separate %v", co[0], sepA)
	}
	if co[0] <= 0 || co[1] <= 0 {
		t.Fatalf("co-located EPSTs = %v", co)
	}
}

func TestColocationOnLopsidedChipViolates(t *testing.T) {
	// Left half reliable, right half poor: solo both programs pick the
	// left; co-located, the second lands right and suffers.
	d := arch.Linear(6, 0.01, 0.01)
	for _, e := range d.Coupling.Edges() {
		if e.U >= 3 {
			d.CNOTErr[e] = 0.12
		}
	}
	for q := 3; q < 6; q++ {
		d.ReadoutErr[q] = 0.12
	}
	tree := community.Build(d, 0.95)
	a := nisqbench.MustGet("bv_n3")
	b := nisqbench.MustGet("toffoli_3")
	sepB, err := SeparateEPST(d, tree, b)
	if err != nil {
		t.Fatal(err)
	}
	co, err := ColocatedEPST(d, tree, []*circuit.Circuit{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// One of the two must land on the weak half and violate a tight
	// threshold.
	sepA, err := SeparateEPST(d, tree, a)
	if err != nil {
		t.Fatal(err)
	}
	vA, vB := 1-co[0]/sepA, 1-co[1]/sepB
	if vA < 0.05 && vB < 0.05 {
		t.Fatalf("violations = %v, %v; expected one program to suffer on the weak half", vA, vB)
	}
}

func TestScheduleEpsilonZeroOnLopsidedChip(t *testing.T) {
	// On a chip whose second region is clearly worse, a zero tolerance
	// must force separate execution while a loose one co-locates.
	d := arch.Linear(8, 0.01, 0.01)
	for _, e := range d.Coupling.Edges() {
		if e.U >= 4 {
			d.CNOTErr[e] = 0.12
		}
	}
	for q := 4; q < 8; q++ {
		d.ReadoutErr[q] = 0.12
	}
	jobs := []Job{
		{ID: 0, Circ: nisqbench.MustGet("toffoli_3")},
		{ID: 1, Circ: nisqbench.MustGet("fredkin_3")},
	}
	cfg := DefaultConfig()
	cfg.Epsilon = 0
	strict, err := Schedule(d, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) != 2 {
		t.Fatalf("epsilon=0 batches = %v, want separate execution", strict)
	}
	cfg.Epsilon = 0.95
	loose, err := Schedule(d, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) != 1 {
		t.Fatalf("epsilon=0.95 batches = %v, want one co-located batch", loose)
	}
}

func TestScheduleBatchesCoverQueueExactly(t *testing.T) {
	d := arch.IBMQ16(0)
	jobs := tinyQueue()
	batches, err := Schedule(d, jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, b := range batches {
		if len(b.JobIDs) == 0 {
			t.Fatal("empty batch")
		}
		if len(b.JobIDs) > DefaultConfig().MaxColocate {
			t.Fatalf("batch too large: %v", b.JobIDs)
		}
		for _, id := range b.JobIDs {
			if seen[id] {
				t.Fatalf("job %d scheduled twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("scheduled %d of %d jobs", len(seen), len(jobs))
	}
}

func TestScheduleHigherEpsilonRaisesTRF(t *testing.T) {
	d := arch.IBMQ16(0)
	jobs := tinyQueue()
	trf := func(eps float64) float64 {
		cfg := DefaultConfig()
		cfg.Epsilon = eps
		batches, err := Schedule(d, jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return TRF(len(jobs), batches)
	}
	low, high := trf(0.02), trf(0.5)
	if high < low {
		t.Fatalf("TRF(eps=0.5)=%v < TRF(eps=0.02)=%v; throughput must not drop as tolerance grows", high, low)
	}
	if high <= 1 {
		t.Fatalf("TRF at eps=0.5 is %v; expected some co-location", high)
	}
}

func TestScheduleLookaheadBounds(t *testing.T) {
	d := arch.IBMQ16(0)
	jobs := tinyQueue()
	cfg := DefaultConfig()
	cfg.Lookahead = 1 // can never look past the head job
	batches, err := Schedule(d, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if len(b.JobIDs) != 1 {
			t.Fatalf("lookahead=1 must force separate execution, got %v", b.JobIDs)
		}
	}
}

// TestScheduleRejectsBadEpsilon: violation > NaN is never true, so a NaN
// threshold would co-locate everything, and a negative one nothing;
// both are errors, while +Inf (co-locate whatever fits) is valid.
func TestScheduleRejectsBadEpsilon(t *testing.T) {
	d := arch.IBMQ16(0)
	jobs := tinyQueue()
	for _, eps := range []float64{math.NaN(), -1, math.Inf(-1)} {
		cfg := DefaultConfig()
		cfg.Epsilon = eps
		if _, err := Schedule(d, jobs, cfg); err == nil {
			t.Errorf("Schedule accepted epsilon %v", eps)
		}
		if _, err := Next(d, jobs, cfg); err == nil {
			t.Errorf("Next accepted epsilon %v", eps)
		}
	}
	cfg := DefaultConfig()
	cfg.Epsilon = math.Inf(1)
	if _, err := Schedule(d, jobs, cfg); err != nil {
		t.Errorf("Schedule rejected epsilon +Inf: %v", err)
	}
}

// TestZeroBoundsAreDefaultConfig: a Config that leaves Lookahead and
// MaxColocate zero schedules the Figure 14 queue (the tiny+small suite
// twice) exactly as DefaultConfig does.
func TestZeroBoundsAreDefaultConfig(t *testing.T) {
	d := arch.IBMQ16(0)
	var names []string
	names = append(names, nisqbench.ByClass(nisqbench.Tiny)...)
	names = append(names, nisqbench.ByClass(nisqbench.Small)...)
	names = append(names, names...)
	jobs := make([]Job, len(names))
	for i, n := range names {
		jobs[i] = Job{ID: i, Circ: nisqbench.MustGet(n)}
	}
	for _, eps := range []float64{0.05, 0.10, 0.15, 0.20} {
		def := DefaultConfig()
		def.Epsilon = eps
		want, err := Schedule(d, jobs, def)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Schedule(d, jobs, Config{Epsilon: eps, Omega: def.Omega})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("eps %.2f: zero bounds give %v, DefaultConfig %v", eps, got, want)
		}
	}
}

func TestScheduleRejectsImpossibleJob(t *testing.T) {
	d := arch.Linear(3, 0.02, 0.02)
	big := circuit.New("big", 5)
	big.CX(0, 1)
	if _, err := Schedule(d, []Job{{ID: 0, Circ: big}}, DefaultConfig()); err == nil {
		t.Fatal("job larger than the chip must error")
	}
}

func TestTRF(t *testing.T) {
	if TRF(10, nil) != 0 {
		t.Fatal("no batches -> TRF 0")
	}
	b := []Batch{{JobIDs: []int{0, 1}}, {JobIDs: []int{2}}}
	if got := TRF(3, b); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("TRF = %v, want 1.5", got)
	}
}

func TestRandomPairs(t *testing.T) {
	jobs := tinyQueue()
	batches := RandomPairs(jobs, rand.New(rand.NewSource(1)))
	if len(batches) != 5 {
		t.Fatalf("batches = %d, want 5", len(batches))
	}
	seen := map[int]bool{}
	for _, b := range batches {
		if len(b.JobIDs) != 2 {
			t.Fatalf("pair size = %d", len(b.JobIDs))
		}
		for _, id := range b.JobIDs {
			seen[id] = true
		}
	}
	if len(seen) != len(jobs) {
		t.Fatal("pairs must cover all jobs")
	}
	// Odd queue: last runs alone.
	odd := RandomPairs(jobs[:3], rand.New(rand.NewSource(2)))
	total := 0
	for _, b := range odd {
		total += len(b.JobIDs)
	}
	if total != 3 || len(odd) != 2 {
		t.Fatalf("odd pairing = %v", odd)
	}
}

func TestSeparateAll(t *testing.T) {
	jobs := tinyQueue()
	batches := SeparateAll(jobs)
	if len(batches) != len(jobs) {
		t.Fatalf("batches = %d", len(batches))
	}
	if TRF(len(jobs), batches) != 1 {
		t.Fatal("separate TRF must be 1")
	}
}
