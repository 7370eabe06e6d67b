package qucloud

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/nisqbench"
)

func TestTable2WorkloadsMatchTableI(t *testing.T) {
	if len(Table2Workloads) != 10 {
		t.Fatalf("workloads = %d, want 10", len(Table2Workloads))
	}
	for _, w := range Table2Workloads {
		for _, name := range w {
			if _, err := nisqbench.Get(name); err != nil {
				t.Fatalf("unknown benchmark %q in Table II workloads", name)
			}
			cl, _ := nisqbench.Class(name)
			if cl == nisqbench.Large {
				t.Fatalf("%q is large-sized; Table II uses tiny/small only", name)
			}
		}
	}
}

func TestTable3MixesMatchPaper(t *testing.T) {
	if len(Table3Mixes) != 12 {
		t.Fatalf("mixes = %d, want 12", len(Table3Mixes))
	}
	for mi, mix := range Table3Mixes {
		if len(mix) != 4 {
			t.Fatalf("Mix_%d has %d programs, want 4", mi+1, len(mix))
		}
		total := 0
		for _, name := range mix {
			c, err := nisqbench.Get(name)
			if err != nil {
				t.Fatalf("Mix_%d: %v", mi+1, err)
			}
			total += c.NumQubits
		}
		if total > arch.IBMQ50NumQubits {
			t.Fatalf("Mix_%d needs %d qubits > 50", mi+1, total)
		}
	}
}

func TestRunTable2SmokeAndShape(t *testing.T) {
	rows, err := RunTable2(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every strategy produced a PST in (0, 100] for every workload, and
	// tiny workloads outscore small ones on average (the paper's
	// headline contrast: ~77% vs ~32% for separate execution).
	for _, r := range rows {
		for _, s := range Strategies {
			for k := 0; k < 2; k++ {
				if p := r.PST[s][k]; p <= 0 || p > 100 {
					t.Fatalf("%s+%s %s pst[%d] = %v", r.W1, r.W2, s, k, p)
				}
			}
		}
	}
	if tiny, small := classAvgs(rows, Separate); tiny <= small {
		t.Fatalf("tiny avg %v <= small avg %v; size classes must separate", tiny, small)
	}
}

// classAvgs returns the strategy's mean PST (percent) over Table II's
// five tiny-sized and five small-sized workloads.
func classAvgs(rows []Table2Row, s Strategy) (tiny, small float64) {
	for i, r := range rows {
		if i < 5 {
			tiny += r.Avg(s) / 5
		} else {
			small += r.Avg(s) / 5
		}
	}
	return tiny, small
}

// TestTable2Orderings asserts the strategy orderings of Table II on
// three calibration days. The PSTs are exact, so every margin is the
// simulator's own and no slack is needed: every strategy scores the
// tiny class more than 15 points above the small one (the smallest gap
// is 23.4 points: Separate on day 2); on the small-sized workloads,
// where routing matters, Separate is an upper bound and Baseline >
// SABRE, and CDAP+X-SWAP > Baseline on days 1 and 2.
// On day 0 the small class reads Baseline 51.18 against CDAP+X-SWAP
// 51.08, so there Baseline > CDAP+X-SWAP is asserted instead.
func TestTable2Orderings(t *testing.T) {
	for calSeed := int64(0); calSeed < 3; calSeed++ {
		rows, err := RunTable2(calSeed)
		if err != nil {
			t.Fatal(err)
		}
		small := map[Strategy]float64{}
		for _, s := range Strategies {
			var tiny float64
			tiny, small[s] = classAvgs(rows, s)
			if tiny <= small[s]+15 {
				t.Errorf("day %d %s: tiny avg %.2f not 15 points above small avg %.2f",
					calSeed, s, tiny, small[s])
			}
		}
		if small[Baseline] <= small[SABRE] {
			t.Errorf("day %d small avg: Baseline %.2f not above SABRE %.2f", calSeed, small[Baseline], small[SABRE])
		}
		if qucloudAhead := calSeed != 0; (small[CDAPXSwap] > small[Baseline]) != qucloudAhead {
			t.Errorf("day %d small avg: CDAP+X-SWAP %.2f, Baseline %.2f: want CDAP+X-SWAP ahead %v",
				calSeed, small[CDAPXSwap], small[Baseline], qucloudAhead)
		}
		if small[Separate] <= small[CDAPXSwap] {
			t.Errorf("day %d small avg: Separate %.2f not above CDAP+X-SWAP %.2f", calSeed, small[Separate], small[CDAPXSwap])
		}
	}
}

func TestRunTable3SubsetShape(t *testing.T) {
	rows, err := RunTable3Subset(0, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Mix != "Mix_3" {
		t.Fatalf("mix = %s", r.Mix)
	}
	for _, s := range Table3Strategies {
		if r.CNOTs[s] <= 0 || r.Depth[s] <= 0 {
			t.Fatalf("%s: cnots=%d depth=%d", s, r.CNOTs[s], r.Depth[s])
		}
		// Source CNOTs of Mix_3 (9+90+90+98 plus swap overhead):
		// post-compilation must be at least the source total.
		src := 0
		for _, name := range r.Benchmarks {
			src += nisqbench.MustGet(name).RawCNOTCount()
		}
		if r.CNOTs[s] < src {
			t.Fatalf("%s: %d CNOTs below source %d", s, r.CNOTs[s], src)
		}
	}
}

// TestTable3Orderings asserts Table III's claim on calibration day 0:
// CDAP+X-SWAP never needs more CNOTs than the Baseline on any mix, and
// is shallower in total. Depth is asserted on the total only: per mix
// it does not hold (Mix_4 compiles to depth 633 against the Baseline's
// 624).
func TestTable3Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles all twelve IBMQ50 mixes under five strategies (~6 s)")
	}
	rows, err := RunTable3(0)
	if err != nil {
		t.Fatal(err)
	}
	baseDepth, qucloudDepth := 0, 0
	for _, r := range rows {
		if r.CNOTs[CDAPXSwap] > r.CNOTs[Baseline] {
			t.Errorf("%s: CDAP+X-SWAP %d CNOTs > Baseline %d", r.Mix, r.CNOTs[CDAPXSwap], r.CNOTs[Baseline])
		}
		baseDepth += r.Depth[Baseline]
		qucloudDepth += r.Depth[CDAPXSwap]
	}
	if qucloudDepth > baseDepth {
		t.Errorf("total depth: CDAP+X-SWAP %d > Baseline %d", qucloudDepth, baseDepth)
	}
}

// TestRunTable3PSTShape simulates Mix_3 — four 10-qubit programs, 40
// active qubits — on the statevector engine, which only a register
// factored per program can hold.
func TestRunTable3PSTShape(t *testing.T) {
	rows, err := RunTable3PST(0, 32, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Mix != "Mix_3" || r.SimSeconds <= 0 {
		t.Fatalf("mix = %s, sim seconds = %v", r.Mix, r.SimSeconds)
	}
	for _, s := range Table3PSTStrategies {
		if len(r.PST[s]) != len(r.Benchmarks) {
			t.Fatalf("%s: %d PSTs for %d programs", s, len(r.PST[s]), len(r.Benchmarks))
		}
		for _, p := range r.PST[s] {
			if p < 0 || p > 100 {
				t.Fatalf("%s PSTs = %v", s, r.PST[s])
			}
		}
	}
}

func TestRunFig9KneeAndMonotonicity(t *testing.T) {
	d := arch.IBMQ16(0)
	res := RunFig9(d, 5, 0.25)
	if len(res.Omegas) != len(res.AvgRedundant) {
		t.Fatal("length mismatch")
	}
	first, last := res.AvgRedundant[0], res.AvgRedundant[len(res.AvgRedundant)-1]
	if last >= first {
		t.Fatalf("redundant qubits must fall with omega: %v -> %v", first, last)
	}
	knee := res.KneeOmega()
	if knee <= 0 || knee >= 2.5 {
		t.Fatalf("knee omega = %v, want interior", knee)
	}
}

func TestRunFig9IBMQ50KneeLower(t *testing.T) {
	// §IV-A3: the knee is 0.95 on IBMQ16 and 0.40 on IBMQ50 — the
	// bigger chip's knee comes earlier. Check the ordering (not the
	// exact values, which depend on calibration).
	k16 := RunFig9(arch.IBMQ16(0), 5, 0.25).KneeOmega()
	k50 := RunFig9(arch.IBMQ50(0), 3, 0.25).KneeOmega()
	if k50 > k16+0.26 { // allow one grid step of slack
		t.Fatalf("knee(IBMQ50)=%v should not exceed knee(IBMQ16)=%v", k50, k16)
	}
}

func TestFig14Queue(t *testing.T) {
	jobs := Fig14Queue(2)
	if len(jobs) != 20 {
		t.Fatalf("queue = %d jobs, want 20", len(jobs))
	}
	seen := map[int]bool{}
	for _, j := range jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate job id %d", j.ID)
		}
		seen[j.ID] = true
		if j.Circ == nil {
			t.Fatal("nil circuit")
		}
	}
}

// TestRunFig14Shape asserts Figure 14's TRFs and every ordering of its
// exact PSTs that holds on calibrations 0-2 at all four ε, the
// unflattering ones included. Exactly, the scheduler beats random
// pairing only at ε 0.05, and PST does not fall monotonically with ε on
// day 0 (ε 0.10 57.41 %, ε 0.15 57.81 %).
func TestRunFig14Shape(t *testing.T) {
	epsilons := []float64{0.05, 0.10, 0.15, 0.20}
	for calSeed := int64(0); calSeed < 3; calSeed++ {
		points, err := RunFig14(calSeed, epsilons)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 2+len(epsilons) { // separate, random, one per ε
			t.Fatalf("day %d: points = %d", calSeed, len(points))
		}
		sep, rnd, sch := points[0], points[1], points[2:]
		if sep.Label != "Separate" || rnd.Label != "Random" {
			t.Fatalf("day %d: arms %q, %q", calSeed, sep.Label, rnd.Label)
		}
		if sep.TRF != 1 {
			t.Fatalf("day %d: separate TRF = %v", calSeed, sep.TRF)
		}
		if rnd.TRF != 2 {
			t.Fatalf("day %d: random TRF = %v", calSeed, rnd.TRF)
		}
		for i, p := range sch {
			// The scheduler co-locates up to MaxColocate (3) programs, so
			// TRF ranges from 1 (all separate) to 3.
			if p.TRF < 1 || p.TRF > 3 {
				t.Errorf("day %d %s: TRF = %v, want within [1,3]", calSeed, p.Label, p.TRF)
			}
			if i > 0 && p.TRF < sch[i-1].TRF {
				t.Errorf("day %d: TRF falls from %v (%s) to %v (%s)", calSeed, sch[i-1].TRF, sch[i-1].Label, p.TRF, p.Label)
			}
			if p.AvgPST >= sep.AvgPST {
				t.Errorf("day %d: %s PST %.2f not below Separate %.2f", calSeed, p.Label, p.AvgPST, sep.AvgPST)
			}
			if beats := p.Epsilon < 0.1; (p.AvgPST > rnd.AvgPST) != beats {
				t.Errorf("day %d: %s PST %.2f, Random %.2f: want the scheduler ahead %v", calSeed, p.Label, p.AvgPST, rnd.AvgPST, beats)
			}
		}
		if rnd.AvgPST >= sep.AvgPST {
			t.Errorf("day %d: Random PST %.2f not below Separate %.2f", calSeed, rnd.AvgPST, sep.AvgPST)
		}
		// PST never rises as ε grows on days 1 and 2; on day 0 it rises
		// from ε 0.10 to ε 0.15.
		for i := 1; i < len(sch); i++ {
			rises := calSeed == 0 && sch[i].Epsilon == 0.15
			if (sch[i].AvgPST > sch[i-1].AvgPST) != rises {
				t.Errorf("day %d: PST %.2f (%s) -> %.2f (%s): want a rise %v",
					calSeed, sch[i-1].AvgPST, sch[i-1].Label, sch[i].AvgPST, sch[i].Label, rises)
			}
		}
	}
}

func TestRunScaleCoversStandardChips(t *testing.T) {
	rows, err := RunScale(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // london excluded (too small)
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	prev := 0
	for _, r := range rows {
		if r.Qubits < prev {
			t.Fatalf("%s out of size order", r.Device)
		}
		prev = r.Qubits
		for _, s := range ScaleStrategies {
			if r.CNOTs[s] <= 0 || r.Depth[s] <= 0 || r.CompileMS[s] <= 0 {
				t.Fatalf("%s %s: %d/%d/%v", r.Device, s, r.CNOTs[s], r.Depth[s], r.CompileMS[s])
			}
		}
	}
}

func TestRunTreeStaleness(t *testing.T) {
	ratios, err := RunTreeStaleness(0, 8, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if len(ratios) != 7 {
		t.Fatalf("ratios = %d", len(ratios))
	}
	for day, r := range ratios {
		if r <= 0 || r > 1.2 {
			t.Fatalf("day %d ratio = %v out of plausible range", day+1, r)
		}
		// The paper's reuse claim: a day-old tree must cost little.
		if day == 0 && r < 0.8 {
			t.Fatalf("one-day-stale tree lost %.0f%% EPST; reuse claim violated", (1-r)*100)
		}
	}
}

func TestRunCliffordFidelityShape(t *testing.T) {
	rows, err := RunCliffordFidelity(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byStrat := map[Strategy]CliffordRow{}
	for _, r := range rows {
		byStrat[r.Strategy] = r
		for _, p := range r.PST {
			if p <= 0 || p > 100 {
				t.Fatalf("%s PSTs = %v", r.Strategy, r.PST)
			}
		}
	}
	// The exact averages order as they are on day 0: Separate bounds
	// both, and the Baseline leads QuCloud.
	sep, base, qc := byStrat[Separate].Avg, byStrat[Baseline].Avg, byStrat[CDAPXSwap].Avg
	if !(sep > base && base > qc) {
		t.Fatalf("avg PST separate %v, baseline %v, qucloud %v: want separate > baseline > qucloud", sep, base, qc)
	}
}

// TestCrosstalkAwareExact pins what the crosstalk-awareness experiment
// finds on its exact PSTs: awareness never adds hostile adjacency and
// wins on average, and each row's sign is what it is — blind ahead on
// rows 1 and 4, a tie on row 2, whose placements are identical.
func TestCrosstalkAwareExact(t *testing.T) {
	rows, err := RunCrosstalkAware(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(CrosstalkMixes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(CrosstalkMixes))
	}
	signs := []int{1, -1, 0, 1, -1, 1}
	var sumA, sumB float64
	for i, r := range rows {
		if r.AwareHostile > r.BlindHostile {
			t.Errorf("row %d %v: aware placement has %d hostile pairs, blind %d", i, r.Programs, r.AwareHostile, r.BlindHostile)
		}
		sign := 0
		if d := r.Delta(); d > 1e-9 {
			sign = 1
		} else if d < -1e-9 {
			sign = -1
		}
		if sign != signs[i] {
			t.Errorf("row %d %v: aware %.3f, blind %.3f: delta sign %d, want %d", i, r.Programs, r.AwarePST, r.BlindPST, sign, signs[i])
		}
		sumA += r.AwarePST
		sumB += r.BlindPST
	}
	if sumA <= sumB {
		t.Errorf("mean aware PST %.3f not above blind %.3f", sumA/float64(len(rows)), sumB/float64(len(rows)))
	}
}
