package partition

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/graph"
	"repro/internal/nisqbench"
)

func checkResult(t *testing.T, d *arch.Device, progs []*circuit.Circuit, res *Result) {
	t.Helper()
	if len(res.Assignments) != len(progs) {
		t.Fatalf("assignments = %d, want %d", len(res.Assignments), len(progs))
	}
	used := map[int]int{}
	for pi, a := range res.Assignments {
		if a.Program != pi {
			t.Fatalf("assignment %d has Program %d", pi, a.Program)
		}
		if len(a.Region) != progs[pi].NumQubits {
			t.Fatalf("program %d region size %d, want %d", pi, len(a.Region), progs[pi].NumQubits)
		}
		for _, q := range a.Region {
			if prev, dup := used[q]; dup {
				t.Fatalf("qubit %d granted to programs %d and %d", q, prev, pi)
			}
			used[q] = pi
		}
		if len(a.InitialMapping) != progs[pi].NumQubits {
			t.Fatalf("program %d mapping size %d", pi, len(a.InitialMapping))
		}
		seen := map[int]bool{}
		inRegion := map[int]bool{}
		for _, q := range a.Region {
			inRegion[q] = true
		}
		for l, phys := range a.InitialMapping {
			if phys < 0 || phys >= d.NumQubits() {
				t.Fatalf("program %d logical %d mapped to %d", pi, l, phys)
			}
			if !inRegion[phys] {
				t.Fatalf("program %d logical %d mapped outside its region", pi, l)
			}
			if seen[phys] {
				t.Fatalf("program %d physical %d used twice", pi, phys)
			}
			seen[phys] = true
		}
		if !d.Coupling.SubsetConnected(a.Region) {
			t.Fatalf("program %d region %v not connected", pi, a.Region)
		}
	}
}

func progsPair() []*circuit.Circuit {
	return []*circuit.Circuit{
		nisqbench.MustGet("bv_n4"),
		nisqbench.MustGet("toffoli_3"),
	}
}

func TestCDAPBasic(t *testing.T) {
	d := arch.IBMQ16(0)
	tree := community.Build(d, 0.95)
	progs := progsPair()
	res, err := CDAP(d, tree, progs)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, d, progs, res)
}

func TestCDAPSingleProgram(t *testing.T) {
	d := arch.IBMQ16(0)
	tree := community.Build(d, 0.95)
	progs := []*circuit.Circuit{nisqbench.MustGet("bv_n3")}
	res, err := CDAP(d, tree, progs)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, d, progs, res)
}

func TestCDAPPrefersReliableRegion(t *testing.T) {
	// Linear chain with one clearly better half: a 3-qubit program must
	// land on the reliable half.
	d := arch.Linear(8, 0.02, 0.02)
	for _, e := range d.Coupling.Edges() {
		if e.U >= 4 {
			d.CNOTErr[e] = 0.11 // right half is bad
		}
	}
	for q := 4; q < 8; q++ {
		d.ReadoutErr[q] = 0.11
	}
	tree := community.Build(d, 0.95)
	progs := []*circuit.Circuit{nisqbench.MustGet("bv_n3")}
	res, err := CDAP(d, tree, progs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range res.Assignments[0].Region {
		if q >= 4 {
			t.Fatalf("region %v includes weak half", res.Assignments[0].Region)
		}
	}
}

func TestCDAPFourProgramsOnIBMQ50(t *testing.T) {
	d := arch.IBMQ50(0)
	tree := community.Build(d, 0.40)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("aj-e11_165"),
		nisqbench.MustGet("alu-v2_31"),
		nisqbench.MustGet("4gt4-v0_72"),
		nisqbench.MustGet("sf_276"),
	}
	res, err := CDAP(d, tree, progs)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, d, progs, res)
}

func TestCDAPTooManyQubits(t *testing.T) {
	d := arch.IBMQ16(0)
	tree := community.Build(d, 0.95)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("qft_10"),
		nisqbench.MustGet("bv_n10"),
	}
	if _, err := CDAP(d, tree, progs); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("err = %v, want ErrNoRegion", err)
	}
}

func TestCDAPEmptyPrograms(t *testing.T) {
	d := arch.IBMQ16(0)
	tree := community.Build(d, 0.95)
	res, err := CDAP(d, tree, nil)
	if err != nil || len(res.Assignments) != 0 {
		t.Fatalf("empty CDAP = %v, %v", res, err)
	}
}

func TestCDAPDensityPriority(t *testing.T) {
	// The denser program must be allocated first and therefore get the
	// better region on a chip with one clearly superior community.
	d := arch.Linear(8, 0.02, 0.02)
	for _, e := range d.Coupling.Edges() {
		if e.U >= 4 {
			d.CNOTErr[e] = 0.10
		}
	}
	dense := circuit.New("dense", 3)
	dense.CX(0, 1).CX(1, 2).CX(0, 1).CX(1, 2).CX(0, 1).CX(1, 2)
	sparse := circuit.New("sparse", 3)
	sparse.CX(0, 1)
	tree := community.Build(d, 0.95)
	res, err := CDAP(d, tree, []*circuit.Circuit{sparse, dense})
	if err != nil {
		t.Fatal(err)
	}
	// dense is program index 1; it must sit on the good half (qubits 0-3).
	for _, q := range res.Assignments[1].Region {
		if q >= 4 {
			t.Fatalf("dense program got weak region %v", res.Assignments[1].Region)
		}
	}
}

func TestFRPBasic(t *testing.T) {
	d := arch.IBMQ16(0)
	progs := progsPair()
	res, err := FRP(d, progs)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, d, progs, res)
}

func TestFRPSingleQubitProgram(t *testing.T) {
	d := arch.IBMQ16(0)
	one := circuit.New("one", 1)
	one.H(0).Measure(0)
	res, err := FRP(d, []*circuit.Circuit{one})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments[0].Region) != 1 {
		t.Fatalf("region = %v", res.Assignments[0].Region)
	}
}

func TestFRPFailsWhenFragmented(t *testing.T) {
	// Motivation §III-A: FRP requires a root with >= 2 free neighbors;
	// after enough allocations it cannot find one even though qubits
	// remain. Build a path of 3 qubits and ask for two 2-qubit programs:
	// after the first takes the middle, the second has no valid root.
	d := arch.Linear(3, 0.02, 0.02)
	p1 := circuit.New("p1", 2)
	p1.CX(0, 1).CX(0, 1)
	p2 := circuit.New("p2", 2)
	p2.CX(0, 1)
	_, err := FRP(d, []*circuit.Circuit{p1, p2})
	if !errors.Is(err, ErrNoRegion) {
		t.Fatalf("err = %v, want ErrNoRegion", err)
	}
}

// TestCDAPBeatsFRPOnUtilization reproduces the paper's Figure 5 claim:
// for a 5-qubit + 4-qubit pair on IBMQ16, CDAP always finds a
// co-location while FRP sometimes cannot (wasted roots).
func TestCDAPBeatsFRPOnUtilization(t *testing.T) {
	pair := []*circuit.Circuit{
		nisqbench.MustGet("4mod5-v1_22"), // 5 qubits, as P1 in Figure 5
		nisqbench.MustGet("decod24-v2_43"),
	}
	cdapOK, frpOK := 0, 0
	for seed := int64(0); seed < 50; seed++ {
		dd := arch.IBMQ16(seed)
		tr := community.Build(dd, 0.95)
		if _, err := CDAP(dd, tr, pair); err == nil {
			cdapOK++
		}
		if _, err := FRP(dd, pair); err == nil {
			frpOK++
		}
	}
	if cdapOK != 50 {
		t.Fatalf("CDAP co-located the Figure 5 pair on %d/50 calibrations, want 50", cdapOK)
	}
	if frpOK >= cdapOK {
		t.Fatalf("FRP co-located %d/50 >= CDAP %d/50; expected FRP to waste qubits on some calibration", frpOK, cdapOK)
	}
}

// TestCDAPTripleNonInferior packs three programs (13 of 15 qubits);
// heuristic fragmentation makes some calibrations infeasible for either
// partitioner, but CDAP must stay competitive with FRP.
func TestCDAPTripleNonInferior(t *testing.T) {
	progs := []*circuit.Circuit{
		nisqbench.MustGet("4mod5-v1_22"),
		nisqbench.MustGet("decod24-v2_43"),
		nisqbench.MustGet("bv_n4"),
	}
	cdapOK, frpOK := 0, 0
	for seed := int64(0); seed < 50; seed++ {
		dd := arch.IBMQ16(seed)
		tr := community.Build(dd, 0.95)
		if _, err := CDAP(dd, tr, progs); err == nil {
			cdapOK++
		}
		if _, err := FRP(dd, progs); err == nil {
			frpOK++
		}
	}
	if cdapOK < frpOK-5 {
		t.Fatalf("CDAP co-located %d/50, FRP %d/50; CDAP fell too far behind", cdapOK, frpOK)
	}
	if cdapOK < 30 {
		t.Fatalf("CDAP co-located only %d/50 triples", cdapOK)
	}
}

func TestAllocateGWEFMapsHotPairToBestLink(t *testing.T) {
	d := arch.Linear(4, 0.05, 0.02)
	d.CNOTErr[graph.NewEdge(2, 3)] = 0.01 // the best link
	p := circuit.New("p", 4)
	p.CX(0, 1).CX(0, 1).CX(0, 1).CX(2, 3) // hot pair (0,1)
	mapping := AllocateGWEF(d, p, []int{0, 1, 2, 3})
	hot := [2]int{mapping[0], mapping[1]}
	sort.Ints(hot[:])
	if hot != [2]int{2, 3} {
		t.Fatalf("hot logical pair mapped to %v, want the reliable link {2,3}", hot)
	}
}

func TestAllocateGWEFNoInteractions(t *testing.T) {
	d := arch.Linear(3, 0.05, 0.02)
	d.ReadoutErr = []float64{0.3, 0.01, 0.2}
	p := circuit.New("p", 2) // two isolated qubits
	p.H(0).H(1)
	mapping := AllocateGWEF(d, p, []int{0, 1})
	// Both land in the region; the region here contains qubit 0 and 1.
	if mapping[0] == mapping[1] {
		t.Fatal("two logical qubits share a physical qubit")
	}
}

func TestAllocateGWEFRegionSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched region must panic")
		}
	}()
	AllocateGWEF(arch.Linear(3, 0.02, 0.02), circuit.New("p", 2), []int{0})
}

func TestOccupied(t *testing.T) {
	d := arch.IBMQ16(0)
	tree := community.Build(d, 0.95)
	progs := progsPair()
	res, err := CDAP(d, tree, progs)
	if err != nil {
		t.Fatal(err)
	}
	// Every qubit has at most one owner, and each program owns exactly
	// its qubit count.
	owner := map[int]int{}
	count := map[int]int{}
	for _, a := range res.Assignments {
		for _, q := range a.Region {
			if prev, taken := owner[q]; taken {
				t.Fatalf("qubit %d owned by programs %d and %d", q, prev, a.Program)
			}
			owner[q] = a.Program
			count[a.Program]++
		}
	}
	if count[0] != progs[0].NumQubits || count[1] != progs[1].NumQubits {
		t.Fatalf("ownership counts = %v", count)
	}
}

func TestCNOTDensity(t *testing.T) {
	c := circuit.New("d", 4)
	c.CX(0, 1).CX(1, 2).CX(2, 3)
	if got := shapesOf([]*circuit.Circuit{c})[0].cnotDensity(); got != 0.75 {
		t.Fatalf("density = %v, want 0.75", got)
	}
	if (shape{}).cnotDensity() != 0 {
		t.Fatal("empty circuit density must be 0")
	}
}

func TestByCNOTDensityOrdering(t *testing.T) {
	a := circuit.New("a", 2) // density 0.5
	a.CX(0, 1)
	b := circuit.New("b", 2) // density 1.5
	b.CX(0, 1).CX(0, 1).CX(0, 1)
	order := byCNOTDensity(shapesOf([]*circuit.Circuit{a, b}))
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v, want [1 0]", order)
	}
}

// TestPartitionFuzz stresses both partitioners across random devices
// and workloads: results must be valid partitions or clean ErrNoRegion.
func TestPartitionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 80; trial++ {
		var d *arch.Device
		switch rng.Intn(4) {
		case 0:
			d = arch.Linear(5+rng.Intn(6), 0.02+0.04*rng.Float64(), 0.03)
		case 1:
			d = arch.Grid(2+rng.Intn(3), 3+rng.Intn(3), 0.03, 0.03)
		case 2:
			d = arch.IBMQ16(rng.Int63())
		default:
			d = arch.Tokyo(rng.Int63())
		}
		var progs []*circuit.Circuit
		budget := d.NumQubits()
		for len(progs) < 3 && budget >= 2 {
			n := 2 + rng.Intn(4)
			if n > budget {
				n = budget
			}
			c := circuit.New("f", n)
			for g := 0; g < 2+rng.Intn(10); g++ {
				a := rng.Intn(n)
				if n == 1 {
					c.H(a)
					continue
				}
				b := rng.Intn(n - 1)
				if b >= a {
					b++
				}
				c.CX(a, b)
			}
			progs = append(progs, c)
			budget -= n
		}
		tree := community.Build(d, 0.95)
		if res, err := CDAP(d, tree, progs); err == nil {
			checkResult(t, d, progs, res)
		} else if !errors.Is(err, ErrNoRegion) {
			t.Fatalf("trial %d: CDAP unexpected error %v", trial, err)
		}
		if res, err := FRP(d, progs); err == nil {
			checkResult(t, d, progs, res)
		} else if !errors.Is(err, ErrNoRegion) {
			t.Fatalf("trial %d: FRP unexpected error %v", trial, err)
		}
	}
}

// TestOmegaSensitivityByProgramSize checks §IV-A1's observation: "the
// mapping results of programs with fewer qubits are more sensitive to
// ω" — across an ω grid, the small program's allocated region changes
// at least as often as the large program's.
func TestOmegaSensitivityByProgramSize(t *testing.T) {
	smallProg := nisqbench.MustGet("bv_n3")  // 3 qubits
	largeProg := nisqbench.MustGet("qft_10") // 10 qubits
	distinct := func(d *arch.Device, p *circuit.Circuit) int {
		seen := map[string]bool{}
		for w := 0.0; w <= 2.5; w += 0.25 {
			tree := community.Build(d, w)
			res, err := CDAP(d, tree, []*circuit.Circuit{p})
			if err != nil {
				t.Fatal(err)
			}
			key := ""
			for _, q := range res.Assignments[0].Region {
				key += string(rune('A' + q))
			}
			seen[key] = true
		}
		return len(seen)
	}
	small, large := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		d := arch.IBMQ16(seed)
		small += distinct(d, smallProg)
		large += distinct(d, largeProg)
	}
	if small < large {
		t.Fatalf("small program saw %d regions, large %d; small should be at least as omega-sensitive", small, large)
	}
	t.Logf("distinct regions across omega grid and 6 days: small=%d large=%d", small, large)
}
