package core

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/partition"
	"repro/internal/router"
	"repro/internal/sim"
)

func pairWorkload() []*circuit.Circuit {
	return []*circuit.Circuit{
		nisqbench.MustGet("bv_n3"),
		nisqbench.MustGet("toffoli_3"),
	}
}

func TestAllStrategiesCompileAndValidate(t *testing.T) {
	d := arch.IBMQ16(0)
	progs := pairWorkload()
	for _, s := range Strategies {
		comp := NewCompiler(d)
		comp.Attempts = 2
		res, err := comp.Compile(progs, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("%s: invalid schedule: %v", s, err)
		}
		if res.CNOTs <= 0 || res.Depth <= 0 {
			t.Fatalf("%s: cnots=%d depth=%d", s, res.CNOTs, res.Depth)
		}
		if res.Strategy != s {
			t.Fatalf("%s: result strategy %v", s, res.Strategy)
		}
	}
}

func TestSeparateHasPerProgramSchedules(t *testing.T) {
	d := arch.IBMQ16(0)
	progs := pairWorkload()
	comp := NewCompiler(d)
	res, err := comp.Compile(progs, Separate)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedules) != 2 {
		t.Fatalf("schedules = %d, want 2", len(res.Schedules))
	}
}

func TestColocatedHasOneSchedule(t *testing.T) {
	d := arch.IBMQ16(0)
	comp := NewCompiler(d)
	res, err := comp.Compile(pairWorkload(), CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedules) != 1 {
		t.Fatalf("schedules = %d, want 1", len(res.Schedules))
	}
}

func TestSimulateReturnsPerProgramPSTs(t *testing.T) {
	d := arch.IBMQ16(0)
	progs := pairWorkload()
	for _, s := range []Strategy{Separate, CDAPXSwap, SABRE} {
		comp := NewCompiler(d)
		comp.Attempts = 2
		res, err := comp.Compile(progs, s)
		if err != nil {
			t.Fatal(err)
		}
		psts, err := comp.Simulate(res, 200, 11, sim.DefaultNoise())
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(psts) != 2 {
			t.Fatalf("%s: psts = %v", s, psts)
		}
		for _, p := range psts {
			if p < 0.05 || p > 1 {
				t.Fatalf("%s: implausible PST %v", s, p)
			}
		}
	}
}

func TestCompileEmptyWorkload(t *testing.T) {
	comp := NewCompiler(arch.IBMQ16(0))
	if _, err := comp.Compile(nil, CDAPXSwap); err == nil {
		t.Fatal("empty workload must error")
	}
}

func TestCompileOversizedWorkload(t *testing.T) {
	comp := NewCompiler(arch.IBMQ16(0))
	progs := []*circuit.Circuit{nisqbench.MustGet("qft_10"), nisqbench.MustGet("bv_n10")}
	for _, s := range []Strategy{SABRE, Baseline, CDAPXSwap} {
		if _, err := comp.Compile(progs, s); err == nil {
			t.Fatalf("%s: 20 qubits on 15-qubit chip must error", s)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		Separate:  "Separate",
		SABRE:     "SABRE",
		Baseline:  "Baseline",
		CDAPXSwap: "CDAP+X-SWAP",
		CDAPOnly:  "CDAP-only",
		XSwapOnly: "X-SWAP-only",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if !strings.Contains(Strategy(99).String(), "99") {
		t.Fatal("unknown strategy string")
	}
}

func TestNewCompilerOmegaByChipSize(t *testing.T) {
	if c := NewCompiler(arch.IBMQ16(0)); c.Omega != 0.95 {
		t.Fatalf("IBMQ16 omega = %v, want 0.95", c.Omega)
	}
	if c := NewCompiler(arch.IBMQ50(0)); c.Omega != 0.40 {
		t.Fatalf("IBMQ50 omega = %v, want 0.40", c.Omega)
	}
}

func TestTreeCachedAndInvalidated(t *testing.T) {
	comp := NewCompiler(arch.IBMQ16(0))
	t1 := comp.Tree()
	t2 := comp.Tree()
	if t1 != t2 {
		t.Fatal("tree must be cached")
	}
	comp.Device.InvalidateArtifacts()
	if comp.Tree() == t1 {
		t.Fatal("InvalidateArtifacts must drop the cached tree")
	}
}

func TestBestOfAttemptsNotWorseThanOne(t *testing.T) {
	d := arch.IBMQ16(3)
	progs := []*circuit.Circuit{nisqbench.MustGet("3_17_13"), nisqbench.MustGet("alu-v0_27")}
	one := NewCompiler(d)
	one.Attempts = 1
	many := NewCompiler(d)
	many.Attempts = 5
	r1, err := one.Compile(progs, CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := many.Compile(progs, CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	if r5.CNOTs > r1.CNOTs {
		t.Fatalf("best-of-5 (%d CNOTs) worse than single attempt (%d)", r5.CNOTs, r1.CNOTs)
	}
}

func TestXSwapOnlyCountsInterSwapsOnBigChip(t *testing.T) {
	// On IBMQ50 with four programs, X-SWAP should find at least some
	// inter-program shortcuts across many seeds.
	d := arch.IBMQ50(1)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("aj-e11_165"),
		nisqbench.MustGet("4gt4-v0_72"),
		nisqbench.MustGet("ham7_104"),
		nisqbench.MustGet("alu-bdd_288"),
	}
	comp := NewCompiler(d)
	comp.Attempts = 1
	comp.NoisePenalty = 0
	res, err := comp.Compile(progs, CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("swaps=%d inter=%d", res.Swaps, res.InterSwaps)
}

func TestSeparateBeatsColocationOnAverageFidelity(t *testing.T) {
	// The headline ordering of Table II: separate execution's mean PST
	// over a small suite must not lose to the merged-SABRE co-location.
	d := arch.IBMQ16(0)
	suite := [][2]string{{"bv_n3", "toffoli_3"}, {"bv_n3", "peres_3"}}
	avg := func(strat Strategy) float64 {
		sum, n := 0.0, 0
		for wi, w := range suite {
			progs := []*circuit.Circuit{nisqbench.MustGet(w[0]), nisqbench.MustGet(w[1])}
			comp := NewCompiler(d)
			comp.Attempts = 2
			res, err := comp.Compile(progs, strat)
			if err != nil {
				t.Fatal(err)
			}
			psts, err := comp.Simulate(res, 400, int64(100+wi), sim.DefaultNoise())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range psts {
				sum += p
				n++
			}
		}
		return sum / float64(n)
	}
	sep, sab := avg(Separate), avg(SABRE)
	if sep < sab-0.05 {
		t.Fatalf("Separate avg PST %.3f clearly below SABRE co-location %.3f", sep, sab)
	}
}

func TestBridgeOptionReducesOrMatchesCNOTs(t *testing.T) {
	d := arch.IBMQ16(2)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("bv_n4"), // one-shot CX pairs: bridge-friendly
		nisqbench.MustGet("bv_n3"),
	}
	with := NewCompiler(d)
	with.Bridge = true
	without := NewCompiler(d)
	rw, err := with.Compile(progs, CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Validate(); err != nil {
		t.Fatal(err)
	}
	ro, err := without.Compile(progs, CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	if rw.CNOTs > ro.CNOTs {
		t.Fatalf("bridge-enabled CNOTs %d > swap-only %d", rw.CNOTs, ro.CNOTs)
	}
}

// TestTraversalFallbackIsCounted pins the one silent path in routeJoint:
// when the joint reverse traversal fails (here intra-only routing walks
// the two programs into a position a later pass cannot leave) the
// workload is still routed from the partitioner's mapping, and the
// Result says so.
func TestTraversalFallbackIsCounted(t *testing.T) {
	a := circuit.New("a", 3).CX(2, 0).CX(2, 0).CX(2, 1)
	b := circuit.New("b", 3).CX(2, 1).CX(1, 0).CX(0, 1)
	progs := []*circuit.Circuit{a, b}
	part := &partition.Result{Assignments: []partition.Assignment{
		{Program: 0, InitialMapping: []int{11, 13, 8}},
		{Program: 1, InitialMapping: []int{0, 4, 9}},
	}}
	c := NewCompiler(arch.IBMQ16(0))
	opts := router.DefaultOptions()
	if _, err := router.ReverseTraversalMulti(c.Device, progs, [][]int{{11, 13, 8}, {0, 4, 9}}, c.Traversals, opts); err == nil {
		t.Fatal("the reverse traversal of this workload no longer fails; pick another fallback case")
	}
	res, err := c.routeJoint(progs, part, opts, CDAPOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TraversalFallback {
		t.Fatal("routed from the unrefined mapping without reporting TraversalFallback")
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Compile(pairWorkload(), CDAPOnly)
	if err != nil {
		t.Fatal(err)
	}
	if ok.TraversalFallback {
		t.Fatal("TraversalFallback set on a compilation whose traversal succeeded")
	}
}
