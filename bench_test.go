package qucloud

// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus micro-benchmarks for the main components.
// Run them all with:
//
//	go test -bench=. -benchmem
//
// Each experiment bench reports paper-relevant aggregates via b.ReportMetric
// (PST percentages, CNOT counts, TRF) so the benchmark output doubles as
// the reproduction record summarized in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/ccache"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/nisqbench"
	"repro/internal/partition"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
)

// BenchmarkTable2 regenerates Table II: PST of the ten two-program
// workloads on IBMQ16 under all six strategies. Metrics: average PST
// (percent) for the QuCloud configuration and the two baselines.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunTable2(0)
		if err != nil {
			b.Fatal(err)
		}
		avg := func(s Strategy) float64 {
			sum := 0.0
			for _, r := range rows {
				sum += r.Avg(s)
			}
			return sum / float64(len(rows))
		}
		b.ReportMetric(avg(Separate), "pst_separate_%")
		b.ReportMetric(avg(SABRE), "pst_sabre_%")
		b.ReportMetric(avg(Baseline), "pst_baseline_%")
		b.ReportMetric(avg(CDAPXSwap), "pst_qucloud_%")
	}
}

// BenchmarkTable3 regenerates Table III: post-compilation CNOTs and
// depth of the twelve 4-program mixes on simulated IBMQ50. Metrics:
// total CNOTs per strategy (lower is better).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunTable3(0)
		if err != nil {
			b.Fatal(err)
		}
		tot := func(s Strategy) (c float64) {
			for _, r := range rows {
				c += float64(r.CNOTs[s])
			}
			return c
		}
		totD := func(s Strategy) (d float64) {
			for _, r := range rows {
				d += float64(r.Depth[s])
			}
			return d
		}
		b.ReportMetric(tot(SABRE), "cnots_sabre")
		b.ReportMetric(tot(Baseline), "cnots_baseline")
		b.ReportMetric(tot(CDAPXSwap), "cnots_qucloud")
		b.ReportMetric(totD(Baseline), "depth_baseline")
		b.ReportMetric(totD(CDAPXSwap), "depth_qucloud")
	}
}

// BenchmarkFig9_IBMQ16 regenerates Figure 9 on IBMQ16: the ω sweep of
// average redundant qubits over 21 calibration days, and its knee.
func BenchmarkFig9_IBMQ16(b *testing.B) {
	d := arch.IBMQ16(0)
	for i := 0; i < b.N; i++ {
		res := RunFig9(d, 21, 0.05)
		b.ReportMetric(res.KneeOmega(), "knee_omega")
		b.ReportMetric(res.AvgRedundant[res.KneeIndex], "redundant_at_knee")
	}
}

// BenchmarkFig9_IBMQ50 is the same sweep on the simulated 50-qubit chip
// (the paper reports knee ω = 0.40 there).
func BenchmarkFig9_IBMQ50(b *testing.B) {
	d := arch.IBMQ50(0)
	for i := 0; i < b.N; i++ {
		res := RunFig9(d, 5, 0.05)
		b.ReportMetric(res.KneeOmega(), "knee_omega")
	}
}

// BenchmarkFig14 regenerates Figure 14: scheduler PST and TRF across ε,
// against the separate-execution and random-pairing baselines.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := RunFig14(0, []float64{0.05, 0.10, 0.15, 0.20})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			switch p.Label {
			case "Separate":
				b.ReportMetric(p.AvgPST, "pst_separate_%")
			case "Random":
				b.ReportMetric(p.AvgPST, "pst_random_%")
			case "eps=0.15":
				b.ReportMetric(p.AvgPST, "pst_eps15_%")
				b.ReportMetric(p.TRF, "trf_eps15")
			}
		}
	}
}

// BenchmarkHierarchyTree measures Algorithm 1 (FN community detection
// with the error-aware reward) on both chips.
func BenchmarkHierarchyTree(b *testing.B) {
	for _, tc := range []struct {
		name string
		dev  *arch.Device
		w    float64
	}{
		{"IBMQ16", arch.IBMQ16(0), 0.95},
		{"IBMQ50", arch.IBMQ50(0), 0.40},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				community.Build(tc.dev, tc.w)
			}
		})
	}
}

// BenchmarkCDAPPartition measures Algorithm 2 for a 4-program workload
// on IBMQ50.
func BenchmarkCDAPPartition(b *testing.B) {
	d := arch.IBMQ50(0)
	tree := community.Build(d, 0.40)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("aj-e11_165"),
		nisqbench.MustGet("alu-v2_31"),
		nisqbench.MustGet("4gt4-v0_72"),
		nisqbench.MustGet("sf_276"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.CDAP(d, tree, progs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFRPPartition measures the baseline partitioner on the same
// workload for comparison.
func BenchmarkFRPPartition(b *testing.B) {
	d := arch.IBMQ50(0)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("aj-e11_165"),
		nisqbench.MustGet("alu-v2_31"),
		nisqbench.MustGet("4gt4-v0_72"),
		nisqbench.MustGet("sf_276"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.FRP(d, progs); err != nil {
			b.Fatal(err)
		}
	}
}

// routeBench routes one fixed 2-program workload under the given options.
func routeBench(b *testing.B, opts router.Options) {
	d := arch.IBMQ16(0)
	tree := community.Build(d, 0.95)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("3_17_13"),
		nisqbench.MustGet("alu-v0_27"),
	}
	res, err := partition.CDAP(d, tree, progs)
	if err != nil {
		b.Fatal(err)
	}
	initial := [][]int{res.Assignments[0].InitialMapping, res.Assignments[1].InitialMapping}
	b.ResetTimer()
	swaps := 0
	for i := 0; i < b.N; i++ {
		s, err := router.Route(d, progs, initial, opts)
		if err != nil {
			b.Fatal(err)
		}
		swaps = s.SwapCount
	}
	b.ReportMetric(float64(swaps), "swaps")
}

// BenchmarkRouteSABRE measures the plain SABRE-style transition.
func BenchmarkRouteSABRE(b *testing.B) { routeBench(b, router.DefaultOptions()) }

// BenchmarkRouteXSWAP measures Algorithm 3 (inter-program SWAPs +
// critical-gate prioritization) on the same workload.
func BenchmarkRouteXSWAP(b *testing.B) { routeBench(b, router.XSWAPOptions()) }

// BenchmarkRouteMix50 is the large-chip router reference: one
// CDAP+X-SWAP attempt (partition, joint reverse traversal, final route)
// of a typical Table III mix and of Mix_5, on IBMQ50. Mix_5's
// reverse-traversal passes livelock in 18 stall windows; the router
// replays each window's cycle instead of scoring it, so most of its
// SWAP decisions cost one applySwap.
func BenchmarkRouteMix50(b *testing.B) {
	d := arch.IBMQ50(0)
	d.Hops()
	for _, mi := range []int{0, 4} {
		progs := make([]*circuit.Circuit, len(Table3Mixes[mi]))
		for i, name := range Table3Mixes[mi] {
			progs[i] = nisqbench.MustGet(name)
		}
		b.Run(fmt.Sprintf("Mix_%d", mi+1), func(b *testing.B) {
			comp := NewCompiler(d)
			comp.Attempts, comp.Workers = 1, 1
			comp.Tree()
			b.ReportAllocs()
			b.ResetTimer()
			swaps := 0
			for i := 0; i < b.N; i++ {
				res, err := comp.Compile(progs, CDAPXSwap)
				if err != nil {
					b.Fatal(err)
				}
				swaps = res.Swaps
			}
			b.ReportMetric(float64(swaps), "swaps")
		})
	}
}

// BenchmarkRouteXSWAPAblations measures the two X-SWAP ingredients in
// isolation: the gain term and the critical-gate restriction (the
// design-choice ablations DESIGN.md calls out).
func BenchmarkRouteXSWAPAblations(b *testing.B) {
	cases := map[string]func() router.Options{
		"NoGainTerm": func() router.Options {
			o := router.XSWAPOptions()
			o.GainTerm = false
			return o
		},
		"NoCriticalGates": func() router.Options {
			o := router.XSWAPOptions()
			o.CriticalGatesOnly = false
			return o
		},
		"InterOnly": func() router.Options {
			o := router.XSWAPOptions()
			o.GainTerm = false
			o.CriticalGatesOnly = false
			return o
		},
	}
	for name, mk := range cases {
		b.Run(name, func(b *testing.B) { routeBench(b, mk()) })
	}
}

// BenchmarkSimulator measures the Monte-Carlo PST estimator (per 100
// trials of a routed two-program workload).
func BenchmarkSimulator(b *testing.B) {
	d := arch.IBMQ16(0)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("bv_n3"),
		nisqbench.MustGet("toffoli_3"),
	}
	comp := NewCompiler(d)
	comp.Attempts = 1
	res, err := comp.Compile(progs, CDAPXSwap)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Simulate(res, 100, int64(i), sim.DefaultNoise()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduler measures Algorithm 4 over the Figure 14 queue.
func BenchmarkScheduler(b *testing.B) {
	d := arch.IBMQ16(0)
	jobs := Fig14Queue(2)
	cfg := sched.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Schedule(d, jobs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd measures the full QuCloud pipeline (tree +
// partition + route) for a two-program workload on IBMQ16.
func BenchmarkEndToEnd(b *testing.B) {
	d := arch.IBMQ16(0)
	progs := []*circuit.Circuit{
		nisqbench.MustGet("bv_n4"),
		nisqbench.MustGet("mod5mils_65"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp := NewCompiler(d)
		comp.Attempts = 1
		if _, err := comp.Compile(progs, CDAPXSwap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheCompileCold measures the cache-aware compile entry
// point when every lookup misses (fresh cache per iteration): the
// full pipeline plus fingerprint + store overhead. Paired with
// BenchmarkCacheCompileWarm it yields the warm-cache speedup (the
// repository's benchmark carries the pair as core.compile_ms against
// ccache.hit_us).
func BenchmarkCacheCompileCold(b *testing.B) {
	progs := []*circuit.Circuit{nisqbench.MustGet("bv_n3"), nisqbench.MustGet("3_17_13")}
	comp := NewCompiler(arch.IBMQ16(0))
	comp.Attempts = 2
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := ccache.New(32)
		if _, out, err := comp.CompileCachedContext(ctx, cache, progs, CDAPXSwap); err != nil {
			b.Fatal(err)
		} else if out != ccache.OutcomeMiss {
			b.Fatalf("outcome %v, want miss", out)
		}
	}
}

// BenchmarkCacheCompileWarm measures the same workload against a
// primed cache: fingerprint + lookup only, no compilation.
func BenchmarkCacheCompileWarm(b *testing.B) {
	progs := []*circuit.Circuit{nisqbench.MustGet("bv_n3"), nisqbench.MustGet("3_17_13")}
	comp := NewCompiler(arch.IBMQ16(0))
	comp.Attempts = 2
	ctx := context.Background()
	cache := ccache.New(32)
	if _, _, err := comp.CompileCachedContext(ctx, cache, progs, CDAPXSwap); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out, err := comp.CompileCachedContext(ctx, cache, progs, CDAPXSwap); err != nil {
			b.Fatal(err)
		} else if out != ccache.OutcomeHit {
			b.Fatalf("outcome %v, want hit", out)
		}
	}
}

// BenchmarkClifford50 measures the extension experiment: exact PST on
// the 50-qubit chip for a Clifford workload, three strategies.
func BenchmarkClifford50(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunCliffordFidelity(0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Strategy {
			case Separate:
				b.ReportMetric(r.Avg, "pst_separate_%")
			case CDAPXSwap:
				b.ReportMetric(r.Avg, "pst_qucloud_%")
			}
		}
	}
}

// BenchmarkTreeStaleness measures hierarchy-tree reuse under
// calibration drift (the §IV-A1 once-per-cycle claim).
func BenchmarkTreeStaleness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ratios, err := RunTreeStaleness(0, 8, 0.08)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ratios[0], "epst_ratio_day1")
		b.ReportMetric(ratios[len(ratios)-1], "epst_ratio_day7")
	}
}

// BenchmarkScale measures compile cost and overhead across chip sizes
// (the §V-B2 scalability claim).
func BenchmarkScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := RunScale(0)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.CNOTs[CDAPXSwap]), "cnots_qucloud_50q")
		b.ReportMetric(last.CompileMS[CDAPXSwap], "compile_ms_50q")
	}
}

// BenchmarkTableauSimulator measures the stabilizer backend per 100
// trials of the 28-qubit Clifford workload, whose widest component is
// 10 qubits.
func BenchmarkTableauSimulator(b *testing.B) {
	d := arch.IBMQ50(0)
	progs := CliffordWorkload()
	comp := NewCompiler(d)
	comp.Attempts = 1
	res, err := comp.Compile(progs, CDAPXSwap)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.SimulateClifford(res, 100, int64(i), sim.DefaultNoise()); err != nil {
			b.Fatal(err)
		}
	}
}
