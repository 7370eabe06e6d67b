package qucloud

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/ccache"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/sim"
)

// fingerprint serializes everything a compile+simulate run produces
// that callers can observe, with floats in hex so the comparison is
// byte-exact, not approximate.
func fingerprint(res *Result, psts []float64) string {
	s := fmt.Sprintf("cnots=%d depth=%d swaps=%d inter=%d", res.CNOTs, res.Depth, res.Swaps, res.InterSwaps)
	for _, p := range psts {
		s += fmt.Sprintf(" %x", p)
	}
	return s
}

// withGOMAXPROCS runs f under the given GOMAXPROCS setting and
// restores the previous value.
func withGOMAXPROCS(n int, f func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// TestCompileSimulateDeterministicAcrossGOMAXPROCS is the PR's central
// differential guarantee, table-driven over every strategy: with
// Workers=0 the compiler sizes its fan-out from the pool default
// (GOMAXPROCS), so running the same workload at GOMAXPROCS 1, 2, and 8,
// and again at fixed Workers 1 and 4, exercises the sequential path and
// several parallel widths — and all must produce byte-identical
// CNOT/depth/swap counts and PSTs. The calibrated IBMQ16 pair is routed
// without a tie, so most strategies compile one attempt; the uniform
// grid ties, so its attempts 2..5 fan out.
func TestCompileSimulateDeterministicAcrossGOMAXPROCS(t *testing.T) {
	workloads := []struct {
		name     string
		dev      func() *arch.Device
		progs    []*circuit.Circuit
		attempts int
	}{
		{"ibmq16", func() *arch.Device { return arch.IBMQ16(0) },
			[]*circuit.Circuit{nisqbench.MustGet("bv_n3"), nisqbench.MustGet("3_17_13")}, 2},
		{"grid3x3", func() *arch.Device { return arch.Grid(3, 3, .01, .01) },
			[]*circuit.Circuit{nisqbench.MustGet("3_17_13"), nisqbench.MustGet("alu-v0_27")}, 5},
	}
	const trials = 1100 // spans multiple RNG shards
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			for _, w := range workloads {
				var prints []string
				for _, gmp := range []int{1, 2, 8} {
					for _, workers := range []int{0, 1, 4} {
						withGOMAXPROCS(gmp, func() {
							comp := NewCompiler(w.dev())
							comp.Attempts, comp.Workers = w.attempts, workers
							res, err := comp.Compile(w.progs, strat)
							if err != nil {
								t.Fatalf("%s GOMAXPROCS=%d workers=%d: Compile: %v", w.name, gmp, workers, err)
							}
							psts, err := comp.Simulate(res, trials, 9, sim.DefaultNoise())
							if err != nil {
								t.Fatalf("%s GOMAXPROCS=%d workers=%d: Simulate: %v", w.name, gmp, workers, err)
							}
							prints = append(prints, fingerprint(res, psts))
						})
					}
				}
				for i := 1; i < len(prints); i++ {
					if prints[i] != prints[0] {
						t.Fatalf("%s: results diverge across GOMAXPROCS/Workers:\n  first: %s\n  other: %s", w.name, prints[0], prints[i])
					}
				}
			}
		})
	}
}

// TestCachedCompileDifferential is the compile-cache counterpart of the
// GOMAXPROCS sweep: for every strategy, at every parallelism width, the
// cache-aware entry point must be byte-identical to the uncached path —
// on a cold cache (miss: it compiles and stores) and on a warm one
// (hit: it returns the stored result). The fingerprints compare
// schedule-derived counts and simulated PSTs with hex-exact floats, and
// every value must also match across the three GOMAXPROCS settings.
func TestCachedCompileDifferential(t *testing.T) {
	progs := []*circuit.Circuit{nisqbench.MustGet("bv_n3"), nisqbench.MustGet("3_17_13")}
	const trials = 400
	ctx := context.Background()
	for _, strat := range Strategies {
		t.Run(strat.String(), func(t *testing.T) {
			var prints []string
			for _, gmp := range []int{1, 2, 8} {
				withGOMAXPROCS(gmp, func() {
					comp := NewCompiler(arch.IBMQ16(0))
					comp.Attempts = 2
					cache := ccache.New(32)

					uncached, err := comp.Compile(progs, strat)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d: uncached Compile: %v", gmp, err)
					}
					missRes, out, err := comp.CompileCachedContext(ctx, cache, progs, strat)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d: cached Compile (cold): %v", gmp, err)
					}
					if out != ccache.OutcomeMiss {
						t.Fatalf("GOMAXPROCS=%d: cold lookup outcome %v, want miss", gmp, out)
					}
					hitRes, out, err := comp.CompileCachedContext(ctx, cache, progs, strat)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d: cached Compile (warm): %v", gmp, err)
					}
					if out != ccache.OutcomeHit {
						t.Fatalf("GOMAXPROCS=%d: warm lookup outcome %v, want hit", gmp, out)
					}
					if hitRes != missRes {
						t.Fatalf("GOMAXPROCS=%d: warm hit returned a different *Result than the stored one", gmp)
					}
					if !reflect.DeepEqual(uncached.Schedules, missRes.Schedules) ||
						!reflect.DeepEqual(uncached.Initial, missRes.Initial) {
						t.Fatalf("GOMAXPROCS=%d: cached schedules diverge from uncached", gmp)
					}

					for _, res := range []*Result{uncached, missRes} {
						psts, err := comp.Simulate(res, trials, 9, sim.DefaultNoise())
						if err != nil {
							t.Fatalf("GOMAXPROCS=%d: Simulate: %v", gmp, err)
						}
						prints = append(prints, fingerprint(res, psts))
					}
				})
			}
			for i := 1; i < len(prints); i++ {
				if prints[i] != prints[0] {
					t.Fatalf("cached/uncached results diverge:\n  first: %s\n  other: %s", prints[0], prints[i])
				}
			}
		})
	}
}

// TestCacheInvalidatedByCalibration: the fingerprint embeds the
// device's calibration version, so applying fresh calibration data must
// turn the next identical compile into a miss (stale entries become
// unreachable garbage) rather than serving a result mapped for error
// rates that no longer exist.
func TestCacheInvalidatedByCalibration(t *testing.T) {
	progs := []*circuit.Circuit{nisqbench.MustGet("bv_n3")}
	dev := arch.IBMQ16(0)
	comp := NewCompiler(dev)
	comp.Attempts = 2
	cache := ccache.New(32)
	ctx := context.Background()

	keyBefore := comp.CacheKey(progs, CDAPXSwap).Fingerprint()
	if _, out, err := comp.CompileCachedContext(ctx, cache, progs, CDAPXSwap); err != nil || out != ccache.OutcomeMiss {
		t.Fatalf("first compile: outcome=%v err=%v", out, err)
	}
	if _, out, err := comp.CompileCachedContext(ctx, cache, progs, CDAPXSwap); err != nil || out != ccache.OutcomeHit {
		t.Fatalf("repeat compile: outcome=%v err=%v", out, err)
	}

	arch.ApplyCalibration(dev, arch.GenerateCalibration(dev, 99))
	if keyAfter := comp.CacheKey(progs, CDAPXSwap).Fingerprint(); keyAfter == keyBefore {
		t.Fatal("calibration update did not change the cache key")
	}
	if _, out, err := comp.CompileCachedContext(ctx, cache, progs, CDAPXSwap); err != nil || out != ccache.OutcomeMiss {
		t.Fatalf("post-calibration compile: outcome=%v err=%v, want a fresh miss", out, err)
	}
}

// TestDriverRowsDeterministicAcrossGOMAXPROCS checks the same property
// one layer up, through the experiment drivers that fan out whole rows.
func TestDriverRowsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	var t2 [][]Table2Row
	var t3 [][]Table3Row
	for _, gmp := range []int{1, 2, 8} {
		withGOMAXPROCS(gmp, func() {
			rows2, err := RunTable2(0)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: RunTable2: %v", gmp, err)
			}
			t2 = append(t2, rows2)
			rows3, err := RunTable3Subset(0, []int{0})
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: RunTable3Subset: %v", gmp, err)
			}
			t3 = append(t3, rows3)
		})
	}
	for i := 1; i < len(t2); i++ {
		if !reflect.DeepEqual(t2[i], t2[0]) {
			t.Fatalf("Table2 rows diverge across GOMAXPROCS:\n  first: %+v\n  other: %+v", t2[0], t2[i])
		}
		if !reflect.DeepEqual(t3[i], t3[0]) {
			t.Fatalf("Table3 rows diverge across GOMAXPROCS:\n  first: %+v\n  other: %+v", t3[0], t3[i])
		}
	}
}

// TestParallelSimulateSpeedup checks the point of all this: on a
// multi-core machine the sharded engine must actually be faster. It
// needs real cores to mean anything, so it skips on small runners
// (including the single-CPU CI container).
func TestParallelSimulateSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful speedup measurement, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	progs := []*circuit.Circuit{nisqbench.MustGet("bv_n3"), nisqbench.MustGet("3_17_13")}
	comp := NewCompiler(arch.IBMQ16(0))
	res, err := comp.Compile(progs, CDAPXSwap)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 16 * 1024 // 32 shards: plenty to amortize fan-out overhead
	run := func(workers int) (time.Duration, []float64) {
		comp.Workers = workers
		// Warm-up run excludes one-time costs (artifact cache fills).
		if _, err := comp.Simulate(res, 2048, 9, sim.DefaultNoise()); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		psts, err := comp.Simulate(res, trials, 9, sim.DefaultNoise())
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), psts
	}
	seqTime, seqPSTs := run(1)
	parTime, parPSTs := run(8)
	if !reflect.DeepEqual(seqPSTs, parPSTs) {
		t.Fatalf("parallel PSTs %v differ from sequential %v", parPSTs, seqPSTs)
	}
	speedup := float64(seqTime) / float64(parTime)
	t.Logf("sequential %v, 8 workers %v, speedup %.2fx", seqTime, parTime, speedup)
	if speedup < 3 {
		t.Fatalf("8-worker speedup %.2fx, want >= 3x (sequential %v, parallel %v)", speedup, seqTime, parTime)
	}
}
