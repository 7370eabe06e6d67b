package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/pool"
)

// compileAllAttempts is CompileContext without the seed-free short cut:
// every seed compiles, fanned out over the pool, and a seed-order scan
// keeps the first attempt with the fewest CNOTs. It is the reference the
// short cut is diffed against.
func compileAllAttempts(c *Compiler, progs []*circuit.Circuit, strat Strategy) (*Result, error) {
	ctx := context.Background()
	results := make([]*Result, c.Attempts)
	errs := make([]error, c.Attempts)
	_ = pool.ForEach(ctx, c.Attempts, c.Workers, func(i int) error {
		results[i], errs[i] = c.compileAttempt(ctx, progs, strat, int64(i)+1)
		return nil
	})
	var best *Result
	var lastErr error
	for i := range results {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		if best == nil || results[i].CNOTs < best.CNOTs {
			best = results[i]
		}
	}
	if best == nil {
		return nil, lastErr
	}
	return best, nil
}

// digest folds everything a caller can observe of a Result into a hash.
func digest(res *Result) string {
	h := sha256.New()
	hashResult(h, res)
	fmt.Fprintf(h, "initial %v cnots %d depth %d swaps %d inter %d fallback %t\n",
		res.Initial, res.CNOTs, res.Depth, res.Swaps, res.InterSwaps, res.TraversalFallback)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSeedFreeAttemptsMatchAllAttempts diffs Compile against the
// all-attempts reference for every strategy on a calibrated chip, where
// noise-aware routing never ties, and on uniform-error devices, where
// ties are common: on a tie the skip must not engage, and where it
// engages every seed must indeed compile attempt 1's Result. The
// fixtures must exercise every way a certificate can go wrong: ties in
// the final route, ties only in the traversal, Separate's per-program
// ties, and untied SABRE-style attempts whose seed still moves the
// initial mapping — each with a later seed that beats attempt 1.
func TestSeedFreeAttemptsMatchAllAttempts(t *testing.T) {
	devices := []struct {
		name string
		dev  *arch.Device
	}{
		{"ibmq16", arch.IBMQ16(0)},
		{"grid3x3", arch.Grid(3, 3, .01, .01)},
		{"grid2x4", arch.Grid(2, 4, .01, .01)},
		{"linear8", arch.Linear(8, .01, .01)},
	}
	// toffoli_3+3_17_13 gives grid2x4 a CDAP+X-SWAP attempt whose ties
	// are all in the traversal.
	pairs := append(slices.Clone(goldenPairs), [2]string{"bv_n3", "bv_n4"}, [2]string{"toffoli_3", "3_17_13"})
	exercised := map[string]int{}
	for _, dv := range devices {
		for _, pair := range pairs {
			progs := mustProgs(pair[0], pair[1])
			for _, strat := range Strategies {
				c := NewCompiler(dv.dev)
				first, err := c.compileOnce(context.Background(), progs, strat, 1)
				if err != nil {
					t.Fatalf("%s %s %v: attempt 1: %v", dv.name, strat, pair, err)
				}
				finalTies := 0
				for _, s := range first.Schedules {
					finalTies += s.TieBreaks
				}
				seedRouted := strat != SABRE && strat != XSwapOnly
				certified := seedRouted && first.tieBreaks == 0 && !first.TraversalFallback
				for _, workers := range []int{1, 4} {
					c.Workers = workers
					want, err := compileAllAttempts(c, progs, strat)
					if err != nil {
						t.Fatalf("%s %s %v: reference: %v", dv.name, strat, pair, err)
					}
					got, err := c.Compile(progs, strat)
					if err != nil {
						t.Fatalf("%s %s %v: Compile: %v", dv.name, strat, pair, err)
					}
					if digest(got) != digest(want) {
						t.Fatalf("%s %s %v workers=%d: Compile (%d CNOTs) differs from the all-attempts reference (%d CNOTs)",
							dv.name, strat, pair, workers, got.CNOTs, want.CNOTs)
					}
					if workers > 1 {
						continue
					}
					later := digest(want) != digest(first)
					switch {
					case certified:
						exercised["seed-free"]++
					case !seedRouted && first.tieBreaks == 0 && later:
						exercised["untied SABRE-style, later seed wins"]++
					case strat == Separate && later:
						exercised["Separate ties, later seed wins"]++
					case finalTies == 0 && first.tieBreaks > 0 && later:
						exercised["traversal-only ties, later seed wins"]++
					case finalTies > 0 && later:
						exercised["final-route ties, later seed wins"]++
					}
				}
				if certified {
					for seed := int64(2); seed <= 5; seed++ {
						res, err := c.compileOnce(context.Background(), progs, strat, seed)
						if err != nil || digest(res) != digest(first) {
							t.Fatalf("%s %s %v: attempt 1 broke no tie, yet seed %d compiles differently (err %v)", dv.name, strat, pair, seed, err)
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{
		"seed-free",
		"untied SABRE-style, later seed wins",
		"Separate ties, later seed wins",
		"traversal-only ties, later seed wins",
		"final-route ties, later seed wins",
	} {
		if exercised[kind] == 0 {
			t.Errorf("no fixture exercises %q", kind)
		}
	}
	t.Logf("fixtures per kind: %v", exercised)
}

// TestSeedFreeSkipEngages pins where the short cut applies, from the
// outside: compiling with five attempts allocates about what one attempt
// does when attempt 1 is certified (a calibrated IBMQ50 mix), and about
// five times as much when it is not (a tied uniform grid, and SABRE,
// whose seed also draws the initial mapping).
func TestSeedFreeSkipEngages(t *testing.T) {
	allocRatio := func(d *arch.Device, progs []*circuit.Circuit, strat Strategy) float64 {
		allocs := func(attempts int) float64 {
			c := NewCompiler(d)
			c.Attempts, c.Workers = attempts, 1
			return testing.AllocsPerRun(2, func() {
				if _, err := c.Compile(progs, strat); err != nil {
					t.Fatal(err)
				}
			})
		}
		return allocs(5) / allocs(1)
	}
	if r := allocRatio(arch.IBMQ50(0), mustProgs(goldenMixes[2]...), CDAPXSwap); r > 1.1 {
		t.Errorf("Mix_3 on IBMQ50: 5 attempts allocate %.2fx one attempt, want <= 1.1x (the skip did not engage)", r)
	}
	if r := allocRatio(arch.Grid(3, 3, .01, .01), mustProgs("3_17_13", "alu-v0_27"), CDAPXSwap); r < 3 {
		t.Errorf("tied grid: 5 attempts allocate %.2fx one attempt, want >= 3x (the skip engaged on a tie)", r)
	}
	if r := allocRatio(arch.IBMQ16(0), mustProgs("bv_n3", "bv_n3"), SABRE); r < 3 {
		t.Errorf("SABRE: 5 attempts allocate %.2fx one attempt, want >= 3x (the skip engaged on SABRE)", r)
	}
}
