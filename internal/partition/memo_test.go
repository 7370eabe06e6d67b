package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/nisqbench"
)

// freshCDAP is CDAP without the memo: the uncached region search plus
// GWEF, failing with the messages CDAP uses.
func freshCDAP(d *arch.Device, tree *community.Tree, progs []*circuit.Circuit) (*Result, error) {
	if len(progs) == 0 {
		return &Result{}, nil
	}
	total := 0
	for _, p := range progs {
		total += p.NumQubits
	}
	if total > d.NumQubits() {
		return nil, fmt.Errorf("%w: %d qubits requested, %d on chip", ErrNoRegion, total, d.NumQubits())
	}
	plan := searchRegions(d, tree, shapesOf(progs))
	if plan.failed >= 0 {
		p := progs[plan.failed]
		return nil, fmt.Errorf("%w: program %q (%d qubits)", ErrNoRegion, p.Name, p.NumQubits)
	}
	res := &Result{Assignments: make([]Assignment, len(progs))}
	for pi, p := range progs {
		region := append([]int(nil), plan.regions[pi]...)
		res.Assignments[pi] = Assignment{Program: pi, Region: sortedCopy(region), InitialMapping: AllocateGWEF(d, p, region)}
	}
	return res, nil
}

// memoLen is the number of plans in the memo CDAP uses for (d, tree).
func memoLen(d *arch.Device, tree *community.Tree) int {
	m := cdapMemoFor(d, tree)
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.plans)
}

// randProg is a random program of 1..maxQ qubits whose two-qubit gates
// land on random pairs, so equal shapes rarely share an interaction
// graph.
func randProg(rng *rand.Rand, name string, maxQ int) *circuit.Circuit {
	n := 1 + rng.Intn(maxQ)
	c := circuit.New(name, n)
	for g := rng.Intn(12); g > 0; g-- {
		c.H(rng.Intn(n))
	}
	if n > 1 {
		for g := rng.Intn(16); g > 0; g-- {
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			c.CX(a, b)
		}
	}
	return c
}

// renamed returns a program of the same shape as p under another name,
// its two-qubit gates moved to other pairs.
func renamed(rng *rand.Rand, p *circuit.Circuit, name string) *circuit.Circuit {
	c := circuit.New(name, p.NumQubits)
	for g := p.Gate1Count(); g > 0; g-- {
		c.H(rng.Intn(p.NumQubits))
	}
	for g := p.RawCNOTCount(); g > 0; g-- {
		a, b := rng.Intn(p.NumQubits), rng.Intn(p.NumQubits-1)
		if b >= a {
			b++
		}
		c.CX(a, b)
	}
	return c
}

func sameOutcome(t *testing.T, what string, got *Result, gerr error, want *Result, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, want %v", what, gerr, werr)
	}
	if werr != nil {
		if !errors.Is(gerr, ErrNoRegion) || gerr.Error() != werr.Error() {
			t.Fatalf("%s: error %q, want %q", what, gerr, werr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: memoised CDAP %+v, fresh %+v", what, got.Assignments, want.Assignments)
	}
}

// TestCDAPMemoMatchesFresh is a quick-check of the region memo: over
// random ordered lists of 1-4 programs, infeasible ones included, the
// memoised CDAP must equal the uncached search plus GWEF field for
// field, on every standard chip class and on a chip with a hostile
// crosstalk matrix; recalibration, stale trees, caller mutation, failure
// naming and the memo's bound must not change that.
func TestCDAPMemoMatchesFresh(t *testing.T) {
	hostile := arch.IBMQ16(4)
	hostile.Crosstalk = arch.GenerateHostileCrosstalk(hostile, 4, 0.3, 3, 5)
	chips := []struct {
		name string
		d    *arch.Device
	}{
		{"ibmq16", arch.IBMQ16(1)},
		{"tokyo", arch.Tokyo(2)},
		{"ibmq50", arch.IBMQ50(3)},
		{"ibmq16-hostile", hostile},
	}
	for ci, chip := range chips {
		t.Run(chip.name, func(t *testing.T) {
			d := chip.d
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			maxQ := d.NumQubits()/3 + 1
			// A small pool, so random lists repeat shapes and hit the memo.
			pool := make([]*circuit.Circuit, 6)
			for i := range pool {
				pool[i] = randProg(rng, fmt.Sprintf("p%d", i), maxQ)
			}
			randList := func() []*circuit.Circuit {
				progs := make([]*circuit.Circuit, 1+rng.Intn(4))
				for i := range progs {
					progs[i] = pool[rng.Intn(len(pool))]
				}
				return progs
			}
			fits := func(progs []*circuit.Circuit) bool {
				total := 0
				for _, p := range progs {
					total += p.NumQubits
				}
				return total <= d.NumQubits()
			}
			tree := community.BuildCached(d, 0.95)

			failures, lists := 0, 60
			if d.NumQubits() > 20 {
				lists = 20 // each search on the 50-qubit chip costs ~10x
			}
			for it := 0; it < lists; it++ {
				progs := randList()
				what := fmt.Sprintf("list %d", it)
				want, werr := freshCDAP(d, tree, progs)
				got, gerr := CDAP(d, tree, progs)
				sameOutcome(t, what, got, gerr, want, werr)
				if gerr == nil {
					// The caller owns what it gets back.
					for i := range got.Assignments {
						a := &got.Assignments[i]
						if len(a.Region) > 0 {
							a.Region[0] = -7
							a.InitialMapping[0] = -7
						}
						a.Program = -7
					}
					got.Assignments = got.Assignments[:0]
				}
				again, aerr := CDAP(d, tree, progs)
				sameOutcome(t, what+" (repeat)", again, aerr, want, werr)
				if n := memoLen(d, tree); n > cdapMemoCap {
					t.Fatalf("memo holds %d plans, bound %d", n, cdapMemoCap)
				}

				// Same shapes, other names and interaction graphs: the
				// regions come from the memo, the mappings and the
				// failing program's name from this call.
				twins := make([]*circuit.Circuit, len(progs))
				for i, p := range progs {
					twins[i] = renamed(rng, p, fmt.Sprintf("twin%d-%d", it, i))
				}
				before := memoLen(d, tree)
				want, werr = freshCDAP(d, tree, twins)
				got, gerr = CDAP(d, tree, twins)
				sameOutcome(t, what+" (twins)", got, gerr, want, werr)
				if after := memoLen(d, tree); after != before {
					t.Fatalf("%s: twins missed the memo (%d plans, was %d)", what, after, before)
				}
				if werr != nil && fits(twins) {
					failures++ // a plan failure, cached by the first call
					if !strings.Contains(gerr.Error(), fmt.Sprintf("program \"twin%d-", it)) {
						t.Fatalf("%s: memoised failure %q does not name a program of this call", what, gerr)
					}
				}
			}
			if failures == 0 {
				t.Fatal("no list failed in the region search; the quick-check never exercised a memoised failure")
			}

			// Recalibration retires the memo; a tree built before it keeps
			// its own entries under the new calibration.
			progs := randList()
			for !fits(progs) {
				progs = randList()
			}
			stale := tree
			cal := arch.GenerateCalibration(d, int64(ci)+100)
			cal.Crosstalk = d.Crosstalk
			arch.ApplyCalibration(d, cal)
			tree = community.BuildCached(d, 0.95)
			if tree == stale {
				t.Fatal("ApplyCalibration kept the cached tree")
			}
			if n := memoLen(d, tree); n != 0 {
				t.Fatalf("memo after ApplyCalibration holds %d plans, want 0", n)
			}
			want, werr := freshCDAP(d, tree, progs)
			got, gerr := CDAP(d, tree, progs)
			sameOutcome(t, "after recalibration", got, gerr, want, werr)
			if n := memoLen(d, tree); n != 1 {
				t.Fatalf("memo after one recalibrated call holds %d plans, want 1", n)
			}
			got, gerr = CDAP(d, tree, progs)
			sameOutcome(t, "after recalibration (repeat)", got, gerr, want, werr)
			want, werr = freshCDAP(d, stale, progs)
			got, gerr = CDAP(d, stale, progs)
			sameOutcome(t, "stale tree", got, gerr, want, werr)
			if n := memoLen(d, tree); n != 2 {
				t.Fatalf("memo after a stale-tree call holds %d plans, want 2 (one per tree)", n)
			}

			// Fill the memo past its bound with distinct one-qubit shapes:
			// it clears itself instead of growing, and keeps matching. The
			// bound is the memo's, not the chip's, so one chip suffices.
			if ci != 0 {
				return
			}
			cleared := false
			c := circuit.New("fill", 1)
			for g := 0; g <= cdapMemoCap; g++ {
				before := memoLen(d, tree)
				c.H(0) // one more single-qubit gate: a new shape
				if _, err := CDAP(d, tree, []*circuit.Circuit{c}); err != nil {
					t.Fatal(err)
				}
				n := memoLen(d, tree)
				if n > cdapMemoCap {
					t.Fatalf("memo holds %d plans, bound %d", n, cdapMemoCap)
				}
				cleared = cleared || n < before
			}
			if !cleared {
				t.Fatalf("memo never cleared itself after %d distinct shapes", cdapMemoCap+1)
			}
			for it := 0; it < 10; it++ {
				progs := randList()
				want, werr := freshCDAP(d, tree, progs)
				got, gerr := CDAP(d, tree, progs)
				sameOutcome(t, fmt.Sprintf("after clear, list %d", it), got, gerr, want, werr)
			}
		})
	}
}

// benchTrio is a three-program Table I batch on IBMQ16, the size of the
// batches the scheduler accepts.
func benchTrio(b *testing.B) (*arch.Device, []*circuit.Circuit) {
	b.Helper()
	d := arch.IBMQ16(1)
	progs := []*circuit.Circuit{nisqbench.MustGet("alu-v0_27"), nisqbench.MustGet("bv_n4"), nisqbench.MustGet("peres_3")}
	return d, progs
}

// BenchmarkCDAPCold times CDAP on a retired memo: every iteration starts
// from InvalidateArtifacts, so the region search runs each time (the
// tree is rebuilt outside the timer).
func BenchmarkCDAPCold(b *testing.B) {
	d, progs := benchTrio(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d.InvalidateArtifacts()
		tree := community.BuildCached(d, 0.95)
		b.StartTimer()
		if _, err := CDAP(d, tree, progs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDAPWarm times CDAP on a memo hit: the region lookup plus
// GWEF for each program.
func BenchmarkCDAPWarm(b *testing.B) {
	d, progs := benchTrio(b)
	tree := community.BuildCached(d, 0.95)
	if _, err := CDAP(d, tree, progs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CDAP(d, tree, progs); err != nil {
			b.Fatal(err)
		}
	}
}
