package router

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
)

// testRun builds a mid-route run over two co-located programs and
// drains the compliant prefix so the front layers hold blocked gates.
func testRun(tb testing.TB, opts Options) *run {
	tb.Helper()
	d := arch.IBMQ16(0)
	progs := []*circuit.Circuit{nisqbench.MustGet("bv_n3"), nisqbench.MustGet("3_17_13")}
	r, err := newRun(d, dagsOf(progs), [][]int{{0, 1, 2}, {5, 6, 7}}, opts)
	if err != nil {
		tb.Fatal(err)
	}
	r.executeCompliant()
	return r
}

// freshBlockedFront recomputes what blockedFront must return, bypassing
// the cache — the oracle for the invalidation tests.
func freshBlockedFront(r *run, p *progCtx) []int {
	var out []int
	for _, gi := range p.state.AppendFrontTwoQubit(nil) {
		g := p.circ.Gates[gi]
		a, b := p.l2p[g.Qubits[0]], p.l2p[g.Qubits[1]]
		if !r.d.Coupling.HasEdge(a, b) {
			out = append(out, gi)
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBlockedFrontCacheTracksMutations walks a real routing run and, at
// every step, checks the cached blocked front against a fresh
// recomputation — across executeCompliant drains and SWAP applications,
// the two invalidation sources.
func TestBlockedFrontCacheTracksMutations(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), XSWAPOptions()} {
		r := testRun(t, opts)
		hops := r.d.Hops()
		for step := 0; step < 60; step++ {
			for _, p := range r.progs {
				if got, want := r.blockedFront(p), freshBlockedFront(r, p); !sameInts(got, want) {
					t.Fatalf("step %d: cached blocked front %v, fresh %v", step, got, want)
				}
			}
			done := true
			for _, p := range r.progs {
				if !p.state.Done() {
					done = false
				}
			}
			if done {
				break
			}
			cands := r.swapCandidates()
			if len(cands) == 0 {
				if err := r.forceProgress(hops); err != nil {
					t.Fatal(err)
				}
			} else {
				r.applySwap(r.pickSwap(cands, hops), hops)
			}
			r.executeCompliant()
		}
	}
}

// TestRestrictedHopsMemo checks the lazy D'_p rows: a row is kept across
// intra-program SWAPs (ownership unchanged), and a SWAP that moves a
// program boundary makes every program's rows equal a fresh BFS again.
func TestRestrictedHopsMemo(t *testing.T) {
	r := testRun(t, XSWAPOptions())
	hops := r.d.Hops()
	n := r.d.NumQubits()
	checkAll := func(when string) {
		t.Helper()
		for _, p := range r.progs {
			want := refRestrictedHops(r, p.idx)
			for src := 0; src < n; src++ {
				if got := r.restrictedRow(p, src); !sameInts(got, want[src]) {
					t.Fatalf("%s: program %d row %d = %v, fresh BFS %v", when, p.idx, src, got, want[src])
				}
			}
		}
	}
	checkAll("initial")

	// Swap two of program 0's own qubits: the row buffer must be reused
	// as is — poison one entry and see it survive.
	p0 := r.progs[0]
	src := p0.l2p[0]
	const poison = -7
	r.restrictedRow(p0, src)[src] = poison
	var intra bool
	for _, nb := range r.d.Coupling.Neighbors(p0.l2p[1]) {
		if r.owner[nb] == 0 {
			r.applySwap(swapCandidate{a: min(p0.l2p[1], nb), b: max(p0.l2p[1], nb), trigger: 0}, hops)
			intra = true
			break
		}
	}
	if !intra {
		t.Fatal("program 0 has no adjacent pair of its own qubits")
	}
	if got := r.restrictedRow(p0, src)[src]; got != poison {
		t.Fatal("an intra-program SWAP recomputed a restricted-distance row")
	}

	// Move a program boundary: swap one of program 0's qubits with a
	// free neighbor, which changes the ownership mask of every program.
	var moved bool
	for _, nb := range r.d.Coupling.Neighbors(p0.l2p[0]) {
		if r.owner[nb] == -1 {
			r.applySwap(swapCandidate{a: min(p0.l2p[0], nb), b: max(p0.l2p[0], nb), trigger: 0}, hops)
			moved = true
			break
		}
	}
	if !moved {
		t.Skip("no free neighbor to move a program boundary")
	}
	checkAll("after a boundary SWAP") // the poisoned row included
}

// TestSwapCandidatesAllocs is the router-side allocation guard: once
// the per-step scratch is warm, collecting SWAP candidates must not
// allocate.
func TestSwapCandidatesAllocs(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), XSWAPOptions()} {
		r := testRun(t, opts)
		r.swapCandidates() // warm the scratch buffers
		allocs := testing.AllocsPerRun(50, func() {
			p := r.progs[0]
			p.fbOK = false // force the front recomputation too
			r.swapCandidates()
		})
		if allocs > 0 {
			t.Fatalf("candidate step allocates %.1f per run, want 0", allocs)
		}
	}
}

// mix50 is Table III's Mix_1 on IBMQ50, one program per row of the
// chip's 5x10 grid.
func mix50() (*arch.Device, []*circuit.Circuit, [][]int) {
	var progs []*circuit.Circuit
	var initial [][]int
	for i, name := range []string{"aj-e11_165", "alu-v2_31", "4gt4-v0_72", "sf_276"} {
		c := nisqbench.MustGet(name)
		m := make([]int, c.NumQubits)
		for l := range m {
			m[l] = 10*i + l
		}
		progs, initial = append(progs, c), append(initial, m)
	}
	return arch.IBMQ50(0), progs, initial
}

// mix50Run builds a mid-route X-SWAP run of mix50 and drains the
// compliant prefix, leaving every program blocked.
func mix50Run(tb testing.TB) *run {
	tb.Helper()
	d, progs, initial := mix50()
	r, err := newRun(d, dagsOf(progs), initial, XSWAPOptions())
	if err != nil {
		tb.Fatal(err)
	}
	r.executeCompliant()
	return r
}

// TestSwapStepAllocs is the allocation guard for the routing loop's
// steady state — a stall window, where SWAP follows SWAP with no gate
// executing: candidates, lowering, scoring every candidate and applying
// the winner must all run in the run's own scratch. Each step undoes its
// SWAP (no gate is ever executed here, so a one-way walk would run out
// of blocked gates), which also drives D'_p through an invalidation in
// both directions.
func TestSwapStepAllocs(t *testing.T) {
	r := mix50Run(t)
	hops := r.d.Hops()
	step := func() {
		c := r.pickSwap(r.swapCandidates(), hops)
		r.applySwap(c, hops)
		r.applySwap(c, hops)
	}
	for i := 0; i < 100; i++ {
		step() // warm scratch and the D'_p backing stores
	}
	r.sched.Ops = append(make([]Op, 0, len(r.sched.Ops)+1000), r.sched.Ops...)
	if allocs := testing.AllocsPerRun(200, step); allocs > 0 {
		t.Fatalf("steady-state SWAP step allocates %.1f per run, want 0", allocs)
	}
}

// TestRefinePassAllocs bounds what one reverse-traversal pass allocates
// beyond Refine's set-up (the DAGs, built once per call): a pass keeps
// the mapping only, so it pays for its routing state (≈190 allocations
// on mix50) and not for the ≈1,700 source gates of an emitted schedule.
func TestRefinePassAllocs(t *testing.T) {
	d, progs, initial := mix50()
	opts := XSWAPOptions()
	opts.NoisePenalty = 2
	refine := func(iters int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Refine(d, progs, initial, iters, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	setup := refine(0)
	if perPass := (refine(3) - setup) / 6; perPass > 500 {
		t.Fatalf("a traversal pass allocates %.0f times, want <= 500 (set-up alone %.0f)", perPass, setup)
	}
}

// TestSwapCandidatesMatchUncached pins the scratch rewrite against the
// original map-and-sort implementation.
func TestSwapCandidatesMatchUncached(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), XSWAPOptions()} {
		r := testRun(t, opts)
		got := append([]swapCandidate(nil), r.swapCandidates()...)

		seen := map[[2]int]bool{}
		var want []swapCandidate
		for _, p := range r.progs {
			for _, gi := range r.candidateGates(p) {
				g := p.circ.Gates[gi]
				for _, lq := range g.Qubits {
					phys := p.l2p[lq]
					for _, nb := range r.d.Coupling.Neighbors(phys) {
						if !r.swapAllowed(p.idx, phys, nb) {
							continue
						}
						key := [2]int{phys, nb}
						if key[0] > key[1] {
							key[0], key[1] = key[1], key[0]
						}
						if seen[key] {
							continue
						}
						seen[key] = true
						want = append(want, swapCandidate{a: key[0], b: key[1], trigger: p.idx})
					}
				}
			}
		}
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && (want[j].a < want[j-1].a || (want[j].a == want[j-1].a && want[j].b < want[j-1].b)); j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interProgram=%v: scratch candidates %v differ from reference %v", opts.InterProgram, got, want)
		}
	}
}
