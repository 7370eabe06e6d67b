package router

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/nisqbench"
	"repro/internal/partition"
)

// refRoute is route as it was before stall cycles were replayed: one
// scored decision per loop iteration, however long the stall. It
// returns how many stall windows ended at the livelock backstop.
func refRoute(r *run) (backstops int, err error) {
	hops := r.d.Hops()
	stall := 0
	limit := 200 + 20*r.d.NumQubits()
	for {
		progress := r.executeCompliant()
		done := true
		for _, p := range r.progs {
			if !p.state.Done() {
				done = false
				break
			}
		}
		if done {
			return backstops, nil
		}
		if progress {
			stall = 0
		} else {
			stall++
		}
		if stall > limit {
			if err := r.forceProgress(hops); err != nil {
				return backstops, err
			}
			backstops++
			stall = 0
			continue
		}
		cands := r.swapCandidates()
		if len(cands) == 0 {
			if err := r.forceProgress(hops); err != nil {
				return backstops, err
			}
			continue
		}
		best := r.pickSwap(cands, hops)
		r.applySwap(best, hops)
	}
}

// stallMixes are Table III's Mix_4, 5, 8 and 9 (the root package holds
// all twelve; router cannot import it): the mixes whose reverse-traversal
// passes livelock on IBMQ50.
var stallMixes = map[string][]string{
	"Mix_4": {"aj-e11_165", "alu-v2_31", "ising_model_10", "cnt3-5_180"},
	"Mix_5": {"4gt4-v0_72", "sf_276", "sym9_146", "rd53_311"},
	"Mix_8": {"aj-e11_165", "4gt4-v0_72", "rd53_311", "cnt3-5_180"},
	"Mix_9": {"alu-v2_31", "sf_276", "sym9_146", "qft_16"},
}

// replayStats totals what routing a pipeline did: decisions replayed
// by route, stall windows refRoute ended at the backstop, tied decisions.
type replayStats struct{ replayed, backstops, ties int }

// routeBoth routes one pass with route and with refRoute from the same
// inputs, fails on any difference in the schedule, the counters or the
// RNG state left behind, and returns the final mapping.
func routeBoth(t *testing.T, name string, d *arch.Device, dags []*circuit.DAG, initial [][]int, opts Options, mapOnly bool, st *replayStats) [][]int {
	t.Helper()
	var runs [2]*run
	for i := range runs {
		r, err := newRun(d, dags, initial, opts)
		if err != nil {
			t.Fatal(err)
		}
		r.mapOnly = mapOnly
		runs[i] = r
	}
	got, want := runs[0], runs[1]
	if err := got.route(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	backstops, err := refRoute(want)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	mapping := func(r *run) [][]int {
		m := make([][]int, len(r.progs))
		for p, pr := range r.progs {
			m[p] = pr.l2p
		}
		return m
	}
	g, w := got.sched, want.sched
	switch {
	case !reflect.DeepEqual(g.Ops, w.Ops):
		t.Fatalf("%s: %d ops, reference %d, or an op differs", name, len(g.Ops), len(w.Ops))
	case !reflect.DeepEqual(mapping(got), mapping(want)):
		t.Fatalf("%s: final mapping %v, reference %v", name, mapping(got), mapping(want))
	case g.SwapCount != w.SwapCount || g.InterSwapCount != w.InterSwapCount:
		t.Fatalf("%s: swaps/inter %d/%d, reference %d/%d", name,
			g.SwapCount, g.InterSwapCount, w.SwapCount, w.InterSwapCount)
	case !reflect.DeepEqual(g.SwapsByProgram, w.SwapsByProgram):
		t.Fatalf("%s: swaps by program %v, reference %v", name, g.SwapsByProgram, w.SwapsByProgram)
	case g.TieBreaks != w.TieBreaks:
		t.Fatalf("%s: %d tie breaks, reference %d", name, g.TieBreaks, w.TieBreaks)
	}
	// A replay that skipped pickSwap's draw would leave the RNG behind.
	if a, b := got.rng.Int63(), want.rng.Int63(); a != b {
		t.Fatalf("%s: RNG state differs after routing (%d vs %d)", name, a, b)
	}
	st.replayed += got.replayed
	st.backstops += backstops
	st.ties += g.TieBreaks
	return mapping(got)
}

// routePipeline checks what Refine and Route run for one attempt: every
// reverse-traversal pass, forward and reversed, then the final route.
func routePipeline(t *testing.T, name string, d *arch.Device, progs []*circuit.Circuit, initial [][]int, opts Options) replayStats {
	t.Helper()
	var st replayStats
	fwd := make([]*circuit.DAG, len(progs))
	bwd := make([]*circuit.DAG, len(progs))
	for i, p := range progs {
		f := stripMeasures(p)
		fwd[i], bwd[i] = circuit.NewDAG(f), circuit.NewDAG(reversed(f))
	}
	mapping := initial
	for pass := 0; pass < 6; pass++ {
		dags := fwd
		if pass%2 == 1 {
			dags = bwd
		}
		mapping = routeBoth(t, name, d, dags, mapping, opts, true, &st)
	}
	routeBoth(t, name+"/final", d, dagsOf(progs), mapping, opts, false, &st)
	return st
}

// cdapMix places Table III mix name on IBMQ50 the way CDAP+X-SWAP
// does before its reverse traversal.
func cdapMix(tb testing.TB, name string) (*arch.Device, []*circuit.Circuit, [][]int) {
	tb.Helper()
	d := arch.IBMQ50(0)
	var progs []*circuit.Circuit
	for _, b := range stallMixes[name] {
		progs = append(progs, nisqbench.MustGet(b))
	}
	res, err := partition.CDAP(d, community.BuildCached(d, community.KneeOmega(d)), progs)
	if err != nil {
		tb.Fatal(err)
	}
	var initial [][]int
	for _, a := range res.Assignments {
		initial = append(initial, a.InitialMapping)
	}
	return d, progs, initial
}

// TestRouteReplayMatchesReference holds route's stall-cycle replay to
// the loop it replaced, pass by pass, on the Table III mixes whose
// traversal passes livelock on IBMQ50 (noise-aware scores, no ties) and
// on a uniform-error grid whose stall windows tie.
func TestRouteReplayMatchesReference(t *testing.T) {
	opts := XSWAPOptions()
	opts.NoisePenalty = 2
	for _, name := range []string{"Mix_4", "Mix_5", "Mix_8", "Mix_9"} {
		d, progs, initial := cdapMix(t, name)
		st := routePipeline(t, name, d, progs, initial, opts)
		if st.backstops == 0 || st.replayed == 0 {
			t.Errorf("%s: %d stall windows, %d decisions replayed; want both > 0", name, st.backstops, st.replayed)
		}
	}

	// Distance-only scores on a uniform grid tie. The first fixture's one
	// stall window cycles through tied decisions, which read the RNG, so
	// none of it may be replayed; the second stalls both ways.
	for _, tc := range []struct {
		names   []string
		initial [][]int
		seed    int64
		replays bool
	}{
		{[]string{"ising_model_10", "qft_16", "4gt4-v0_72", "bv_n3"}, [][]int{
			{7, 12, 32, 27, 22, 39, 1, 13, 40, 8},
			{38, 42, 5, 43, 9, 33, 23, 37, 19, 45, 30, 34, 6, 2, 44, 16},
			{28, 35, 48, 3, 47, 18},
			{46, 10, 11},
		}, 35, false},
		{[]string{"sym9_146", "aj-e11_165", "cnt3-5_180", "fredkin_3"}, [][]int{
			{5, 9, 40, 21, 31, 42, 29, 4, 14, 2, 33, 37},
			{39, 13, 8, 12, 23},
			{1, 36, 46, 26, 10, 19, 35, 25, 32, 18, 22, 38, 11, 34, 15, 16},
			{45, 7, 44},
		}, 10, true},
	} {
		var progs []*circuit.Circuit
		for _, b := range tc.names {
			progs = append(progs, nisqbench.MustGet(b))
		}
		o := XSWAPOptions()
		o.Seed = tc.seed
		st := routePipeline(t, "grid", arch.Grid(5, 10, 0.01, 0.02), progs, tc.initial, o)
		if st.backstops == 0 || st.ties == 0 || (st.replayed > 0) != tc.replays {
			t.Errorf("grid seed %d: %+v; want stall windows, ties, and replays %t", tc.seed, st, tc.replays)
		}
	}
}
