package router

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
)

// refRestrictedHops is the all-pairs restricted BFS the lazy D'_p rows
// replaced: hop distances over the qubits free or owned by program p,
// -1 for pairs the restriction disconnects.
func refRestrictedHops(r *run, p int) [][]int {
	n := r.d.NumQubits()
	allowed := make([]bool, n)
	for q := range allowed {
		allowed[q] = r.owner[q] == -1 || r.owner[q] == p
	}
	d := make([][]int, n)
	for src := range d {
		d[src] = make([]int, n)
		for j := range d[src] {
			d[src][j] = -1
		}
		if !allowed[src] {
			continue
		}
		d[src][src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range r.d.Coupling.Neighbors(u) {
				if allowed[v] && d[src][v] < 0 {
					d[src][v] = d[src][u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return d
}

// refScoreSwap is the full-recompute score the delta-scored scoreSwap
// replaced: per program it walks every front and extended-set gate under
// the trial mapping with sequential float accumulation, recomputes
// Equation 2's gains from a fresh all-pairs D'_p, and evaluates the
// noise term's logarithm per call. dps holds refRestrictedHops of every
// program for the decision at hand.
func refScoreSwap(r *run, c swapCandidate, hops [][]int, dps [][][]int) float64 {
	h := 0.0
	for _, p := range r.progs {
		front := freshBlockedFront(r, p)
		if len(front) == 0 {
			continue
		}
		ext := p.state.ExtendedSet(extendedSetSize)
		dist := hops
		if !r.opts.InterProgram {
			dist = dps[p.idx]
		}
		trial := func(l int) int {
			phys := p.l2p[l]
			switch phys {
			case c.a:
				return c.b
			case c.b:
				return c.a
			}
			return phys
		}
		sum := 0.0
		for _, gi := range front {
			g := p.circ.Gates[gi]
			dd := dist[trial(g.Qubits[0])][trial(g.Qubits[1])]
			if dd < 0 {
				dd = r.d.NumQubits()
			}
			sum += float64(dd)
		}
		h += sum / float64(len(front))
		if len(ext) > 0 {
			esum := 0.0
			for _, gi := range ext {
				g := p.circ.Gates[gi]
				dd := dist[trial(g.Qubits[0])][trial(g.Qubits[1])]
				if dd < 0 {
					dd = r.d.NumQubits()
				}
				esum += float64(dd)
			}
			h += extendedSetWeight * esum / float64(len(ext))
		}
		if r.opts.InterProgram && r.opts.GainTerm {
			dp := dps[p.idx]
			gsum := 0.0
			for _, gi := range front {
				g := p.circ.Gates[gi]
				s, t := p.l2p[g.Qubits[0]], p.l2p[g.Qubits[1]]
				dOwn := dp[s][t]
				if dOwn < 0 {
					dOwn = r.d.NumQubits() * 2
				}
				if gain := float64(hops[s][t] - dOwn); gain < 0 && onShortestPath(hops, s, t, c.a, c.b) {
					gsum += gain
				}
			}
			h += gsum / float64(len(front))
		}
	}
	dec := r.decay[c.a]
	if r.decay[c.b] > dec {
		dec = r.decay[c.b]
	}
	h *= 1 + dec
	if r.opts.NoisePenalty > 0 {
		rel := 1 - r.d.CNOTError(c.a, c.b)
		if rel < 1e-9 {
			rel = 1e-9
		}
		h += r.opts.NoisePenalty * 3 * -math.Log(rel)
	}
	return h
}

// refOptionSets are the SWAP policies the differential test draws from:
// every optional scoring term on and off, under both ownership policies.
var refOptionSets = []func() Options{
	DefaultOptions,
	XSWAPOptions,
	func() Options { o := DefaultOptions(); o.NoisePenalty = 2; return o },
	func() Options { o := XSWAPOptions(); o.NoisePenalty = 2; return o },
	func() Options { o := XSWAPOptions(); o.GainTerm = false; return o },
	func() Options { o := XSWAPOptions(); o.CriticalGatesOnly = false; return o },
	func() Options { o := DefaultOptions(); o.CriticalGatesOnly = true; return o },
}

// randomRun draws a device, one to four programs on random disjoint
// qubits and an option set. Every eighth case is a 4-program IBMQ50 mix.
func randomRun(t *testing.T, seed int64) *run {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var d *arch.Device
	var progs []*circuit.Circuit
	if seed%8 == 7 {
		d = arch.IBMQ50(seed)
		for _, name := range []string{"aj-e11_165", "alu-v2_31", "4gt4-v0_72", "sf_276"} {
			progs = append(progs, nisqbench.MustGet(name))
		}
	} else {
		d = randomDevice(rng)
		remaining := d.NumQubits()
		for i, nprogs := 0, 1+rng.Intn(3); i < nprogs && remaining >= 2; i++ {
			n := min(2+rng.Intn(3), remaining)
			progs = append(progs, randomProgram(rng, "p", n, 5+rng.Intn(40)))
			remaining -= n
		}
	}
	opts := refOptionSets[rng.Intn(len(refOptionSets))]()
	opts.Seed = seed
	r, err := newRun(d, dagsOf(progs), randomDisjointMappings(rng, d, progs), opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestScoreSwapMatchesReference steps random runs through the routing
// loop and, at every SWAP decision, compares the delta-scored
// scoreSwap of every candidate with the full recompute, bit for bit,
// and the lazy D'_p rows with a fresh all-pairs BFS. Forced-progress
// walks are mixed in so decisions are also taken right after SWAPs the
// heuristic did not choose.
func TestScoreSwapMatchesReference(t *testing.T) {
	cases, decisions := 320, 0
	if testing.Short() {
		cases = 200
	}
	for seed := int64(0); seed < int64(cases); seed++ {
		r := randomRun(t, seed)
		hops := r.d.Hops()
		n := r.d.NumQubits()
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for step := 0; step < 150; step++ {
			r.executeCompliant()
			done := true
			for _, p := range r.progs {
				done = done && p.state.Done()
			}
			if done {
				break
			}
			cands := r.swapCandidates()
			if len(cands) == 0 || step%23 == 22 {
				if err := r.forceProgress(hops); err != nil {
					break // intra-only routing can be genuinely infeasible
				}
				continue
			}
			dps := make([][][]int, len(r.progs))
			for p := range dps {
				dps[p] = refRestrictedHops(r, p)
			}
			r.lower(hops)
			for _, c := range cands {
				got, want := r.scoreSwap(c, hops), refScoreSwap(r, c, hops, dps)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d swap (%d,%d): score %x (%v), reference %x (%v)",
						seed, step, c.a, c.b, math.Float64bits(got), got, math.Float64bits(want), want)
				}
			}
			for _, p := range r.progs {
				src := rng.Intn(n)
				if got, want := r.restrictedRow(p, src), dps[p.idx][src]; !sameInts(got, want) {
					t.Fatalf("seed %d step %d: program %d row %d = %v, fresh BFS %v", seed, step, p.idx, src, got, want)
				}
			}
			decisions++
			r.applySwap(r.pickSwap(cands, hops), hops)
		}
	}
	if decisions < 2000 {
		t.Fatalf("only %d SWAP decisions compared; the generator no longer reaches blocked states", decisions)
	}
}
