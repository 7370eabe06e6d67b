package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
	"repro/internal/router"
)

// latticeTiers counts the (trial, measured component) pairs of each tier
// over the shards latticeMatches ran: no hit, Pauli hits only, decays on
// Z-deterministic qubits only (frame updates), one random decay that
// moves the pair onto its branch with no decay after it, and re-run on
// the component's tableau.
type latticeTiers struct{ clean, frame, decayFrame, branch, rerun int }

func (a *latticeTiers) add(b latticeTiers) {
	a.clean, a.frame, a.decayFrame, a.branch, a.rerun = a.clean+b.clean, a.frame+b.frame, a.decayFrame+b.decayFrame, a.branch+b.branch, a.rerun+b.rerun
}

func (a latticeTiers) all() bool {
	return a.clean > 0 && a.frame > 0 && a.decayFrame > 0 && a.branch > 0 && a.rerun > 0
}

// latticeMatches holds the shard's fast path to a per-trial tableau fed
// the same lattice: for each seed it samples one shard of n trials, then
// measures every trial both ways — the frames, the reference's affine
// outcomes and the re-run tableaus on one side; on the other, the whole
// stabilizer register reset and driven through cp.layers with the
// trial's hits landing at their steps, each decay a measurement its coin
// picks, and the plan measured in order with picks from a copy of the
// stream. Every trial's outcome bits must agree, and so must one more
// draw from each stream after the shard.
func latticeMatches(t testing.TB, name string, d *arch.Device, s *router.Schedule, progs int, noise NoiseModel, seeds, n int) latticeTiers {
	t.Helper()
	cp, plan, err := lowerSchedule(d, s, progs, noise)
	if err != nil {
		t.Fatal(err)
	}
	prepare(engineTableau, cp, plan)
	fast, ref := newPauliFrames(cp, progs), newStabilizer(cp.fac)
	f, words := cp.fac, (n+63)>>6
	var tiers latticeTiers
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := newStream(seed)
		fast.sample(cp, n, rng)
		fast.propagate(cp.frames, n)
		refRng := *rng
		for trial := 0; trial < n; trial++ {
			fast.measure(cp, plan, n, trial, rng)
			var hits []latticeHit
			for _, h := range fast.hits {
				if int(h.trial) == trial {
					hits = append(hits, h)
				}
			}
			// The pair's tier, from the lattice and its sites alone.
			paulis := make([]bool, len(f.sizes))
			decays := make([][]siteKind, len(f.sizes)) // per component, in site order
			for _, h := range hits {
				c := f.comp[h.slot]
				if h.what < hitDecay {
					paulis[c] = true
				} else {
					decays[c] = append(decays[c], cp.frames.sites[h.site].kind)
				}
			}
			for _, c := range cp.frames.measured {
				d := decays[c]
				at := slices.Index(d, siteBranch)
				switch {
				case cp.frames.perTrial[c] || slices.Contains(d, siteIdle) || at >= 0 && at < len(d)-1:
					tiers.rerun++
				case at >= 0:
					tiers.branch++
				case len(d) > 0:
					tiers.decayFrame++
				case paulis[c]:
					tiers.frame++
				default:
					tiers.clean++
				}
			}
			ref.reset()
			e, step := 0, 0
			land := func() {
				for ; e < len(hits) && int(hits[e].step) <= step; e++ {
					tb, q := ref.at(int(hits[e].slot))
					switch h := hits[e].what; h {
					case 1:
						tb.xg(q)
					case 2:
						tb.zg(q)
					case 3:
						tb.yg(q)
					default:
						if tb.measure(q, func() bool { return h&1 == 1 }) == 1 {
							tb.xg(q)
						}
					}
				}
			}
			for li := range cp.layers {
				for _, op := range cp.layers[li].ops {
					land()
					tb, a := ref.at(op.a)
					tb.apply(op.kind, a, f.bit[op.b])
					step++
				}
			}
			land()
			if e != len(hits) {
				t.Fatalf("%s seed %d trial %d: %d of %d hits never landed", name, seed, trial, len(hits)-e, len(hits))
			}
			for i := range plan {
				b := ref.measure(plan[i].q, &refRng) ^ int(fast.ro[i*words+trial>>6]>>uint(trial&63)&1)
				if b != fast.out[i] {
					t.Fatalf("%s noise=%+v seed=%d trial=%d: plan point %d (program %d) measures %d on the frames, %d on the per-trial tableau", name, noise, seed, trial, i, plan[i].prog, fast.out[i], b)
				}
			}
		}
		if a, b := rng.next(), refRng.next(); a != b {
			t.Fatalf("%s seed %d: the frames and the per-trial tableau drew differently (next draws %d, %d)", name, seed, a, b)
		}
	}
	return tiers
}

// gridPair routes a GHZ-6 and a Bernstein-Vazirani-5 side by side on a
// 5x5 grid, whose noise the tests raise to make every tier common.
func gridPair(tb testing.TB) (*arch.Device, *router.Schedule, []*circuit.Circuit) {
	tb.Helper()
	d := arch.Grid(5, 5, 0.03, 0.04)
	progs := []*circuit.Circuit{nisqbench.GHZ(6), nisqbench.BernsteinVazirani(5)}
	s, err := router.Route(d, progs, [][]int{{0, 1, 2, 7, 6, 5}, {15, 16, 17, 22, 21}}, router.XSWAPOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return d, s, progs
}

// cluster66 is a 66-qubit linear cluster state on a line: every Z
// measurement of it is random, so its one component has more than 64
// random picks and re-runs every trial.
func cluster66() (*arch.Device, *router.Schedule) {
	d := arch.Linear(66, 0.01, 0.02)
	s := &router.Schedule{Device: d}
	for q := 0; q < 66; q++ {
		s.Ops = append(s.Ops, router.Op{Gate: circuit.Gate{Name: circuit.GateH, Qubits: []int{q}}})
	}
	for q := 0; q+1 < 66; q++ {
		s.Ops = append(s.Ops, router.Op{Gate: circuit.Gate{Name: circuit.GateCZ, Qubits: []int{q, q + 1}}})
	}
	for q := 0; q < 66; q++ {
		s.Measurements = append(s.Measurements, router.Measurement{Logical: q, Phys: q})
	}
	return d, s
}

// TestLatticeMatchesPerTrialTableau is the byte-exact oracle of sampling
// contract v2: on the golden fixtures (cliffordMix50; ghz40, whose
// 80-row columns span two words; corners16), a grid pair with a raised
// idle rate, and a component past 64 random measurements, the frames
// measure what a per-trial tableau fed the same hits and picks measures,
// trial by trial, and all five tiers occur, on the grid pair alone too.
func TestLatticeMatchesPerTrialTableau(t *testing.T) {
	d16, d50 := arch.IBMQ16(0), arch.IBMQ50(0)
	mix, mixProgs := cliffordMix50(t, d50)
	ghz, _ := ghz40(t, d50)
	corners, _ := corners16(t, d16)
	gd, grid, gridProgs := gridPair(t)
	cd, cluster := cluster66()
	hot := NoiseModel{Enabled: true, IdleErrPerLayer: 0.02, CrosstalkFactor: 0.5, Readout: true}
	var all latticeTiers
	for _, fx := range []struct {
		name  string
		d     *arch.Device
		s     *router.Schedule
		progs int
		noise NoiseModel
		n     int
	}{
		{"cliffordMix50", d50, mix, len(mixProgs), DefaultNoise(), shardTrials},
		{"ghz40", d50, ghz, 1, DefaultNoise(), 200},
		{"corners16", d16, corners, 2, hot, 130},
		{"grid", gd, grid, len(gridProgs), hot, shardTrials},
		{"cluster66", cd, cluster, 1, DefaultNoise(), 70},
	} {
		tiers := latticeMatches(t, fx.name, fx.d, fx.s, fx.progs, fx.noise, 2, fx.n)
		t.Logf("%s: tiers %+v", fx.name, tiers)
		if fx.name == "grid" && !tiers.all() {
			t.Errorf("grid: tiers %+v, want every tier", tiers)
		}
		all.add(tiers)
	}
	if !all.all() {
		t.Fatalf("tiers %+v, want every tier", all)
	}
	cp, plan, err := lowerSchedule(cd, cluster, 1, DefaultNoise())
	if err != nil {
		t.Fatal(err)
	}
	prepare(engineTableau, cp, plan)
	if !cp.frames.perTrial[0] {
		t.Fatal("cluster66's component has more than 64 random measurements but does not re-run every trial")
	}
}

// TestDecayTiersAtRateOne pins the two decay tiers on a schedule where
// every idle site fires in every trial. Wire 0 is flipped to |1> by X and
// wire 1 put in |+> by H; both idle while wire 2 runs a second H. Wire
// 0's decay is a frame update that sets its X bit to the reference's 1,
// so it measures 0 in every trial; wire 1's moves the pair onto its
// branch, which measures 0 too. No pair re-runs.
func TestDecayTiersAtRateOne(t *testing.T) {
	d := arch.Linear(3, 0, 0)
	s := &router.Schedule{Device: d}
	for _, g := range []circuit.Gate{
		{Name: circuit.GateX, Qubits: []int{0}},
		{Name: circuit.GateH, Qubits: []int{1}},
		{Name: circuit.GateH, Qubits: []int{2}},
		{Name: circuit.GateH, Qubits: []int{2}},
	} {
		s.Ops = append(s.Ops, router.Op{Gate: g})
	}
	s.Measurements = []router.Measurement{{Program: 0, Phys: 0}, {Program: 1, Phys: 1}}
	noise := NoiseModel{Enabled: true, IdleErrPerLayer: 1}
	tiers := latticeMatches(t, "rate1", d, s, 2, noise, 2, shardTrials)
	if want := (latticeTiers{decayFrame: 2 * shardTrials, branch: 2 * shardTrials}); tiers != want {
		t.Fatalf("tiers %+v, want %+v", tiers, want)
	}

	cp, plan, err := lowerSchedule(d, s, 2, noise)
	if err != nil {
		t.Fatal(err)
	}
	prepare(engineTableau, cp, plan)
	var kinds []siteKind
	for _, st := range cp.frames.sites {
		kinds = append(kinds, st.kind)
	}
	if want := []siteKind{siteSet, siteBranch}; !reflect.DeepEqual(kinds, want) || cp.frames.sites[0].b != 1 {
		t.Fatalf("sites %+v, want a siteSet to 1 on wire 0, then a siteBranch on wire 1", cp.frames.sites)
	}
	r, succ := newPauliFrames(cp, 2), make([]int, 2)
	r.shard(cp, plan, shardTrials, newStream(7), succ)
	if want := []int{0, shardTrials}; !reflect.DeepEqual(succ, want) {
		t.Errorf("successes %v, want %v: wire 0 measures 0 against its correct 1, wire 1 its correct 0", succ, want)
	}
	for c, v := range r.dec {
		if v != 0 {
			t.Fatalf("component word %d re-runs trials %#x, want none", c, v)
		}
	}
}

// randomClifford builds a schedule of random Clifford gates, SWAPs
// included, from ops on a line of n wires, with a random subset measured
// for two programs; every byte picks a gate and a wire.
func randomClifford(n int, ops []byte) (*arch.Device, *router.Schedule) {
	d := arch.Linear(n, 0.04, 0.05)
	s := &router.Schedule{Device: d}
	names := []string{circuit.GateH, circuit.GateS, circuit.GateSdg, circuit.GateX, circuit.GateY, circuit.GateZ, circuit.GateCX, circuit.GateCZ, circuit.GateSWAP}
	for i, b := range ops {
		name, q := names[int(b)%len(names)], int(b)/len(names)%n
		if name == circuit.GateCX || name == circuit.GateCZ || name == circuit.GateSWAP {
			if q == n-1 {
				q--
			}
			a, c := q, q+1
			if i%2 == 1 {
				a, c = c, a
			}
			s.Ops = append(s.Ops, router.Op{Gate: circuit.Gate{Name: name, Qubits: []int{a, c}}, IsSwap: name == circuit.GateSWAP})
			continue
		}
		s.Ops = append(s.Ops, router.Op{Gate: circuit.Gate{Name: name, Qubits: []int{q}}})
	}
	logical := [2]int{}
	for q := 0; q < n; q++ {
		if len(ops) > q && ops[len(ops)-1-q]%3 == 0 {
			continue // an unmeasured wire
		}
		p := q % 2
		s.Measurements = append(s.Measurements, router.Measurement{Program: p, Logical: logical[p], Phys: q})
		logical[p]++
	}
	return d, s
}

// TestLatticeMatchesRandomClifford is the quick-check: random Clifford
// schedules of 2 to 9 wires under raised noise, shards of 1 to 130
// trials.
func TestLatticeMatchesRandomClifford(t *testing.T) {
	noise := NoiseModel{Enabled: true, IdleErrPerLayer: 0.05, CrosstalkFactor: 0.5, Readout: true}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 5+rng.Intn(60))
		rng.Read(ops)
		d, s := randomClifford(2+rng.Intn(8), ops)
		latticeMatches(t, fmt.Sprintf("random/%d", seed), d, s, 2, noise, 2, 1+rng.Intn(130))
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLatticeFrames drives latticeMatches with random schedules: the
// first byte sets the wire count, the second the idle rate, the third
// the trials, the rest the gates (corpus under testdata/fuzz).
func FuzzLatticeFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 512 {
			return
		}
		d, s := randomClifford(2+int(data[0])%10, data[3:])
		noise := NoiseModel{Enabled: true, IdleErrPerLayer: float64(data[1]) / 512, CrosstalkFactor: 0.5, Readout: true}
		latticeMatches(t, "fuzz", d, s, 2, noise, 1, 1+int(data[2])%200)
	})
}

// TestLatticeSiteRates checks the lattice's sampler at the edges: a rate
// that is 0, −0 or NaN adds no site, 5e-324 never fires, 1 and 1.3 fire
// on every trial, and 0.0012 and 0.5 fire at their rate within four
// standard deviations of the binomial count — in both halves of the
// shard, so the gaps do not bunch hits at one end.
func TestLatticeSiteRates(t *testing.T) {
	const shards = 400
	for _, p := range []float64{0, math.Copysign(0, -1), math.NaN(), 5e-324, 0.0012, 0.5, 1, 1.3} {
		cp := &compiledProgram{fac: newFactoring(1), frames: &framePlan{points: make([]framePoint, 1)}}
		cp.fac.finish()
		cp.frames.addSite(siteReadout, p, 0, 0, 0)
		if !(p > 0) {
			if len(cp.frames.sites) != 0 {
				t.Errorf("p=%v adds a site", p)
			}
			continue
		}
		r, rng := newPauliFrames(cp, 1), newStream(int64(math.Float64bits(p)))
		var halves [2]int
		for range shards {
			r.sample(cp, shardTrials, rng)
			for w, v := range r.ro[:shardTrials/64] {
				halves[w*64/(shardTrials/2)] += bits.OnesCount64(v)
			}
		}
		n, hits := float64(shards*shardTrials), halves[0]+halves[1]
		switch q := min(p, 1); {
		case p == 5e-324 && hits != 0:
			t.Errorf("p=%v fires %d times", p, hits)
		case q == 1 && hits != shards*shardTrials:
			t.Errorf("p=%v fires %d of %v times", p, hits, n)
		case q < 1 && p > 1e-300:
			for _, h := range halves {
				mean, sd := n/2*q, math.Sqrt(n/2*q*(1-q))
				if math.Abs(float64(h)-mean) > 4*sd {
					t.Errorf("p=%v fires %d times in half a shard's trials over %d shards, want %.0f ± %.0f", p, h, shards, mean, 4*sd)
				}
			}
		}
	}
}

// v1Simulate is monteCarlo, sequential, under sampling contract v1: each
// shard runs its trials one at a time on the stabilizer register
// (runTableau), from the same shard streams.
func v1Simulate(t *testing.T, d *arch.Device, s *router.Schedule, progs, trials int, seed int64, noise NoiseModel) []float64 {
	t.Helper()
	cp, plan, err := lowerSchedule(d, s, progs, noise)
	if err != nil {
		t.Fatal(err)
	}
	prepare(engineTableau, cp, plan)
	reg, succ := newTrialRegister(engineTableau, cp), make([]int, progs)
	for sh := range numShards(trials) {
		lo, hi := shardRange(sh, trials)
		trialShard(reg, cp, plan, hi-lo, newStream(shardSeed(seed, sh)), succ)
	}
	pst := make([]float64, progs)
	for p, k := range succ {
		pst[p] = float64(k) / float64(trials)
	}
	return pst
}

// TestLatticeAgreesWithV1 is the two-sample test between the sampling
// contracts: on every clifford fixture and noise variant of TestGoldenPST,
// v1 (per-trial draws) and v2 (lattice and frames) estimate each
// program's PST at 8024 trials from independent streams, and the two must
// agree within four standard errors of their difference. Noiseless, the
// two draw the same picks and must agree exactly.
func TestLatticeAgreesWithV1(t *testing.T) {
	if testing.Short() {
		t.Skip("8024-trial two-sample test skipped in -short mode")
	}
	const trials = 8024
	for _, v := range goldenVariants(t) {
		for _, c := range goldenCases {
			if c.engine != "clifford" {
				continue
			}
			d := v.d16
			if c.chip50 {
				d = v.d50
			}
			s, progs := c.fx(t, d)
			v2, err := SimulateScheduleCliffordCtx(context.Background(), d, s, progs, trials, 5, v.noise, 0)
			if err != nil {
				t.Fatal(err)
			}
			v1 := v1Simulate(t, d, s, len(progs), trials, 5, v.noise)
			name := c.fixture + "/" + v.name
			if !v.noise.Enabled {
				if !reflect.DeepEqual(v1, v2.PST) {
					t.Errorf("%s: v1 %v, v2 %v, want identical without noise", name, v1, v2.PST)
				}
				continue
			}
			for p := range v1 {
				pool := (v1[p] + v2.PST[p]) / 2
				se := math.Sqrt(pool * (1 - pool) * 2 / trials)
				if z := (v2.PST[p] - v1[p]) / se; math.Abs(z) > 4 || se == 0 && v1[p] != v2.PST[p] {
					t.Errorf("%s program %d: v1 PST %.4f, v2 %.4f (z = %.2f)", name, p, v1[p], v2.PST[p], z)
				} else {
					t.Logf("%s program %d: v1 %.4f, v2 %.4f, z = %+.2f", name, p, v1[p], v2.PST[p], z)
				}
			}
		}
	}
}
