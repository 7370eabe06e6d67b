package sim

// The tableau engine's shard: sampling contract v2 (DESIGN.md, "Sampling
// contract v2 (tableau)"). A shard of up to shardTrials trials draws its
// errors up front, site by site, as a lattice of hits; the trials then run
// together as bit-sliced Pauli frames (Gidney, "Stim", Quantum 5, 497,
// 2021) against the one noiseless reference run that prepare measured.
//
//   - Lattice. The error sites are walked in compiled order — each op's
//     draw sites (three for a SWAP), then the layer's idle sites, then one
//     readout site per plan point. A site of rate p hits the trials that
//     geometric gaps ⌊ln(1−U)·inv⌋, inv = 1/ln(1−p), land on, U a
//     Float64 of the shard's splitmix64 stream (stream.go); each hit
//     then draws its payload: pick2 and Intn(3) for a two-qubit op's
//     Pauli, Intn(3) for a one-qubit op's, the decay's coin Intn(2) for an
//     idle site, nothing for a readout flip.
//   - Picks. Trial by trial, one Intn(2) per random measurement in plan
//     order. With noise off there are no sites and this is the per-trial
//     tableau's draw sequence exactly.
//
// A (trial, component) pair takes one of five tiers. Clean: no hit, the
// outcomes are the reference's affine function of the trial's picks.
// Frame-only: Pauli hits, which the frame carries through the gates and
// which flip the outcomes their X part reaches. Decay-as-frame: decays
// too, each where the reference holds its qubit in a Z eigenstate |v>, so
// the decay leaves the trial's state a Pauli frame times the reference
// with the slot's X bit set to v. Branch: one decay where the reference's
// qubit is random, and none after it on the component. Prepare built that
// site a branch reference — the reference projected to Z_q = 0, then run
// through the remaining ops — and the reference stabilizer g that
// anticommutes with Z_q; since Π₁|ψ> = g·Π₀|ψ>, the decay multiplies the
// frame by g when coin ⊕ x_q is 1, sets x_q ^= coin, and the pair reads
// the branch's affine outcomes. Re-run: any other decay — a random one
// without a branch, or one after a branch decay — is a reset no frame
// over those references represents, so the pair re-runs from reset on its
// own tableau with the trial's hits in site order. A component with more
// than 64 random measurements always re-runs, and a branch with that many
// is not built. Every tier measures bit for bit what a per-trial tableau
// fed the same hits and picks would.

import (
	"math"
	"math/bits"
	"sort"
)

// siteKind is what a lattice hit draws after its gap, and what it does.
type siteKind uint8

const (
	site2q      siteKind = iota // a two-qubit op's Pauli: pick2, then Intn(3)
	site1q                      // a one-qubit op's Pauli: Intn(3)
	siteIdle                    // an idle qubit's decay: its coin, Intn(2); the pair re-runs
	siteSet                     // a decay on a Z-deterministic qubit: its coin; b is its outcome
	siteBranch                  // a decay on a random qubit: its coin; b is its branch
	siteReadout                 // a plan point's readout flip: nothing
)

// latticeSite is one error site of a compiled tableau program.
type latticeSite struct {
	inv  float64 // 1/ln(1−p), p the site's rate clamped to (0, 1]
	kind siteKind
	step int32 // compiled ops that run before its hits land
	a, b int32 // slots (b: a two-qubit op's second); a readout's plan index
}

// latticeHit is one hit of a shard's lattice, on site. what holds a
// Pauli's frame bits (X 1, Z 2, Y 3) or hitDecay plus the decay's coin.
type latticeHit struct {
	step, trial, slot, site int32
	what                    uint8
}

const hitDecay = 4

// pauliOf maps injectPauliT's Intn(3) (X, Y, Z) to frame bits.
var pauliOf = [3]uint8{1, 3, 2}

// frameOp is a compiled op for the frame pass (operands are slots) or for
// a component's tableau (operands are its bits); step is its index among
// all compiled ops.
type frameOp struct {
	kind       opKind
	a, b, step int32
}

// framePoint is a plan point's qubit: its component, its bit there, and
// its index among that component's points in plan order.
type framePoint struct {
	comp, bit, idx int32
}

// outcome is a plan point's noiseless outcome on a reference as an affine
// function of its component's random picks: correct (all picks 0) ^
// parity(dep & picks), or the pick of rank when the point is itself
// random (rank -1 when it is not).
type outcome struct {
	correct, rank int32
	dep           uint64
}

// slotPauli is one qubit of a Pauli on a component: its slot and frame
// bits (X 1, Z 2, Y 3).
type slotPauli struct {
	slot int32
	what uint8
}

// branch is what a random decay site moves a pair onto: g, the reference
// stabilizer that anticommutes with Z_q there, and the outcomes of the
// reference projected to Z_q = 0, per point of the component.
type branch struct {
	g   []slotPauli
	out []outcome
}

// framePlan is what every shard of a compiled tableau program reads;
// prepareFrames builds it.
type framePlan struct {
	sites  []latticeSite
	ops    []frameOp   // the ops that move a frame: H, S, S†, CX, CZ
	comps  [][]frameOp // per component, every op its tableau runs
	points []framePoint
	ref    [][]outcome // per component: its points' outcomes on the reference
	// branches are the siteBranch sites' references.
	branches []branch
	// measured lists the components with plan points, the only ones a
	// trial re-runs; perTrial marks those with more than 64 random
	// measurements, which re-run every trial.
	measured []int32
	perTrial []bool
}

// addSite appends an error site of rate p, unless it can never fire: p ≤ 0,
// −0 and NaN are dropped, and p above 1 is clamped to 1.
func (fp *framePlan) addSite(kind siteKind, p float64, step, a, b int) {
	if !(p > 0) {
		return
	}
	fp.sites = append(fp.sites, latticeSite{inv: 1 / math.Log1p(-min(p, 1)), kind: kind, step: int32(step), a: int32(a), b: int32(b)})
}

// prepareFrames is prepare for the tableau engine: the op lists the shards
// walk, the lattice's sites in compiled order — each op's at the count of
// ops run through it, a layer's idle ones after its last op, the readout
// ones last — the noiseless reference run, each plan point's correct bit
// and affine outcome, and each idle site's resolution.
func prepareFrames(cp *compiledProgram, plan []measPoint) {
	f, fp := cp.fac, &framePlan{comps: make([][]frameOp, len(cp.fac.sizes))}
	cp.frames = fp
	noisy, step := cp.noise.Enabled, 0
	for li := range cp.layers {
		cl := &cp.layers[li]
		for _, op := range cl.ops {
			switch op.kind {
			case opH, opS, opSdg, opCX, opCZ:
				fp.ops = append(fp.ops, frameOp{op.kind, int32(op.a), int32(op.b), int32(step)})
			}
			if op.kind != opSWAP {
				c := f.comp[op.a]
				fp.comps[c] = append(fp.comps[c], frameOp{op.kind, int32(f.bit[op.a]), int32(f.bit[op.b]), int32(step)})
			}
			step++
			if !noisy {
				continue
			}
			kind, draws := site1q, 1
			if op.kind.twoQubit() {
				kind = site2q
			}
			if op.kind == opSWAP {
				draws = 3 // three physical CNOTs' worth of error
			}
			for range draws {
				fp.addSite(kind, op.err, step, op.a, op.b)
			}
		}
		if noisy {
			for _, q := range cl.idle {
				fp.addSite(siteIdle, cp.noise.IdleErrPerLayer, step, q, 0)
			}
		}
	}
	if noisy && cp.noise.Readout {
		for i := range plan {
			fp.addSite(siteReadout, plan[i].err, step, i, 0)
		}
	}

	fp.points = make([]framePoint, len(plan))
	measured := make([][]int32, len(f.sizes)) // per component: its points' bits, in plan order
	for i := range plan {
		c, b := f.comp[plan[i].q], int32(f.bit[plan[i].q])
		fp.points[i] = framePoint{comp: int32(c), bit: b, idx: int32(len(measured[c]))}
		measured[c] = append(measured[c], b)
	}
	ref := newStabilizer(f)
	cp.runGates(ref)
	fp.ref = make([][]outcome, len(f.sizes))
	fp.perTrial = make([]bool, len(f.sizes))
	for c, bits := range measured {
		if len(bits) > 0 {
			fp.measured = append(fp.measured, int32(c))
			var ok bool
			fp.ref[c], ok = outcomes(ref.comps[c], newPtab(f.sizes[c]), bits)
			fp.perTrial[c] = !ok
		}
	}
	for i, pt := range fp.points {
		plan[i].correct = int(fp.ref[pt.comp][pt.idx].correct)
	}
	resolveDecays(cp, measured)
}

// outcomes measures a component's points, bits in plan order, on copies
// of tab made in work, the j-th random outcome picked as bit j of picks:
// once with every pick 0, which gives each point's correct bit and each
// random point's rank, then once per pick with that pick alone set.
// Outcomes are affine over GF(2) in the picks, so that gives each point's
// dep. It reports false, with the correct bits only, when more than 64
// outcomes are random.
func outcomes(tab, work *ptab, bits []int32) ([]outcome, bool) {
	out := make([]outcome, len(bits))
	var picks uint64
	drawn := 0
	pick := func() bool { b := picks>>uint(drawn)&1 == 1; drawn++; return b }
	work.copyFrom(tab)
	for n, q := range bits {
		before := drawn
		out[n] = outcome{correct: int32(work.measure(int(q), pick)), rank: -1}
		if drawn > before {
			out[n].rank = int32(before)
		}
	}
	random := drawn
	if random > 64 {
		return out, false
	}
	for k := range random {
		picks, drawn = 1<<uint(k), 0
		work.copyFrom(tab)
		for n, q := range bits {
			out[n].dep |= uint64(work.measure(int(q), pick)^int(out[n].correct)) << uint(k)
		}
	}
	return out, true
}

// resolveDecays walks the reference op by op and resolves each idle site
// of a measured component that does not re-run every trial, at its step:
// a qubit the reference holds in a Z eigenstate makes it a siteSet with
// that outcome; a random one a siteBranch, with the pivot row as g and
// the projected reference's outcomes, unless those have more than 64
// random picks. A slot's random sites share one branch until its
// component's next op, which is all a branch depends on. Every other idle
// site stays a siteIdle.
func resolveDecays(cp *compiledProgram, measured [][]int32) {
	f, fp := cp.fac, cp.frames
	slots := make([][]int32, len(f.sizes)) // per component: each bit's slot
	for c, k := range f.sizes {
		slots[c] = make([]int32, k)
	}
	for s, c := range f.comp {
		slots[c][f.bit[s]] = int32(s)
	}
	ref := newStabilizer(f)
	proj, work := make([]*ptab, len(f.sizes)), make([]*ptab, len(f.sizes))
	zero := func() bool { return false }
	// A slot's branch holds until its component's next op: ran counts each
	// component's ops run, last each slot's branch and the count it was
	// built at.
	ran := make([]int, len(f.sizes))
	type built struct{ ran, b int }
	last := make([]built, len(f.slot))
	for s := range last {
		last[s].ran = -1
	}
	e, step := 0, 0
	resolve := func() {
		for ; e < len(fp.sites) && int(fp.sites[e].step) <= step; e++ {
			st := &fp.sites[e]
			c := f.comp[st.a]
			if st.kind != siteIdle || len(measured[c]) == 0 || fp.perTrial[c] {
				continue
			}
			if l := last[st.a]; l.ran == ran[c] {
				st.kind, st.b = siteBranch, int32(l.b)
				continue
			}
			tb, q := ref.at(int(st.a))
			p := tb.pivot(q)
			if p < 0 {
				st.kind, st.b = siteSet, int32(tb.deterministic(q))
				continue
			}
			var br branch
			pw, pb := p>>6, uint(p&63)
			for j, slot := range slots[c] {
				x, z := tb.col(tb.x, j)[pw]>>pb&1, tb.col(tb.z, j)[pw]>>pb&1
				if x|z != 0 {
					br.g = append(br.g, slotPauli{slot, uint8(x | z<<1)})
				}
			}
			if proj[c] == nil {
				proj[c], work[c] = newPtab(f.sizes[c]), newPtab(f.sizes[c])
			}
			pr, ops := proj[c], fp.comps[c]
			pr.copyFrom(tb)
			pr.measure(q, zero)
			for _, op := range ops[sort.Search(len(ops), func(i int) bool { return int(ops[i].step) >= step }):] {
				pr.apply(op.kind, int(op.a), int(op.b))
			}
			var ok bool
			if br.out, ok = outcomes(pr, work[c], measured[c]); ok {
				st.kind, st.b = siteBranch, int32(len(fp.branches))
				last[st.a] = built{ran[c], len(fp.branches)}
				fp.branches = append(fp.branches, br)
			}
		}
	}
	for li := range cp.layers {
		for _, op := range cp.layers[li].ops {
			resolve()
			tb, a := ref.at(op.a)
			tb.apply(op.kind, a, ref.bit[op.b])
			if op.kind != opSWAP {
				ran[f.comp[op.a]]++
			}
			step++
		}
	}
	resolve()
}

// pauliFrames is the tableau engine's shard register: the shard's lattice
// and frames, and a tableau per component for the pairs that re-run.
type pauliFrames struct {
	f *factoring
	// x and z hold each slot's frame bits, ⌈n/64⌉ words per slot; dec each
	// component's re-run trials and ro each plan point's readout flips,
	// laid out alike.
	x, z, dec, ro []uint64
	// br holds each measured (component, trial) pair's branch plus one, 0
	// when it is on the reference, at component*shardTrials + trial.
	br            []int32
	hits, byTrial []latticeHit
	ends          []int32     // trial t's hits are byTrial[ends[t-1]:ends[t]]
	tabs          []*ptab     // per measured component
	rerun         []bool      // per component: this trial runs on its tableau
	table         [][]outcome // per component: the outcomes this trial reads
	picks         []uint64    // per component: this trial's picks, each ^ its frame bit
	out           []int       // this trial's outcome per plan point
	wrong         []int
}

func newPauliFrames(cp *compiledProgram, progs int) *pauliFrames {
	f := cp.fac
	const w = shardTrials / 64
	r := &pauliFrames{f: f,
		x: make([]uint64, len(f.slot)*w), z: make([]uint64, len(f.slot)*w),
		dec: make([]uint64, len(f.sizes)*w), ro: make([]uint64, len(cp.frames.points)*w),
		br:   make([]int32, len(f.sizes)*shardTrials),
		ends: make([]int32, shardTrials+1), tabs: make([]*ptab, len(f.sizes)),
		rerun: make([]bool, len(f.sizes)), table: make([][]outcome, len(f.sizes)), picks: make([]uint64, len(f.sizes)),
		out: make([]int, len(cp.frames.points)), wrong: make([]int, progs)}
	for _, c := range cp.frames.measured {
		r.tabs[c] = newPtab(f.sizes[c])
	}
	return r
}

func (r *pauliFrames) shard(cp *compiledProgram, plan []measPoint, n int, rng *stream, succ []int) {
	r.sample(cp, n, rng)
	r.propagate(cp.frames, n)
	for t := range n {
		r.measure(cp, plan, n, t, rng)
		clear(r.wrong)
		for i := range plan {
			r.wrong[plan[i].prog] |= r.out[i] ^ plan[i].correct
		}
		for p, bad := range r.wrong {
			if bad == 0 {
				succ[p]++
			}
		}
	}
}

// sample draws the shard's lattice over its n trials: the hits in site
// order (a trial's in byTrial too), the branch and re-run pairs and the
// readout flips.
func (r *pauliFrames) sample(cp *compiledProgram, n int, rng *stream) {
	fp, words := cp.frames, (n+63)>>6
	r.hits = r.hits[:0]
	clear(r.dec)
	clear(r.ro)
	for _, c := range fp.measured {
		clear(r.br[int(c)*shardTrials : int(c)*shardTrials+n])
	}
	for i := range fp.sites {
		st := &fp.sites[i]
		for t := 0; t < n; t++ {
			g := math.Log(1-rng.Float64()) * st.inv
			if !(g < float64(n-t)) {
				break
			}
			t += int(g)
			w, bit := t>>6, uint64(1)<<uint(t&63)
			h := latticeHit{step: st.step, trial: int32(t), slot: st.a, site: int32(i)}
			switch st.kind {
			case site2q:
				h.slot = int32(pick2(int(st.a), int(st.b), rng))
				h.what = pauliOf[rng.Intn(3)]
			case site1q:
				h.what = pauliOf[rng.Intn(3)]
			case siteReadout:
				r.ro[int(st.a)*words+w] |= bit
				continue
			default:
				// A decay re-runs its pair when it has no frame update or
				// follows the pair's branch decay; the first branch decay
				// moves the pair onto its branch.
				h.what = hitDecay | uint8(rng.Intn(2))
				c := r.f.comp[st.a]
				switch br := &r.br[c*shardTrials+t]; {
				case st.kind == siteIdle || *br != 0:
					r.dec[c*words+w] |= bit
				case st.kind == siteBranch:
					*br = st.b + 1
				}
			}
			r.hits = append(r.hits, h)
		}
	}
	// Group the hits by trial, each trial's still in site order.
	ends := r.ends[:n+1]
	clear(ends)
	for _, h := range r.hits {
		ends[h.trial+1]++
	}
	for t := range n {
		ends[t+1] += ends[t]
	}
	r.byTrial = append(r.byTrial[:0], r.hits...)
	for _, h := range r.hits {
		r.byTrial[ends[h.trial]] = h
		ends[h.trial]++
	}
}

// propagate runs the frame pass: every frame starts at the identity, each
// op moves the frames of its slots (64 trials a word) and each hit acts on
// its trial's bits where it lands — a Pauli flips them, a siteSet decay
// sets the X bit to the reference's outcome, and a siteBranch decay
// multiplies the frame by its g when coin ⊕ x_q is 1, then flips x_q by
// the coin. A siteIdle decay leaves the frame alone, and a re-run pair's
// frame is never read, whatever its decays did to it. SWAP was lowered to
// a relabel and X, Y, Z leave a frame alone.
func (r *pauliFrames) propagate(fp *framePlan, n int) {
	words := (n + 63) >> 6
	x, z := r.x[:len(r.f.slot)*words], r.z[:len(r.f.slot)*words]
	clear(x)
	clear(z)
	hits, e := r.hits, 0
	flip := func(h latticeHit) {
		tw, bit := int(h.trial>>6), uint64(1)<<uint(h.trial&63)
		i := int(h.slot)*words + tw
		if h.what < hitDecay {
			if h.what&1 != 0 {
				x[i] ^= bit
			}
			if h.what&2 != 0 {
				z[i] ^= bit
			}
			return
		}
		switch st := &fp.sites[h.site]; st.kind {
		case siteSet:
			x[i] = x[i]&^bit | -uint64(st.b)&bit
		case siteBranch:
			coin := -uint64(h.what&1) & bit
			if (x[i]^coin)&bit != 0 {
				for _, g := range fp.branches[st.b].g {
					j := int(g.slot)*words + tw
					x[j] ^= -uint64(g.what&1) & bit
					z[j] ^= -uint64(g.what>>1) & bit
				}
			}
			x[i] ^= coin
		}
	}
	for _, op := range fp.ops {
		for ; e < len(hits) && hits[e].step <= op.step; e++ {
			flip(hits[e])
		}
		a := int(op.a) * words
		xa, za := x[a:a+words], z[a:a+words]
		switch op.kind {
		case opH:
			for w := range xa {
				xa[w], za[w] = za[w], xa[w]
			}
		case opS, opSdg:
			for w := range xa {
				za[w] ^= xa[w]
			}
		case opCX:
			b := int(op.b) * words
			xb, zb := x[b:b+words], z[b:b+words]
			for w := range xa {
				xb[w] ^= xa[w]
				za[w] ^= zb[w]
			}
		case opCZ:
			b := int(op.b) * words
			xb, zb := x[b:b+words], z[b:b+words]
			for w := range xa {
				za[w] ^= xb[w]
				zb[w] ^= xa[w]
			}
		}
	}
	for ; e < len(hits); e++ {
		flip(hits[e])
	}
}

// measure fills r.out with trial t's outcomes, readout flips included,
// drawing its picks from rng: a re-run pair measures its tableau, any
// other point reads its reference's affine outcome — the branch's for a
// pair on one — and its frame's X bit.
func (r *pauliFrames) measure(cp *compiledProgram, plan []measPoint, n, t int, rng *stream) {
	fp, words := cp.frames, (n+63)>>6
	w, sh := t>>6, uint(t&63)
	lo := int32(0)
	if t > 0 {
		lo = r.ends[t-1]
	}
	for _, c := range fp.measured {
		r.rerun[c] = fp.perTrial[c] || r.dec[int(c)*words+w]>>sh&1 != 0
		r.table[c] = fp.ref[c]
		if r.rerun[c] {
			r.replay(fp, int(c), r.byTrial[lo:r.ends[t]])
		} else if b := r.br[int(c)*shardTrials+t]; b != 0 {
			r.table[c] = fp.branches[b-1].out
		}
	}
	clear(r.picks)
	for i := range plan {
		pt, b := &fp.points[i], 0
		xb := int(r.x[plan[i].q*words+w] >> sh & 1)
		if r.rerun[pt.comp] {
			b = r.tabs[pt.comp].measureT(int(pt.bit), rng)
		} else if o := &r.table[pt.comp][pt.idx]; o.rank >= 0 {
			b = rng.Intn(2)
			r.picks[pt.comp] |= uint64(b^xb) << uint(o.rank)
		} else {
			b = int(o.correct) ^ bits.OnesCount64(o.dep&r.picks[pt.comp])&1 ^ xb
		}
		r.out[i] = b ^ int(r.ro[i*words+w]>>sh&1)
	}
}

// replay re-runs component c's trial from reset on its tableau: its ops,
// with the trial's hits on it in site order, each decay resolved by its
// coin.
func (r *pauliFrames) replay(fp *framePlan, c int, hits []latticeHit) {
	tb, e := r.tabs[c], 0
	tb.reset()
	hit := func(h latticeHit) {
		if r.f.comp[h.slot] != c {
			return
		}
		q := r.f.bit[h.slot]
		switch h.what {
		case 1:
			tb.xg(q)
		case 3:
			tb.yg(q)
		case 2:
			tb.zg(q)
		default:
			tb.decayT(q, coin(h.what&1))
		}
	}
	for _, op := range fp.comps[c] {
		for ; e < len(hits) && hits[e].step <= op.step; e++ {
			hit(hits[e])
		}
		tb.apply(op.kind, int(op.a), int(op.b))
	}
	for ; e < len(hits); e++ {
		hit(hits[e])
	}
}

// coin is a decay's pre-drawn outcome, fed to the tableau's pick as a prng
// whose every draw returns it.
type coin uint8

func (c coin) Intn(int) int     { return int(c) }
func (c coin) Float64() float64 { return float64(c) }
