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
//     geometric gaps ⌊ln(1−U)·inv⌋, inv = 1/ln(1−p), land on; each hit
//     then draws its payload: pick2 and Intn(3) for a two-qubit op's
//     Pauli, Intn(3) for a one-qubit op's, the decay's coin Intn(2) for an
//     idle site, nothing for a readout flip.
//   - Picks. Trial by trial, one Intn(2) per random measurement in plan
//     order. With noise off there are no sites and this is the per-trial
//     tableau's draw sequence exactly.
//
// A (trial, component) pair takes one of three tiers. Clean: no hit, the
// outcomes are the reference's affine function of the trial's picks.
// Frame-only: Pauli hits, which the frame carries through the gates and
// which flip the outcomes their X part reaches. Decayed: a decay is a
// reset, which no Pauli frame represents, so the pair re-runs from reset on
// its own tableau with the trial's hits in site order. A component with
// more than 64 random measurements always re-runs. Every tier measures bit
// for bit what a per-trial tableau fed the same hits and picks would.

import (
	"math"
	"math/bits"
)

// siteKind is what a lattice hit draws after its gap, and what it does.
type siteKind uint8

const (
	site2q      siteKind = iota // a two-qubit op's Pauli: pick2, then Intn(3)
	site1q                      // a one-qubit op's Pauli: Intn(3)
	siteIdle                    // an idle qubit's decay: its coin, Intn(2)
	siteReadout                 // a plan point's readout flip: nothing
)

// latticeSite is one error site of a compiled tableau program.
type latticeSite struct {
	inv  float64 // 1/ln(1−p), p the site's rate clamped to (0, 1]
	kind siteKind
	step int32 // compiled ops that run before its hits land
	a, b int32 // slots (b: a two-qubit op's second); a readout's plan index
}

// latticeHit is one hit of a shard's lattice. what holds a Pauli's frame
// bits (X 1, Z 2, Y 3) or hitDecay plus the decay's coin.
type latticeHit struct {
	step, trial, slot int32
	what              uint8
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

// framePoint is a plan point's noiseless outcome as an affine function of
// its component's random picks: its correct bit (all picks 0) ^
// parity(dep & picks), or the pick of rank when the point is itself
// random (rank -1 when it is not).
type framePoint struct {
	comp, bit, rank int32
	dep             uint64
}

// framePlan is what every shard of a compiled tableau program reads:
// compileLayers fills in the op and idle sites, prepare the rest.
type framePlan struct {
	sites  []latticeSite
	ops    []frameOp   // the ops that move a frame: H, S, S†, CX, CZ
	comps  [][]frameOp // per component, every op its tableau runs
	points []framePoint
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

// prepareFrames is prepare for the tableau engine: the noiseless reference
// run, each plan point's correct bit and affine outcome, the readout sites
// and the op lists the shards walk.
func prepareFrames(cp *compiledProgram, plan []measPoint) {
	f, fp := cp.fac, cp.frames
	step := 0
	fp.comps = make([][]frameOp, len(f.sizes))
	for li := range cp.layers {
		for _, op := range cp.layers[li].ops {
			switch op.kind {
			case opH, opS, opSdg, opCX, opCZ:
				fp.ops = append(fp.ops, frameOp{op.kind, int32(op.a), int32(op.b), int32(step)})
			}
			if op.kind != opSWAP {
				c := f.comp[op.a]
				fp.comps[c] = append(fp.comps[c], frameOp{op.kind, int32(f.bit[op.a]), int32(f.bit[op.b]), int32(step)})
			}
			step++
		}
	}
	if cp.noise.Enabled && cp.noise.Readout {
		for i := range plan {
			fp.addSite(siteReadout, plan[i].err, step, i, 0)
		}
	}

	ref := newStabilizer(f)
	cp.runGates(ref)
	fp.points = make([]framePoint, len(plan))
	fp.perTrial = make([]bool, len(f.sizes))
	byComp := make([][]int, len(f.sizes)) // plan indices, in plan order
	for i := range plan {
		c := f.comp[plan[i].q]
		byComp[c] = append(byComp[c], i)
		fp.points[i] = framePoint{comp: int32(c), bit: int32(f.bit[plan[i].q]), rank: -1}
	}
	for c, pts := range byComp {
		if len(pts) == 0 {
			continue
		}
		fp.measured = append(fp.measured, int32(c))
		// One pass measures c's points in plan order on a copy of the
		// reference, the j-th random outcome picked as bit j of picks.
		work, out := newPtab(f.sizes[c]), make([]int, len(pts))
		var picks uint64
		drawn := 0
		pick := func() bool { b := picks>>uint(drawn)&1 == 1; drawn++; return b }
		pass := func(p uint64) {
			picks, drawn = p, 0
			work.copyFrom(ref.comps[c])
			for n, i := range pts {
				before := drawn
				out[n] = work.measure(int(fp.points[i].bit), pick)
				if p == 0 && drawn > before && drawn <= 64 {
					fp.points[i].rank = int32(before)
				}
			}
		}
		pass(0)
		for n, i := range pts {
			plan[i].correct = out[n]
		}
		if fp.perTrial[c] = drawn > 64; fp.perTrial[c] {
			continue
		}
		for k := range drawn {
			pass(1 << uint(k))
			for n, i := range pts {
				fp.points[i].dep |= uint64(out[n]^plan[i].correct) << uint(k)
			}
		}
	}
}

// pauliFrames is the tableau engine's shard register: the shard's lattice
// and frames, and a tableau per component for the pairs that re-run.
type pauliFrames struct {
	f *factoring
	// x and z hold each slot's frame bits, ⌈n/64⌉ words per slot; dec each
	// component's decayed trials and ro each plan point's readout flips,
	// laid out alike.
	x, z, dec, ro []uint64
	hits, byTrial []latticeHit
	ends          []int32  // trial t's hits are byTrial[ends[t-1]:ends[t]]
	tabs          []*ptab  // per measured component
	rerun         []bool   // per component: this trial runs on its tableau
	picks         []uint64 // per component: this trial's picks, each ^ its frame bit
	out           []int    // this trial's outcome per plan point
	wrong         []int
}

func newPauliFrames(cp *compiledProgram, progs int) *pauliFrames {
	f := cp.fac
	const w = shardTrials / 64
	r := &pauliFrames{f: f,
		x: make([]uint64, len(f.slot)*w), z: make([]uint64, len(f.slot)*w),
		dec: make([]uint64, len(f.sizes)*w), ro: make([]uint64, len(cp.frames.points)*w),
		ends: make([]int32, shardTrials+1), tabs: make([]*ptab, len(f.sizes)),
		rerun: make([]bool, len(f.sizes)), picks: make([]uint64, len(f.sizes)),
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
// order (a trial's in byTrial too), the decayed pairs and the readout
// flips.
func (r *pauliFrames) sample(cp *compiledProgram, n int, rng *stream) {
	fp, words := cp.frames, (n+63)>>6
	r.hits = r.hits[:0]
	clear(r.dec)
	clear(r.ro)
	for i := range fp.sites {
		st := &fp.sites[i]
		for t := 0; t < n; t++ {
			g := math.Log(1-rng.Float64()) * st.inv
			if !(g < float64(n-t)) {
				break
			}
			t += int(g)
			w, bit := t>>6, uint64(1)<<uint(t&63)
			h := latticeHit{step: st.step, trial: int32(t), slot: st.a}
			switch st.kind {
			case site2q:
				h.slot = int32(pick2(int(st.a), int(st.b), rng))
				h.what = pauliOf[rng.Intn(3)]
			case site1q:
				h.what = pauliOf[rng.Intn(3)]
			case siteIdle:
				h.what = hitDecay | uint8(rng.Intn(2))
				r.dec[r.f.comp[st.a]*words+w] |= bit
			case siteReadout:
				r.ro[int(st.a)*words+w] |= bit
				continue
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
// op moves the frames of its slots (64 trials a word) and each Pauli hit
// flips its trial's bits where it lands. SWAP was lowered to a relabel and
// X, Y, Z leave a frame alone.
func (r *pauliFrames) propagate(fp *framePlan, n int) {
	words := (n + 63) >> 6
	x, z := r.x[:len(r.f.slot)*words], r.z[:len(r.f.slot)*words]
	clear(x)
	clear(z)
	hits, e := r.hits, 0
	flip := func(h latticeHit) {
		if h.what >= hitDecay {
			return
		}
		i, bit := int(h.slot)*words+int(h.trial>>6), uint64(1)<<uint(h.trial&63)
		if h.what&1 != 0 {
			x[i] ^= bit
		}
		if h.what&2 != 0 {
			z[i] ^= bit
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
// other point reads the reference's affine outcome and its frame's X bit.
func (r *pauliFrames) measure(cp *compiledProgram, plan []measPoint, n, t int, rng *stream) {
	fp, words := cp.frames, (n+63)>>6
	w, sh := t>>6, uint(t&63)
	lo := int32(0)
	if t > 0 {
		lo = r.ends[t-1]
	}
	for _, c := range fp.measured {
		r.rerun[c] = fp.perTrial[c] || r.dec[int(c)*words+w]>>sh&1 != 0
		if r.rerun[c] {
			r.replay(fp, int(c), r.byTrial[lo:r.ends[t]])
		}
	}
	clear(r.picks)
	for i := range plan {
		pt, b := &fp.points[i], 0
		switch xb := int(r.x[plan[i].q*words+w] >> sh & 1); {
		case r.rerun[pt.comp]:
			b = r.tabs[pt.comp].measureT(int(pt.bit), rng)
		case pt.rank >= 0:
			b = rng.Intn(2)
			r.picks[pt.comp] |= uint64(b^xb) << uint(pt.rank)
		default:
			b = plan[i].correct ^ bits.OnesCount64(pt.dep&r.picks[pt.comp])&1 ^ xb
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
