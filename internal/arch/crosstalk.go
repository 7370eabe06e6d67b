package arch

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// EdgePair is an ordered pair of coupling links keying the pairwise
// crosstalk matrix: the entry for {Victim, Aggressor} is E(g_i|g_j),
// the conditional error rate of a CNOT on Victim while a simultaneous
// CNOT runs on Aggressor. Both edges are normalized (U <= V, as
// graph.NewEdge produces), so lookups are orientation-independent.
type EdgePair struct {
	Victim    graph.Edge
	Aggressor graph.Edge
}

// NewEdgePair normalizes both links of an ordered (victim, aggressor)
// pair so that either orientation of either link keys the same entry.
func NewEdgePair(vu, vv, au, av int) EdgePair {
	return EdgePair{Victim: graph.NewEdge(vu, vv), Aggressor: graph.NewEdge(au, av)}
}

// CrosstalkMatrix is the sparse pairwise crosstalk calibration: ordered
// link pairs mapped to the conditional CNOT error E(victim|aggressor)
// measured (or synthesized) under simultaneous execution, as
// Simultaneous Randomized Benchmarking reports it. Pairs absent from
// the matrix are benign: their conditional error is the link's base
// CNOT error. A nil or empty matrix means "not characterized" and every
// consumer falls back to its scalar crosstalk model.
type CrosstalkMatrix map[EdgePair]float64

// Clone returns a deep copy (nil stays nil).
func (m CrosstalkMatrix) Clone() CrosstalkMatrix {
	if m == nil {
		return nil
	}
	out := make(CrosstalkMatrix, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// SortedPairs returns the matrix keys in deterministic order (victim
// edge, then aggressor edge) for serialization and reproducible sweeps.
func (m CrosstalkMatrix) SortedPairs() []EdgePair {
	pairs := make([]EdgePair, 0, len(m))
	for p := range m {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool { return lessEdgePair(pairs[i], pairs[j]) })
	return pairs
}

func lessEdge(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

func lessEdgePair(a, b EdgePair) bool {
	if a.Victim != b.Victim {
		return lessEdge(a.Victim, b.Victim)
	}
	return lessEdge(a.Aggressor, b.Aggressor)
}

// HasCrosstalk reports whether the device carries a pairwise crosstalk
// matrix. When false, every consumer (the simulator, the analytic ESP,
// CDAP, the scheduler's co-location test) uses its scalar fallback and
// behaves exactly as it did before matrices existed.
func (d *Device) HasCrosstalk() bool { return len(d.Crosstalk) > 0 }

// CrosstalkErr returns the conditional CNOT error E(victim|aggressor)
// and whether the pair is characterized. Both edges may be given in
// either orientation.
func (d *Device) CrosstalkErr(victim, aggressor graph.Edge) (float64, bool) {
	v, ok := d.Crosstalk[EdgePair{Victim: graph.NewEdge(victim.U, victim.V), Aggressor: graph.NewEdge(aggressor.U, aggressor.V)}]
	return v, ok
}

// CrosstalkRatio returns E(victim|aggressor) / E(victim): 1 for
// uncharacterized pairs or zero base error. Ratios well above 1 mark
// hostile pairs; ratios near 1 are benign.
func (d *Device) CrosstalkRatio(victim, aggressor graph.Edge) float64 {
	cond, ok := d.CrosstalkErr(victim, aggressor)
	if !ok {
		return 1
	}
	base := d.CNOTErr[graph.NewEdge(victim.U, victim.V)]
	if base <= 0 {
		return 1
	}
	return cond / base
}

// HostilePairs returns the characterized pairs whose conditional-error
// ratio E(v|a)/E(v) is at or above the threshold, in deterministic
// order. Niu & Todri-Sanial use a similar cutoff to decide which link
// pairs must never fire simultaneously.
func (d *Device) HostilePairs(ratio float64) []EdgePair {
	var out []EdgePair
	for _, p := range d.Crosstalk.SortedPairs() {
		if d.CrosstalkRatio(p.Victim, p.Aggressor) >= ratio {
			out = append(out, p)
		}
	}
	return out
}

// Worst2qErrUnder returns the effective CNOT error of the victim link
// while any of the busy links fires simultaneously: the worst of the
// base error and every characterized conditional error E(victim|b) for
// b in busy. Uncharacterized pairs contribute nothing (benign). With no
// matrix it degenerates to the base error.
func (d *Device) Worst2qErrUnder(victim graph.Edge, busy []graph.Edge) float64 {
	v := graph.NewEdge(victim.U, victim.V)
	worst := d.CNOTError(v.U, v.V)
	for _, b := range busy {
		bn := graph.NewEdge(b.U, b.V)
		if bn == v {
			continue // a link is not its own aggressor
		}
		if cond, ok := d.Crosstalk[EdgePair{Victim: v, Aggressor: bn}]; ok && cond > worst {
			worst = cond
		}
	}
	return worst
}

// AdjacentEdgePairs enumerates the ordered (victim, aggressor) pairs of
// distinct, qubit-disjoint coupling links with at least one coupled
// endpoint pair — exactly the pairs whose CNOTs the hardware can fire
// in the same layer close enough to interfere. (Links sharing a qubit
// can never fire simultaneously, so they are excluded.) The order is
// deterministic: victim edge, then aggressor edge.
func (d *Device) AdjacentEdgePairs() []EdgePair {
	edges := d.Coupling.Edges()
	var out []EdgePair
	for _, v := range edges {
		for _, a := range edges {
			if v == a || sharesQubit(v, a) {
				continue
			}
			if edgesCoupled(d, v, a) {
				out = append(out, EdgePair{Victim: v, Aggressor: a})
			}
		}
	}
	return out
}

func sharesQubit(a, b graph.Edge) bool {
	return a.U == b.U || a.U == b.V || a.V == b.U || a.V == b.V
}

func edgesCoupled(d *Device, a, b graph.Edge) bool {
	for _, x := range [2]int{a.U, a.V} {
		for _, y := range [2]int{b.U, b.V} {
			if d.Coupling.HasEdge(x, y) {
				return true
			}
		}
	}
	return false
}

// Crosstalk-generation parameters: most adjacent pairs on real chips
// are benign (conditional error within ~1.4x of the base rate); a small
// fraction are hostile with conditional errors several times the base,
// the structure Simultaneous Randomized Benchmarking surfaces.
const (
	// BenignRatioLo/Hi bound the conditional/base error ratio of a
	// benign pair.
	BenignRatioLo = 1.0
	BenignRatioHi = 1.4
	// HostileRatioLo/Hi bound a hostile pair's ratio.
	HostileRatioLo = 2.0
	HostileRatioHi = 5.0
	// HostilePairFrac is the fraction of adjacent pairs made hostile by
	// GenerateCrosstalk.
	HostilePairFrac = 0.1
	// MaxCondErr caps conditional error rates so they stay valid
	// probabilities with headroom.
	MaxCondErr = 0.8
)

// GenerateCrosstalk produces a deterministic synthetic pairwise
// crosstalk matrix for the device's current calibration: every ordered
// adjacent link pair gets a conditional error drawn as base error times
// a ratio — benign for most pairs, hostile (HostileRatioLo..Hi) for a
// seeded ~10% — mirroring how GenerateCalibration plants weak links.
// Hostility is decided per unordered pair so E(i|j) and E(j|i) are
// elevated together (interference is mutual even when asymmetric in
// magnitude).
func GenerateCrosstalk(d *Device, seed int64) CrosstalkMatrix {
	return generateCrosstalk(d, seed, HostilePairFrac, HostileRatioLo, HostileRatioHi)
}

// GenerateHostileCrosstalk is GenerateCrosstalk with the hostile-pair
// fraction and ratio range under caller control; experiments use it to
// synthesize adversarial chips where co-location placement matters.
func GenerateHostileCrosstalk(d *Device, seed int64, hostileFrac, ratioLo, ratioHi float64) CrosstalkMatrix {
	if hostileFrac < 0 {
		hostileFrac = 0
	}
	if hostileFrac > 1 {
		hostileFrac = 1
	}
	if ratioHi < ratioLo {
		ratioHi = ratioLo
	}
	return generateCrosstalk(d, seed, hostileFrac, ratioLo, ratioHi)
}

func generateCrosstalk(d *Device, seed int64, hostileFrac, ratioLo, ratioHi float64) CrosstalkMatrix {
	rng := rand.New(rand.NewSource(seed*1099511628211 + 41))
	uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	pairs := d.AdjacentEdgePairs()
	// First pass: decide hostility per unordered pair, in deterministic
	// pair order (victim < aggressor picks the canonical orientation).
	hostile := map[EdgePair]bool{}
	for _, p := range pairs {
		if !lessEdge(p.Victim, p.Aggressor) {
			continue
		}
		if rng.Float64() < hostileFrac {
			hostile[p] = true
		}
	}
	out := make(CrosstalkMatrix, len(pairs))
	for _, p := range pairs {
		canon := p
		if !lessEdge(p.Victim, p.Aggressor) {
			canon = EdgePair{Victim: p.Aggressor, Aggressor: p.Victim}
		}
		lo, hi := BenignRatioLo, BenignRatioHi
		if hostile[canon] {
			lo, hi = ratioLo, ratioHi
		}
		cond := d.CNOTErr[p.Victim] * uniform(lo, hi)
		if cond > MaxCondErr {
			cond = MaxCondErr
		}
		out[p] = cond
	}
	return out
}

// validateCrosstalk checks matrix entries against the device: both
// links must exist in the coupling map, be normalized, qubit-disjoint,
// and carry a valid probability.
func validateCrosstalk(d *Device, m CrosstalkMatrix) error {
	for p, v := range m {
		for _, e := range [2]graph.Edge{p.Victim, p.Aggressor} {
			if e.U > e.V {
				return fmt.Errorf("arch: device %s: crosstalk pair %v has a non-normalized edge", d.Name, p)
			}
			if !d.Coupling.HasEdge(e.U, e.V) {
				return fmt.Errorf("arch: device %s: crosstalk pair %v references missing link %v", d.Name, p, e)
			}
		}
		if p.Victim == p.Aggressor || sharesQubit(p.Victim, p.Aggressor) {
			return fmt.Errorf("arch: device %s: crosstalk pair %v is not qubit-disjoint", d.Name, p)
		}
		if v < 0 || v >= 1 {
			return fmt.Errorf("arch: device %s: crosstalk pair %v error %v out of [0,1)", d.Name, p, v)
		}
	}
	return nil
}
