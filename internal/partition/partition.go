// Package partition assigns physical-qubit regions to concurrent quantum
// programs and produces their initial mappings. It implements the
// paper's CDAP partitioner (Algorithm 2) on top of the community
// hierarchy tree, the FRP baseline partitioner from Das et al.
// (MICRO'19), and the Greatest-Weighted-Edge-First initial-mapping
// policy both use within an allocated region.
package partition

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/graph"
)

// ErrNoRegion is returned when the partitioner cannot find a region for
// some program; callers revert to separate execution (Algorithm 2 line 9).
var ErrNoRegion = errors.New("partition: no feasible region for program")

// Assignment is one program's allocation.
type Assignment struct {
	// Program indexes the input program slice.
	Program int
	// Region is the sorted set of physical qubits granted to the
	// program (exactly the program's qubit count).
	Region []int
	// InitialMapping maps each logical qubit to its physical qubit.
	InitialMapping []int
}

// Result is a complete partition of the chip among programs, indexed by
// the original program order.
type Result struct {
	Assignments []Assignment
}

// shape is everything CDAP's region search reads of one program: its
// width, which sizes the region, and its two-qubit and single-qubit gate
// counts, which set the CNOT-density order and weight the EPST scoring
// (Equation 4). The name, the gate order and the interaction graph are
// read only by AllocateGWEF.
type shape struct{ qubits, cnots, gate1s int }

func shapesOf(progs []*circuit.Circuit) []shape {
	out := make([]shape, len(progs))
	for i, p := range progs {
		out[i] = shape{qubits: p.NumQubits, cnots: p.RawCNOTCount(), gate1s: p.Gate1Count()}
	}
	return out
}

// cnotDensity is the partitioning priority from Algorithm 2:
// (#CNOT instructions) / (#qubits).
func (s shape) cnotDensity() float64 {
	if s.qubits == 0 {
		return 0
	}
	return float64(s.cnots) / float64(s.qubits)
}

// byCNOTDensity returns program indices sorted by descending CNOT
// density (Algorithm 2 line 1); ties break toward more qubits, then
// original order, so results are deterministic.
func byCNOTDensity(shapes []shape) []int {
	idx := make([]int, len(shapes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		da, db := shapes[idx[a]].cnotDensity(), shapes[idx[b]].cnotDensity()
		//lint:ignore floateq exact tie-break keeps the comparator a strict weak order; an epsilon band would make "equal" intransitive
		if da != db {
			return da > db
		}
		return shapes[idx[a]].qubits > shapes[idx[b]].qubits
	})
	return idx
}

// CDAP partitions the device among the programs by walking the
// hierarchy tree bottom-up per program (highest CNOT density first),
// choosing for each the candidate community with the highest average
// fidelity, then mapping it inside the region with
// Greatest-Weighted-Edge-First. The tree must have been built for d.
//
// The region search is memoised per device calibration: its answer for
// an ordered list of program shapes (qubits, CNOTs, single-qubit gates)
// on a tree is computed once and reused until ApplyCalibration or
// InvalidateArtifacts retires it, so the scheduler's EPST checks and
// the accepted batch's compile share one walk. The initial mapping is
// not memoised: AllocateGWEF reads the program's interaction graph,
// which two programs of one shape need not share, and runs on every
// call. Every call returns fresh slices.
func CDAP(d *arch.Device, tree *community.Tree, progs []*circuit.Circuit) (*Result, error) {
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
	plan := cdapMemoFor(d, tree).plan(d, tree, shapesOf(progs))
	if plan.failed >= 0 {
		p := progs[plan.failed]
		return nil, fmt.Errorf("%w: program %q (%d qubits)", ErrNoRegion, p.Name, p.NumQubits)
	}
	res := &Result{Assignments: make([]Assignment, len(progs))}
	for pi, region := range plan.regions {
		res.Assignments[pi] = Assignment{Program: pi, Region: sortedCopy(region), InitialMapping: AllocateGWEF(d, progs[pi], region)}
	}
	return res, nil
}

// regionPlan is the region search's answer for one ordered list of
// program shapes: regions[i] is program i's region, or failed is the
// index of the first program, in placement order, that found none.
type regionPlan struct {
	regions [][]int // nil when failed >= 0
	failed  int     // -1 when every program was placed
}

// searchRegions is the uncached region search: per program, highest
// CNOT density first, the tree walk of cdapFindRegion, then Algorithm 2's
// bookkeeping (the region leaves the available set and isolated
// siblings are severed).
func searchRegions(d *arch.Device, tree *community.Tree, shapes []shape) *regionPlan {
	avail := make([]bool, d.NumQubits())
	for i := range avail {
		avail[i] = true
	}
	cut := map[*community.Node]bool{} // nodes severed from their parents

	regions := make([][]int, len(shapes))
	// placed accumulates the induced coupling links of already-assigned
	// regions. On devices with a pairwise crosstalk matrix, candidate
	// regions whose links are hostile to these neighbors score lower
	// (the busy links of Device.EPST), so CDAP steers later programs
	// away from placements that would interfere with earlier ones.
	// Without a matrix, placed is ignored and the walk is byte-identical
	// to the crosstalk-blind CDAP.
	var placed []graph.Edge
	for _, pi := range byCNOTDensity(shapes) {
		region, err := cdapFindRegion(d, tree, avail, cut, shapes[pi], placed)
		if err != nil {
			return &regionPlan{failed: pi}
		}
		for _, q := range region {
			avail[q] = false
		}
		if d.HasCrosstalk() {
			placed = append(placed, d.Coupling.InducedEdges(region)...)
		}
		regions[pi] = region
		pruneIsolatedSiblings(d, tree, avail, cut)
	}
	return &regionPlan{regions: regions, failed: -1}
}

// cdapMemoCap bounds one device calibration's region memo, so a stream
// of ever-new shape lists cannot grow it without limit. A full memo is
// cleared, not evicted entry by entry: a clear costs one search per list
// still in use.
const cdapMemoCap = 4096

// cdapMemo caches searchRegions per (tree, ordered shape list). It is a
// device artifact, so a recalibration starts an empty one; the tree is
// part of the key because a caller may hold a tree built for an older
// calibration. Concurrent misses on one key each search and store the
// same plan. Plans are shared and never mutated.
type cdapMemo struct {
	mu    sync.Mutex
	plans map[cdapKey]*regionPlan // guarded by mu
}

type cdapKey struct {
	tree   *community.Tree
	shapes string // the shapes' fields as uvarints, in program order
}

func cdapMemoFor(d *arch.Device, tree *community.Tree) *cdapMemo {
	return d.Artifact("partition/cdap", tree.Omega, func() any {
		return &cdapMemo{plans: map[cdapKey]*regionPlan{}}
	}).(*cdapMemo)
}

func (m *cdapMemo) plan(d *arch.Device, tree *community.Tree, shapes []shape) *regionPlan {
	b := make([]byte, 0, 3*binary.MaxVarintLen32*len(shapes))
	for _, s := range shapes {
		b = binary.AppendUvarint(b, uint64(s.qubits))
		b = binary.AppendUvarint(b, uint64(s.cnots))
		b = binary.AppendUvarint(b, uint64(s.gate1s))
	}
	key := cdapKey{tree: tree, shapes: string(b)}
	m.mu.Lock()
	plan, ok := m.plans[key]
	m.mu.Unlock()
	if ok {
		return plan
	}
	plan = searchRegions(d, tree, shapes)
	m.mu.Lock()
	if len(m.plans) >= cdapMemoCap {
		clear(m.plans)
	}
	m.plans[key] = plan
	m.mu.Unlock()
	return plan
}

// cdapFindRegion walks the tree from every available leaf upward to the
// first ancestor whose effective available set can host the program
// connectedly, then returns the best connected subset of the
// highest-estimated-fidelity candidate (Algorithm 2 lines 3-12, plus
// the redundant-qubit subsetting of §IV-A3). Fidelity is estimated with
// the program-aware EPST (Equation 4), so link reliability is weighted
// by how CNOT-heavy the program is. placed lists the coupling links of
// regions already granted to other programs: with a pairwise crosstalk
// matrix, EPST charges each candidate link its worst conditional
// error against those neighbors, penalizing hostile adjacency.
func cdapFindRegion(d *arch.Device, tree *community.Tree, avail []bool, cut map[*community.Node]bool, s shape, placed []graph.Edge) ([]int, error) {
	size := s.qubits
	type candidate struct {
		subset []int
		score  float64
	}
	var best *candidate
	seen := map[*community.Node]bool{}
	// score = region fidelity minus a small penalty per free qubit the
	// allocation would strand (leave with no free neighbor). The
	// penalty keeps later programs mappable without overriding large
	// fidelity differences; §IV-A3's redundant-qubit relabeling has the
	// same goal.
	score := func(subset []int) float64 {
		epst := d.EPST(subset, s.cnots, s.gate1s, s.qubits, placed)
		return epst - strandPenalty*float64(strandedAfter(d, avail, subset))
	}
	for q := 0; q < d.NumQubits(); q++ {
		if !avail[q] {
			continue
		}
		node := tree.Leaves[q]
		for node != nil {
			eff := effAvailable(node, avail, cut)
			if len(eff) >= size {
				found := false
				if !seen[node] {
					seen[node] = true
					if subset := bestConnectedSubset(d, avail, eff, s, placed); subset != nil {
						found = true
						if sc := score(subset); best == nil || sc > best.score {
							best = &candidate{subset: subset, score: sc}
						}
					}
				} else {
					found = true // evaluated via another leaf
				}
				if found {
					break
				}
				// Enough qubits but no connected subset (the node's
				// remainder is fragmented): keep climbing so a larger
				// ancestor can still host the program.
			}
			if cut[node] {
				break // severed from its parent (Algorithm 2 line 16)
			}
			node = node.Parent
		}
	}
	if best == nil {
		return nil, ErrNoRegion
	}
	return best.subset, nil
}

// effAvailable returns the node's qubits that are still available,
// excluding subtrees severed by the isolated-sibling rule.
func effAvailable(n *community.Node, avail []bool, cut map[*community.Node]bool) []int {
	if n.IsLeaf() {
		q := n.Qubits[0]
		if avail[q] {
			return []int{q}
		}
		return nil
	}
	var out []int
	if !cut[n.Left] {
		out = append(out, effAvailable(n.Left, avail, cut)...)
	}
	if !cut[n.Right] {
		out = append(out, effAvailable(n.Right, avail, cut)...)
	}
	return out
}

// pruneIsolatedSiblings applies Algorithm 2 lines 14-17: any node whose
// remaining qubits have no coupling link to available qubits outside the
// node is severed from its parent, so its qubits stop counting toward
// ancestor candidates (they remain usable via the node itself).
func pruneIsolatedSiblings(d *arch.Device, tree *community.Tree, avail []bool, cut map[*community.Node]bool) {
	for _, n := range tree.Nodes() {
		if cut[n] || n.Parent == nil {
			continue
		}
		eff := effAvailable(n, avail, cut)
		if len(eff) == 0 {
			continue
		}
		isolated := true
		inNode := map[int]bool{}
		for _, q := range n.Qubits {
			inNode[q] = true
		}
		for _, q := range eff {
			for _, nb := range d.Coupling.Neighbors(q) {
				if avail[nb] && !inNode[nb] {
					isolated = false
					break
				}
			}
			if !isolated {
				break
			}
		}
		if isolated {
			cut[n] = true
		}
	}
}

// strandedAfter counts the currently-available qubits outside subset
// that would be left with no available neighbor once subset is taken —
// qubits almost certainly wasted for every later program.
func strandedAfter(d *arch.Device, avail []bool, subset []int) int {
	taken := map[int]bool{}
	for _, q := range subset {
		taken[q] = true
	}
	stranded := 0
	for q := 0; q < d.NumQubits(); q++ {
		if !avail[q] || taken[q] {
			continue
		}
		hasFreeNbr := false
		for _, nb := range d.Coupling.Neighbors(q) {
			if avail[nb] && !taken[nb] {
				hasFreeNbr = true
				break
			}
		}
		if !hasFreeNbr {
			stranded++
		}
	}
	return stranded
}

// strandPenalty is the score deduction per free qubit an allocation
// would strand; small enough that sizeable fidelity gaps still dominate.
const strandPenalty = 0.01

// bestConnectedSubset returns the best connected subset of exactly the
// program's qubit count from pool, or nil when pool has no connected
// subset of that size. It greedily grows a set from each seed qubit,
// always taking the neighbor that maximizes the program's EPST so far,
// and keeps the seed whose result scores highest on EPST minus the
// stranding penalty (avail describes the chip's current free qubits).
// The greedy growth steps use the crosstalk-blind EPST for speed; only
// the final per-seed score charges conditional errors against placed —
// enough to choose a benign seed region when one exists.
func bestConnectedSubset(d *arch.Device, avail []bool, pool []int, s shape, placed []graph.Edge) []int {
	size, cnots, g1s := s.qubits, s.cnots, s.gate1s
	epst := func(set []int) float64 { return d.EPST(set, cnots, g1s, size, nil) }
	if size <= 0 {
		return []int{}
	}
	if len(pool) < size {
		return nil
	}
	inPool := map[int]bool{}
	for _, q := range pool {
		inPool[q] = true
	}
	var best []int
	bestScore := -1.0
	for _, seed := range pool {
		set := []int{seed}
		inSet := map[int]bool{seed: true}
		for len(set) < size {
			cand, candFid := -1, -1.0
			for _, q := range set {
				for _, nb := range d.Coupling.Neighbors(q) {
					if !inPool[nb] || inSet[nb] {
						continue
					}
					fid := epst(append(set, nb))
					if fid > candFid {
						cand, candFid = nb, fid
					}
				}
			}
			if cand < 0 {
				break // pool disconnected around this seed
			}
			set = append(set, cand)
			inSet[cand] = true
		}
		if len(set) == size {
			sc := d.EPST(set, cnots, g1s, size, placed) - strandPenalty*float64(strandedAfter(d, avail, set))
			if sc > bestScore {
				best, bestScore = sortedCopy(set), sc
			}
		}
	}
	return best
}

// AllocateGWEF maps a program's logical qubits onto the given physical
// region with the Greatest-Weighted-Edge-First policy (Murali et al.):
// the most frequently interacting logical pair goes to the region's most
// reliable link, and the mapping grows outward pairing hot logical
// qubits with reliable neighboring physical qubits. The region must
// contain exactly the program's qubit count.
func AllocateGWEF(d *arch.Device, p *circuit.Circuit, region []int) []int {
	if len(region) != p.NumQubits {
		panic(fmt.Sprintf("partition: region size %d != program qubits %d", len(region), p.NumQubits))
	}
	mapping := make([]int, p.NumQubits)
	for i := range mapping {
		mapping[i] = -1
	}
	if p.NumQubits == 0 {
		return mapping
	}
	inRegion := map[int]bool{}
	for _, q := range region {
		inRegion[q] = true
	}
	physFree := map[int]bool{}
	for _, q := range region {
		physFree[q] = true
	}

	ig := p.InteractionGraph()
	type wedge struct {
		u, v int
		w    float64
	}
	var edges []wedge
	for _, e := range ig.Edges() {
		edges = append(edges, wedge{e.U, e.V, ig.Weight(e.U, e.V)})
	}
	sort.SliceStable(edges, func(a, b int) bool { return edges[a].w > edges[b].w })

	// Most reliable physical link inside the region.
	bestLink := func() (int, int, bool) {
		bu, bv, brel := -1, -1, -1.0
		for _, e := range d.Coupling.InducedEdges(region) {
			if physFree[e.U] && physFree[e.V] {
				if rel := 1 - d.CNOTErr[e]; rel > brel {
					bu, bv, brel = e.U, e.V, rel
				}
			}
		}
		return bu, bv, bu >= 0
	}

	place := func(l, phys int) {
		mapping[l] = phys
		delete(physFree, phys)
	}

	// freeInOrder visits the still-free region qubits in region order, so
	// every tie-break below is deterministic (physFree is a map; ranging
	// over it directly would pick among equal candidates at random).
	freeInOrder := func(visit func(q int)) {
		for _, q := range region {
			if physFree[q] {
				visit(q)
			}
		}
	}

	// placeNear maps logical l onto the free region qubit closest to
	// anchor, preferring reliable direct links.
	placeNear := func(l, anchor int) {
		cand, candScore := -1, -1.0
		for _, nb := range d.Coupling.Neighbors(anchor) {
			if inRegion[nb] && physFree[nb] {
				if rel := d.CNOTReliability(anchor, nb); rel > candScore {
					cand, candScore = nb, rel
				}
			}
		}
		if cand >= 0 {
			place(l, cand)
			return
		}
		// No free neighbor: take the free region qubit with the fewest
		// hops to the anchor (first in region order on ties).
		hops := d.Hops()
		bestQ, bestHops := -1, 1<<30
		freeInOrder(func(q int) {
			if hops[anchor][q] >= 0 && hops[anchor][q] < bestHops {
				bestQ, bestHops = q, hops[anchor][q]
			}
		})
		if bestQ < 0 {
			// Region disconnected from anchor (can't happen for
			// connected regions, but stay total).
			freeInOrder(func(q int) {
				if bestQ < 0 {
					bestQ = q
				}
			})
		}
		place(l, bestQ)
	}

	for _, e := range edges {
		mu, mv := mapping[e.u] >= 0, mapping[e.v] >= 0
		switch {
		case mu && mv:
			continue
		case !mu && !mv:
			if pu, pv, ok := bestLink(); ok {
				// Orient: heavier-degree logical qubit on the
				// better-connected physical qubit.
				if ig.Degree(e.u) >= ig.Degree(e.v) == (d.Coupling.Degree(pu) >= d.Coupling.Degree(pv)) {
					place(e.u, pu)
					place(e.v, pv)
				} else {
					place(e.u, pv)
					place(e.v, pu)
				}
			} else {
				// No free link left: place both near each other greedily
				// (first free qubit in region order keeps this
				// deterministic).
				placed := false
				freeInOrder(func(q int) {
					if !placed {
						place(e.u, q)
						placed = true
					}
				})
				placeNear(e.v, mapping[e.u])
			}
		case mu:
			placeNear(e.v, mapping[e.u])
		default:
			placeNear(e.u, mapping[e.v])
		}
	}

	// Logical qubits with no two-qubit interactions: best readout first.
	var loose []int
	for l, m := range mapping {
		if m < 0 {
			loose = append(loose, l)
		}
	}
	var freeList []int
	freeInOrder(func(q int) { freeList = append(freeList, q) })
	sort.SliceStable(freeList, func(a, b int) bool {
		return d.ReadoutErr[freeList[a]] < d.ReadoutErr[freeList[b]]
	})
	for i, l := range loose {
		place(l, freeList[i])
	}
	return mapping
}

// FRP implements the baseline partitioner from Das et al.: per program
// (highest CNOT density first), pick the free qubit with the highest
// utility among those with at least two free neighbors as the root, then
// greedily grow the region by the highest-utility free neighbor.
func FRP(d *arch.Device, progs []*circuit.Circuit) (*Result, error) {
	if len(progs) == 0 {
		return &Result{}, nil
	}
	avail := make([]bool, d.NumQubits())
	for i := range avail {
		avail[i] = true
	}
	res := &Result{Assignments: make([]Assignment, len(progs))}
	for _, pi := range byCNOTDensity(shapesOf(progs)) {
		p := progs[pi]
		region, err := frpFindRegion(d, avail, p.NumQubits)
		if err != nil {
			return nil, fmt.Errorf("%w: program %q (%d qubits)", ErrNoRegion, p.Name, p.NumQubits)
		}
		mapping := AllocateGWEF(d, p, region)
		for _, q := range region {
			avail[q] = false
		}
		res.Assignments[pi] = Assignment{Program: pi, Region: sortedCopy(region), InitialMapping: mapping}
	}
	return res, nil
}

func frpFindRegion(d *arch.Device, avail []bool, size int) ([]int, error) {
	if size == 1 {
		// Degenerate single-qubit program: best available readout.
		best, bestErr := -1, 2.0
		for q := 0; q < d.NumQubits(); q++ {
			if avail[q] && d.ReadoutErr[q] < bestErr {
				best, bestErr = q, d.ReadoutErr[q]
			}
		}
		if best < 0 {
			return nil, ErrNoRegion
		}
		return []int{best}, nil
	}
	// Root: the highest-utility free qubit with >= 2 free neighbors
	// ("a reliable root that has enough neighbors with high utility").
	// Das et al.'s FRP commits to one root; when its greedy growth
	// dead-ends the partition fails and the system reverts to separate
	// execution — exactly the under-utilization Figure 5 criticizes.
	root, rootU := -1, -1.0
	for q := 0; q < d.NumQubits(); q++ {
		if !avail[q] {
			continue
		}
		freeNbrs := 0
		for _, nb := range d.Coupling.Neighbors(q) {
			if avail[nb] {
				freeNbrs++
			}
		}
		if freeNbrs < 2 {
			continue
		}
		if u := d.Utility(q, avail); u > rootU {
			root, rootU = q, u
		}
	}
	if root < 0 {
		return nil, ErrNoRegion
	}
	set := []int{root}
	inSet := map[int]bool{root: true}
	for len(set) < size {
		cand, candU := -1, -1.0
		for _, q := range set {
			for _, nb := range d.Coupling.Neighbors(q) {
				if !avail[nb] || inSet[nb] {
					continue
				}
				if u := d.Utility(nb, avail); u > candU {
					cand, candU = nb, u
				}
			}
		}
		if cand < 0 {
			return nil, ErrNoRegion
		}
		set = append(set, cand)
		inSet[cand] = true
	}
	return set, nil
}

func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
