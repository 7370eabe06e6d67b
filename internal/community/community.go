// Package community implements the paper's Community Detection Assisted
// Partitioning substrate: Newman's fast-greedy (FN) agglomerative
// community detection over a chip's coupling graph, modified with the
// error-aware reward F = ΔQ + ω·E·V (Equation 1), producing the
// hierarchy tree (dendrogram) of Algorithm 1 that CDAP walks to allocate
// qubit regions. It also provides the redundant-qubit statistic and the
// knee-point selection of ω used for Figure 9.
package community

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/fp"
	"repro/internal/graph"
)

// Node is one dendrogram node: a community of physical qubits. Leaves
// hold a single qubit; internal nodes are the union of their children.
type Node struct {
	// Qubits is the sorted set of physical qubits in this community.
	Qubits []int
	// Left and Right are the merged sub-communities (nil for leaves).
	Left, Right *Node
	// Height is the merge step at which this node was created (leaves
	// are 0; the k-th merge gets height k).
	Height int
	// Parent is set after tree construction (nil for the root).
	Parent *Node
}

// IsLeaf reports whether the node is a single-qubit leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Size returns the number of qubits in the community.
func (n *Node) Size() int { return len(n.Qubits) }

// Contains reports whether qubit q belongs to this community.
func (n *Node) Contains(q int) bool {
	i := sort.SearchInts(n.Qubits, q)
	return i < len(n.Qubits) && n.Qubits[i] == q
}

// MaxRedundantQubits returns the paper's "maximum redundant qubits" of
// the node: node.n_qubits − (1 + max(left.n_qubits, right.n_qubits)).
// It is 0 for leaves.
func (n *Node) MaxRedundantQubits() int {
	if n.IsLeaf() {
		return 0
	}
	m := n.Left.Size()
	if r := n.Right.Size(); r > m {
		m = r
	}
	return n.Size() - (1 + m)
}

// Tree is the hierarchy tree over a device's qubits.
type Tree struct {
	Root   *Node
	Leaves []*Node // Leaves[q] is the leaf node of qubit q
	// Omega is the reward weight the tree was built with.
	Omega float64
	// nodes in creation order (leaves first, then merges).
	nodes []*Node
}

// Nodes returns every node of the tree in creation order (leaves first).
func (t *Tree) Nodes() []*Node { return t.nodes }

// AvgRedundantQubits returns the mean of MaxRedundantQubits over the
// internal (merge) nodes of the tree — the y-axis of Figure 9.
func (t *Tree) AvgRedundantQubits() float64 {
	sum, cnt := 0, 0
	for _, n := range t.nodes {
		if !n.IsLeaf() {
			sum += n.MaxRedundantQubits()
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// BuildCached returns the hierarchy tree for the device's current
// calibration, building it at most once per (calibration version, ω)
// through the device's artifact cache. Concurrent callers share one
// build; the returned tree is shared and must be treated as read-only
// (Build's output is never mutated by the partitioner). ApplyCalibration
// or Device.InvalidateArtifacts retire the cached tree, matching the
// paper's build-once-per-calibration-cycle policy.
func BuildCached(d *arch.Device, omega float64) *Tree {
	return d.Artifact("community/tree", omega, func() any {
		return Build(d, omega)
	}).(*Tree)
}

// Build runs Algorithm 1: starting from one community per qubit, it
// repeatedly merges the pair of communities with the maximum reward
// F = Q_merged − Q_origin + ω·E·V, where E is the mean CNOT reliability
// of the between-community links and V the mean readout reliability of
// the union's qubits. Only pairs connected by at least one coupling link
// are merged while any exist; disconnected remainders (possible on
// devices with isolated regions) are merged last with E = 0.
func Build(d *arch.Device, omega float64) *Tree {
	n := d.NumQubits()
	t := &Tree{Omega: omega}
	t.Leaves = make([]*Node, n)
	comms := make([]*Node, n) // live community per index; nil when merged away
	for q := 0; q < n; q++ {
		leaf := &Node{Qubits: []int{q}}
		t.Leaves[q] = leaf
		comms[q] = leaf
		t.nodes = append(t.nodes, leaf)
	}
	// Community membership for modularity bookkeeping.
	commOf := make([]int, n)
	for q := range commOf {
		commOf[q] = q
	}
	m := float64(d.Coupling.M())
	if d.Coupling.M() == 0 {
		m = 1 // degenerate single-qubit devices
	}

	// e[i][j]: fraction of edges with one endpoint in community i and
	// the other in j (i<=j stored once); a[i]: fraction of edge ends in i.
	eFrac := map[[2]int]float64{}
	aFrac := make([]float64, n)
	for _, ed := range d.Coupling.Edges() {
		i, j := commOf[ed.U], commOf[ed.V]
		if i > j {
			i, j = j, i
		}
		eFrac[[2]int{i, j}] += 1 / m
		aFrac[i] += 1 / (2 * m)
		aFrac[j] += 1 / (2 * m)
	}

	live := n
	for step := 1; live > 1; step++ {
		bi, bj, bestF := -1, -1, math.Inf(-1)
		connectedPair := false
		for i := 0; i < n; i++ {
			if comms[i] == nil {
				continue
			}
			for j := i + 1; j < n; j++ {
				if comms[j] == nil {
					continue
				}
				between, linked := eFrac[[2]int{i, j}]
				if !linked && connectedPair {
					continue // prefer connected merges
				}
				// between is in units of (edges between)/m = 2·e_ij,
				// so ΔQ = 2(e_ij − a_i·a_j) = between − 2·a_i·a_j.
				deltaQ := between - 2*aFrac[i]*aFrac[j]
				f := deltaQ + omega*rewardEV(d, comms[i], comms[j])
				if between > 0 && !connectedPair {
					// First connected pair found: reset the search to
					// connected pairs only.
					connectedPair = true
					bi, bj, bestF = i, j, f
					continue
				}
				if (between > 0) == connectedPair && f > bestF {
					bi, bj, bestF = i, j, f
				}
			}
		}
		if bi < 0 {
			break
		}
		merged := &Node{
			Qubits: mergeSorted(comms[bi].Qubits, comms[bj].Qubits),
			Left:   comms[bi],
			Right:  comms[bj],
			Height: step,
		}
		comms[bi].Parent = merged
		comms[bj].Parent = merged
		t.nodes = append(t.nodes, merged)
		// Fold j into i for the modularity bookkeeping.
		for k := 0; k < n; k++ {
			if k == bi || k == bj || comms[k] == nil {
				continue
			}
			key := func(a, b int) [2]int {
				if a > b {
					a, b = b, a
				}
				return [2]int{a, b}
			}
			eFrac[key(bi, k)] += eFrac[key(bj, k)]
			delete(eFrac, key(bj, k))
		}
		eFrac[[2]int{bi, bi}] += eFrac[[2]int{bj, bj}] + eFrac[[2]int{bi, bj}]
		delete(eFrac, [2]int{bi, bj})
		delete(eFrac, [2]int{bj, bj})
		aFrac[bi] += aFrac[bj]
		aFrac[bj] = 0
		comms[bi] = merged
		comms[bj] = nil
		live--
	}
	for _, c := range comms {
		if c != nil {
			t.Root = c
			break
		}
	}
	return t
}

// rewardEV computes E·V for a candidate merge: E is the average CNOT
// reliability over the links between the two communities (0 if none),
// V the average readout reliability over the union's qubits.
func rewardEV(d *arch.Device, a, b *Node) float64 {
	var relSum float64
	links := 0
	for _, qa := range a.Qubits {
		for _, nb := range d.Coupling.Neighbors(qa) {
			if b.Contains(nb) {
				relSum += 1 - d.CNOTError(qa, nb)
				links++
			}
		}
	}
	if links == 0 {
		return 0
	}
	e := relSum / float64(links)
	var roSum float64
	for _, q := range a.Qubits {
		roSum += 1 - d.ReadoutErr[q]
	}
	for _, q := range b.Qubits {
		roSum += 1 - d.ReadoutErr[q]
	}
	v := roSum / float64(len(a.Qubits)+len(b.Qubits))
	return e * v
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Dendrogram renders the tree as an indented text diagram (for the
// chip-explorer example and Figure 8 checks).
func (t *Tree) Dendrogram() string {
	var b []byte
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, ' ', ' ')
		}
		if n.IsLeaf() {
			b = append(b, fmt.Sprintf("Q%d\n", n.Qubits[0])...)
			return
		}
		b = append(b, fmt.Sprintf("%v (merge %d)\n", n.Qubits, n.Height)...)
		rec(n.Left, depth+1)
		rec(n.Right, depth+1)
	}
	if t.Root != nil {
		rec(t.Root, 0)
	}
	return string(b)
}

// MergeOrder returns, for each internal node in creation order, the
// qubit sets that were merged (left, right). Tests use it to check
// Figure 8's merge sequence.
func (t *Tree) MergeOrder() [][2][]int {
	var out [][2][]int
	for _, n := range t.nodes {
		if !n.IsLeaf() {
			out = append(out, [2][]int{n.Left.Qubits, n.Right.Qubits})
		}
	}
	return out
}

// OmegaSweep builds a tree per ω value over each calibration day and
// returns the mean AvgRedundantQubits per ω — the Figure 9 series.
func OmegaSweep(d *arch.Device, days []arch.Calibration, omegas []float64) []float64 {
	out := make([]float64, len(omegas))
	// Preserve the device's current calibration.
	saved := arch.Calibration{
		CNOTErr:    map[graph.Edge]float64{},
		ReadoutErr: append([]float64(nil), d.ReadoutErr...),
		Gate1Err:   append([]float64(nil), d.Gate1Err...),
	}
	for e, v := range d.CNOTErr {
		saved.CNOTErr[e] = v
	}
	defer arch.ApplyCalibration(d, saved)

	for oi, omega := range omegas {
		sum := 0.0
		for _, day := range days {
			arch.ApplyCalibration(d, day)
			sum += Build(d, omega).AvgRedundantQubits()
		}
		out[oi] = sum / float64(len(days))
	}
	return out
}

// KneeOmega is the ω every CDAP consumer (compiler, scheduler) builds
// the device's hierarchy tree with: the paper's knee, 0.95 for chips up
// to 20 qubits (IBMQ16) and 0.40 above (IBMQ50).
func KneeOmega(d *arch.Device) float64 {
	if d.NumQubits() > 20 {
		return 0.40
	}
	return 0.95
}

// Knee returns the index of the knee point of a decreasing series using
// the max-distance-to-chord method: the point farthest from the straight
// line joining the first and last samples. The paper picks ω at the knee
// of the redundant-qubits curve (ω = 0.95 on IBMQ16, 0.40 on IBMQ50).
func Knee(xs, ys []float64) int {
	if len(xs) != len(ys) || len(xs) < 3 {
		return 0
	}
	x0, y0 := xs[0], ys[0]
	x1, y1 := xs[len(xs)-1], ys[len(ys)-1]
	dx, dy := x1-x0, y1-y0
	norm := math.Hypot(dx, dy)
	if fp.Zero(norm) {
		return 0
	}
	best, bestDist := 0, -1.0
	for i := range xs {
		// Perpendicular distance from (xs[i], ys[i]) to the chord.
		dist := math.Abs(dy*xs[i]-dx*ys[i]+x1*y0-y1*x0) / norm
		if dist > bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}
