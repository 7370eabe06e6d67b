package community

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
)

func TestBuildCoversAllQubits(t *testing.T) {
	d := arch.IBMQ16(0)
	tr := Build(d, 0.95)
	if tr.Root == nil {
		t.Fatal("no root")
	}
	if got := tr.Root.Size(); got != d.NumQubits() {
		t.Fatalf("root size = %d, want %d", got, d.NumQubits())
	}
	want := make([]int, d.NumQubits())
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(tr.Root.Qubits, want) {
		t.Fatalf("root qubits = %v", tr.Root.Qubits)
	}
	// n leaves + n-1 merges.
	if got := len(tr.Nodes()); got != 2*d.NumQubits()-1 {
		t.Fatalf("nodes = %d, want %d", got, 2*d.NumQubits()-1)
	}
}

func TestTreeStructureInvariants(t *testing.T) {
	d := arch.IBMQ50(3)
	tr := Build(d, 0.4)
	for _, n := range tr.Nodes() {
		if n.IsLeaf() {
			if n.Size() != 1 {
				t.Fatalf("leaf with %d qubits", n.Size())
			}
			continue
		}
		// Children partition the parent.
		merged := append(append([]int(nil), n.Left.Qubits...), n.Right.Qubits...)
		sort.Ints(merged)
		if !reflect.DeepEqual(merged, n.Qubits) {
			t.Fatalf("node %v != union of children %v", n.Qubits, merged)
		}
		if n.Left.Parent != n || n.Right.Parent != n {
			t.Fatal("child parent pointers must point at the merge node")
		}
		// Communities stay connected when merges follow coupling links.
		if !d.Coupling.SubsetConnected(n.Qubits) {
			t.Fatalf("community %v is not connected", n.Qubits)
		}
	}
}

func TestLeavesIndexedByQubit(t *testing.T) {
	d := arch.London()
	tr := Build(d, 0.95)
	for q := 0; q < d.NumQubits(); q++ {
		leaf := tr.Leaves[q]
		if !leaf.IsLeaf() || leaf.Qubits[0] != q {
			t.Fatalf("leaf %d = %v", q, leaf.Qubits)
		}
	}
}

// TestLondonDendrogram reproduces Figure 8: on IBM Q London, Q0 and Q1
// merge first; then Q2 joins {0,1} even though the Q1-Q3 link has a
// lower CNOT error (topology/modularity wins); then Q3-Q4; then the root.
func TestLondonDendrogram(t *testing.T) {
	d := arch.London()
	tr := Build(d, 0.95)
	order := tr.MergeOrder()
	if len(order) != 4 {
		t.Fatalf("merges = %d, want 4", len(order))
	}
	first := mergedSet(order[0])
	if !reflect.DeepEqual(first, []int{0, 1}) {
		t.Fatalf("first merge = %v, want {0,1}", first)
	}
	second := mergedSet(order[1])
	third := mergedSet(order[2])
	// Figure 8 step (ii): Q2 joins {0,1} (not Q3, despite Q1-Q3's lower
	// CNOT error) and Q3-Q4 merge; both happen before the root. Their
	// relative order does not change the tree shape.
	want012, want34 := []int{0, 1, 2}, []int{3, 4}
	ok := (reflect.DeepEqual(second, want012) && reflect.DeepEqual(third, want34)) ||
		(reflect.DeepEqual(second, want34) && reflect.DeepEqual(third, want012))
	if !ok {
		t.Fatalf("middle merges = %v, %v; want {0,1,2} and {3,4}", second, third)
	}
	root := mergedSet(order[3])
	if !reflect.DeepEqual(root, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("root merge = %v", root)
	}
}

func mergedSet(pair [2][]int) []int {
	out := append(append([]int(nil), pair[0]...), pair[1]...)
	sort.Ints(out)
	return out
}

func TestOmegaZeroIsTopologyOnly(t *testing.T) {
	// With ω = 0 the reward ignores calibration entirely: two devices
	// with identical topology but different calibration must produce
	// identical merge orders.
	a, b := arch.IBMQ16(1), arch.IBMQ16(99)
	ta, tb := Build(a, 0), Build(b, 0)
	oa, ob := ta.MergeOrder(), tb.MergeOrder()
	if len(oa) != len(ob) {
		t.Fatal("merge counts differ")
	}
	for i := range oa {
		if !reflect.DeepEqual(mergedSet(oa[i]), mergedSet(ob[i])) {
			t.Fatalf("merge %d differs under omega=0: %v vs %v", i, oa[i], ob[i])
		}
	}
}

func TestLargeOmegaFollowsErrorRate(t *testing.T) {
	// With a huge ω, the first merge must be the most reliable pair
	// (link reliability x readout reliability dominates modularity).
	d := arch.London()
	tr := Build(d, 1000)
	first := mergedSet(tr.MergeOrder()[0])
	if !reflect.DeepEqual(first, []int{0, 1}) {
		t.Fatalf("first merge under huge omega = %v, want the most reliable link {0,1}", first)
	}
}

func TestMaxRedundantQubits(t *testing.T) {
	leaf := &Node{Qubits: []int{0}}
	if leaf.MaxRedundantQubits() != 0 {
		t.Fatal("leaf redundancy must be 0")
	}
	// Balanced merge of 2+3 -> 5: 5 - (1+3) = 1.
	n := &Node{
		Qubits: []int{0, 1, 2, 3, 4},
		Left:   &Node{Qubits: []int{0, 1}},
		Right:  &Node{Qubits: []int{2, 3, 4}},
	}
	if got := n.MaxRedundantQubits(); got != 1 {
		t.Fatalf("redundant = %d, want 1", got)
	}
	// Chain merge 1+4 -> 5: 5 - (1+4) = 0.
	n2 := &Node{
		Qubits: []int{0, 1, 2, 3, 4},
		Left:   &Node{Qubits: []int{0}},
		Right:  &Node{Qubits: []int{1, 2, 3, 4}},
	}
	if got := n2.MaxRedundantQubits(); got != 0 {
		t.Fatalf("chain redundant = %d, want 0", got)
	}
}

func TestRedundantQubitsDecreaseWithOmega(t *testing.T) {
	// Paper §IV-A3: increasing ω degrades the tree toward chain merges,
	// reducing average redundant qubits.
	d := arch.IBMQ16(0)
	days := arch.CalibrationSeries(d, 1, 5)
	omegas := []float64{0, 2.5}
	ys := OmegaSweep(d, days, omegas)
	if ys[1] >= ys[0] {
		t.Fatalf("avg redundant qubits should drop from omega 0 (%v) to 2.5 (%v)", ys[0], ys[1])
	}
}

func TestOmegaSweepRestoresCalibration(t *testing.T) {
	d := arch.IBMQ16(0)
	before := append([]float64(nil), d.ReadoutErr...)
	days := arch.CalibrationSeries(d, 7, 3)
	OmegaSweep(d, days, []float64{0, 1})
	if !reflect.DeepEqual(before, d.ReadoutErr) {
		t.Fatal("OmegaSweep must restore the device calibration")
	}
}

// twoTriangles builds a 6-qubit device: triangle {0,1,2} and {3,4,5}
// bridged by 2-3.
func twoTriangles() *arch.Device {
	return customDevice(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}})
}

func customDevice(n int, edges [][2]int) *arch.Device {
	g := graph.New(n)
	errs := map[graph.Edge]float64{}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
		errs[graph.NewEdge(e[0], e[1])] = 0.02
	}
	d := &arch.Device{
		Name:       "custom",
		Coupling:   g,
		CNOTErr:    errs,
		ReadoutErr: make([]float64, n),
		Gate1Err:   make([]float64, n),
	}
	for q := 0; q < n; q++ {
		d.ReadoutErr[q] = 0.02
		d.Gate1Err[q] = 0.002
	}
	return d
}

func TestKnee(t *testing.T) {
	// A curve that drops fast then flattens: knee near the bend.
	xs := []float64{0, 0.5, 1, 1.5, 2, 2.5}
	ys := []float64{10, 4, 2, 1.8, 1.7, 1.6}
	k := Knee(xs, ys)
	if k != 1 && k != 2 {
		t.Fatalf("knee index = %d, want 1 or 2", k)
	}
	if Knee([]float64{0, 1}, []float64{1, 0}) != 0 {
		t.Fatal("short series must return 0")
	}
	if Knee(xs, ys[:3]) != 0 {
		t.Fatal("mismatched lengths must return 0")
	}
}

func TestDendrogramRender(t *testing.T) {
	d := arch.London()
	s := Build(d, 0.95).Dendrogram()
	if s == "" {
		t.Fatal("empty dendrogram")
	}
	for _, want := range []string{"Q0", "Q4", "merge"} {
		if !strings.Contains(s, want) {
			t.Fatalf("dendrogram missing %q:\n%s", want, s)
		}
	}
}
