package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func ladder(n int) *Graph {
	// Path graph 0-1-2-...-n-1.
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestNewEdgeNormalization(t *testing.T) {
	if NewEdge(3, 1) != (Edge{1, 3}) {
		t.Fatalf("NewEdge(3,1) = %v, want {1 3}", NewEdge(3, 1))
	}
	if NewEdge(1, 3) != NewEdge(3, 1) {
		t.Fatal("edge normalization must make order irrelevant")
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 after duplicate add", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees = %d,%d; want 1,1", g.Degree(0), g.Degree(1))
	}
}

func TestAddWeightedEdgeOverwrites(t *testing.T) {
	g := New(3)
	g.AddWeightedEdge(0, 1, 2.0)
	g.AddWeightedEdge(1, 0, 5.0)
	if w := g.Weight(0, 1); w != 5.0 {
		t.Fatalf("weight = %v, want 5.0", w)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop must panic")
		}
	}()
	New(2).AddEdge(1, 1)
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := ladder(3)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) || g.HasEdge(1, 1) {
		t.Fatal("out-of-range / self edges must report false")
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("HasEdge must be order-insensitive")
	}
}

func TestBFSDistances(t *testing.T) {
	g := ladder(5)
	got := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BFS = %v, want %v", got, want)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	d := g.BFSDistances(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatalf("unreachable distances = %v, want -1", d[2:])
	}
}

func TestAllPairsHopsSymmetric(t *testing.T) {
	g := New(6)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	d := g.AllPairsHops()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if d[i][j] != d[j][i] {
				t.Fatalf("asymmetric distance d[%d][%d]=%d d[%d][%d]=%d", i, j, d[i][j], j, i, d[j][i])
			}
		}
	}
	if d[0][5] != 3 {
		t.Fatalf("d[0][5] = %d, want 3", d[0][5])
	}
}

func TestRestrictedHops(t *testing.T) {
	// Square 0-1-2-3-0; disallow vertex 1 so 0..2 must go via 3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	allowed := []bool{true, false, true, true}
	d := make([][]int, 4)
	queue := make([]int, 0, 4)
	for src := range d {
		d[src] = make([]int, 4)
		g.RestrictedHopsFrom(src, allowed, d[src], queue)
	}
	if d[0][2] != 2 {
		t.Fatalf("restricted d[0][2] = %d, want 2 (via 3)", d[0][2])
	}
	if d[0][1] != -1 || d[1][0] != -1 || d[1][1] != -1 {
		t.Fatal("distances to and from disallowed vertices must be -1")
	}
	if p := g.ShortestPathWithin(0, 2, allowed); !reflect.DeepEqual(p, []int{0, 3, 2}) {
		t.Fatalf("restricted path = %v, want [0 3 2]", p)
	}
	if p := g.ShortestPathWithin(0, 1, allowed); p != nil {
		t.Fatalf("path to a disallowed vertex = %v, want nil", p)
	}
}

func TestRestrictedHopsWrongMaskLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong mask length must panic")
		}
	}()
	g := ladder(3)
	g.RestrictedHopsFrom(0, []bool{true}, make([]int, g.N()), nil)
}

func TestShortestPath(t *testing.T) {
	g := ladder(5)
	p := g.ShortestPath(0, 4)
	if !reflect.DeepEqual(p, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("path = %v", p)
	}
	if p := g.ShortestPath(2, 2); !reflect.DeepEqual(p, []int{2}) {
		t.Fatalf("trivial path = %v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if p := g.ShortestPath(0, 2); p != nil {
		t.Fatalf("path to unreachable = %v, want nil", p)
	}
}

func TestShortestPathDeterministicTieBreak(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3; lower-numbered neighbor wins.
	g := New(4)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	p := g.ShortestPath(0, 3)
	if !reflect.DeepEqual(p, []int{0, 1, 3}) {
		t.Fatalf("path = %v, want [0 1 3]", p)
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() {
		t.Fatal("empty graph is connected")
	}
	if !ladder(4).Connected() {
		t.Fatal("ladder must be connected")
	}
	g := New(3)
	g.AddEdge(0, 1)
	if g.Connected() {
		t.Fatal("graph with isolated vertex is not connected")
	}
}

func TestSubsetConnected(t *testing.T) {
	g := ladder(6)
	if !g.SubsetConnected([]int{1, 2, 3}) {
		t.Fatal("contiguous subset must be connected")
	}
	if g.SubsetConnected([]int{0, 2}) {
		t.Fatal("gap subset must be disconnected")
	}
	if !g.SubsetConnected(nil) || !g.SubsetConnected([]int{4}) {
		t.Fatal("empty and singleton subsets are connected")
	}
}

func TestInducedEdges(t *testing.T) {
	g := ladder(5)
	got := g.InducedEdges([]int{1, 2, 4})
	want := []Edge{{1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("induced = %v, want %v", got, want)
	}
}

func TestClone(t *testing.T) {
	g := ladder(4)
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("clone must not alias the original")
	}
	if c.M() != g.M()+1 {
		t.Fatalf("clone M = %d", c.M())
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	es := g.Edges()
	want := []Edge{{0, 1}, {1, 2}, {2, 3}}
	if !reflect.DeepEqual(es, want) {
		t.Fatalf("edges = %v, want %v", es, want)
	}
}

// Property: in any connected random graph, BFS distances satisfy the
// triangle inequality along edges: |d(u) - d(v)| <= 1 for every edge.
func TestBFSEdgeLipschitzProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed % 8)
		if n < 0 {
			n = -n
		}
		n += 3
		g := New(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		// Add some chords deterministically from the seed.
		s := seed
		for k := 0; k < n; k++ {
			s = s*6364136223846793005 + 1442695040888963407
			u := int((s >> 33) % int64(n))
			v := int((s >> 13) % int64(n))
			if u < 0 {
				u = -u
			}
			if v < 0 {
				v = -v
			}
			if u != v {
				g.AddEdge(u%n, v%n)
			}
		}
		d := g.BFSDistances(0)
		for _, e := range g.Edges() {
			diff := d[e.U] - d[e.V]
			if diff < -1 || diff > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ShortestPath length equals BFS distance + 1 vertices.
func TestShortestPathLengthMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed % 10)
		if n < 0 {
			n = -n
		}
		n += 4
		g := New(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		g.AddEdge(0, n-1) // ring
		d := g.BFSDistances(0)
		for v := 0; v < n; v++ {
			p := g.ShortestPath(0, v)
			if len(p) != d[v]+1 {
				return false
			}
			// Path must be a walk along edges.
			for i := 0; i+1 < len(p); i++ {
				if !g.HasEdge(p[i], p[i+1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedIndexesTrackInserts checks the indexes AddWeightedEdge
// maintains — adjacency bitmap (two words per row here), sorted
// adjacency, sorted edge list — against the plain adjacency lists after
// random-order inserts with repeats, and that Clone copies them.
func TestDerivedIndexesTrackInserts(t *testing.T) {
	const n = 70
	rng := rand.New(rand.NewSource(3))
	g := New(n)
	want := map[Edge]bool{}
	for k := 0; k < 400; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		g.AddWeightedEdge(u, v, float64(k))
		want[NewEdge(u, v)] = true
	}
	if g.M() != len(want) {
		t.Fatalf("M = %d, want %d", g.M(), len(want))
	}
	edges := g.Edges()
	if len(edges) != len(want) {
		t.Fatalf("%d edges listed, want %d", len(edges), len(want))
	}
	for i, e := range edges {
		if !want[e] {
			t.Fatalf("listed edge %v was never inserted", e)
		}
		if i > 0 && (edges[i-1].U > e.U || (edges[i-1].U == e.U && edges[i-1].V >= e.V)) {
			t.Fatalf("edge list out of order at %d: %v then %v", i, edges[i-1], e)
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got := g.HasEdge(u, v); got != want[NewEdge(u, v)] {
				t.Fatalf("HasEdge(%d,%d) = %v", u, v, got)
			}
		}
		nbrs := append([]int(nil), g.Neighbors(u)...)
		sort.Ints(nbrs)
		if !reflect.DeepEqual(nbrs, append([]int(nil), g.sorted[u]...)) {
			t.Fatalf("sorted adjacency of %d = %v, want %v", u, g.sorted[u], nbrs)
		}
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, n) {
		t.Fatal("out-of-range HasEdge must be false")
	}
	verts := []int{-4, 3, 9, 17, 21, 40, 41, 66, n + 5}
	var induced []Edge
	for _, e := range edges {
		if slices.Contains(verts, e.U) && slices.Contains(verts, e.V) {
			induced = append(induced, e)
		}
	}
	if got := g.InducedEdges(verts); !reflect.DeepEqual(got, induced) {
		t.Fatalf("InducedEdges = %v, want %v", got, induced)
	}
	c := g.Clone()
	if !reflect.DeepEqual(c.Edges(), edges) || c.Weight(edges[0].U, edges[0].V) != g.Weight(edges[0].U, edges[0].V) {
		t.Fatal("Clone lost edges or weights")
	}
}
