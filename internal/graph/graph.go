// Package graph provides small undirected-graph utilities used by the
// architecture model, the community-detection partitioner, and the
// routers: adjacency storage, BFS shortest paths, connectivity
// checks, and subgraph extraction.
//
// Vertices are dense integers in [0, N). Edges are undirected and
// optionally weighted; parallel edges are collapsed.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Edge is an undirected edge between two vertices. The constructor
// normalizes it so that U <= V, which makes Edge usable as a map key.
type Edge struct {
	U, V int
}

// NewEdge returns the normalized edge {min(u,v), max(u,v)}.
func NewEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Graph is an undirected graph with optional per-edge weights.
// The zero value is not usable; create instances with New.
//
// Every derived index (adjacency bitmap, sorted adjacency, sorted edge
// list) is maintained by AddWeightedEdge, never filled lazily: a device's
// coupling graph is read by concurrent compilers, so read accessors must
// not write.
type Graph struct {
	n      int
	adj    [][]int // neighbors in insertion order
	sorted [][]int // neighbors in ascending order
	bits   []uint64
	words  int    // bitmap words per row
	edges  []Edge // sorted by (U, V)
	weight map[Edge]float64
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	words := (n + 63) / 64
	return &Graph{
		n:      n,
		adj:    make([][]int, n),
		sorted: make([][]int, n),
		bits:   make([]uint64, n*words),
		words:  words,
		weight: make(map[Edge]float64),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of (collapsed, undirected) edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge {u, v} with weight 1. Adding an
// existing edge is a no-op (the original weight is kept). Self-loops are
// rejected.
func (g *Graph) AddEdge(u, v int) {
	g.AddWeightedEdge(u, v, 1)
}

// AddWeightedEdge inserts the undirected edge {u, v} with the given
// weight, overwriting the weight if the edge already exists.
func (g *Graph) AddWeightedEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	g.checkVertex(u)
	g.checkVertex(v)
	e := NewEdge(u, v)
	if !g.has(u, v) {
		g.adj[u] = append(g.adj[u], v)
		g.adj[v] = append(g.adj[v], u)
		g.sorted[u] = insertSorted(g.sorted[u], v)
		g.sorted[v] = insertSorted(g.sorted[v], u)
		g.bits[u*g.words+v>>6] |= 1 << (v & 63)
		g.bits[v*g.words+u>>6] |= 1 << (u & 63)
		i, _ := slices.BinarySearchFunc(g.edges, e, func(o, e Edge) int {
			return cmp.Or(cmp.Compare(o.U, e.U), cmp.Compare(o.V, e.V))
		})
		g.edges = slices.Insert(g.edges, i, e)
	}
	g.weight[e] = w
}

// insertSorted inserts v into the ascending slice s.
func insertSorted(s []int, v int) []int {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(s, i, v)
}

// has reads the adjacency bitmap; u and v must be in range.
func (g *Graph) has(u, v int) bool {
	return g.bits[u*g.words+v>>6]&(1<<(v&63)) != 0
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	return g.has(u, v)
}

// Weight returns the weight of edge {u, v}, or 0 if the edge is absent.
func (g *Graph) Weight(u, v int) float64 {
	return g.weight[NewEdge(u, v)]
}

// Neighbors returns the adjacency list of u. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int {
	g.checkVertex(u)
	return g.adj[u]
}

// Degree returns the number of distinct neighbors of u.
func (g *Graph) Degree(u int) int {
	g.checkVertex(u)
	return len(g.adj[u])
}

// Edges returns all edges sorted by (U, V); the slice is freshly
// allocated on each call.
func (g *Graph) Edges() []Edge {
	return append(make([]Edge, 0, len(g.edges)), g.edges...)
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for _, e := range g.edges {
		c.AddWeightedEdge(e.U, e.V, g.weight[e])
	}
	return c
}

func (g *Graph) checkVertex(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}

// BFSDistances returns the unweighted hop distance from src to every
// vertex; unreachable vertices get -1.
func (g *Graph) BFSDistances(src int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// AllPairsHops returns the unweighted all-pairs hop-distance matrix
// (BFS from every vertex). Unreachable pairs get -1.
func (g *Graph) AllPairsHops() [][]int {
	d := make([][]int, g.n)
	for i := 0; i < g.n; i++ {
		d[i] = g.BFSDistances(i)
	}
	return d
}

// RestrictedHopsFrom fills dist (length N) with the hop distances from
// src on the subgraph induced by the vertices with allowed[v] == true:
// vertices not connected to src inside the subgraph, and every vertex
// when src itself is disallowed, get -1. queue is BFS scratch; with
// capacity N the call does not allocate.
func (g *Graph) RestrictedHopsFrom(src int, allowed []bool, dist, queue []int) {
	g.checkVertex(src)
	if len(allowed) != g.n || len(dist) != g.n {
		panic("graph: allowed mask or distance row has wrong length")
	}
	for i := range dist {
		dist[i] = -1
	}
	if !allowed[src] {
		return
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if allowed[v] && dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
}

// ShortestPath returns one unweighted shortest path from src to dst as a
// vertex sequence (inclusive of both endpoints), or nil if dst is
// unreachable. Ties are broken toward lower-numbered vertices so the
// result is deterministic.
func (g *Graph) ShortestPath(src, dst int) []int {
	return g.ShortestPathWithin(src, dst, nil)
}

// ShortestPathWithin is ShortestPath on the subgraph induced by the
// vertices with allowed[v] == true (nil allows every vertex); it returns
// nil when either endpoint is disallowed.
func (g *Graph) ShortestPathWithin(src, dst int, allowed []bool) []int {
	g.checkVertex(src)
	g.checkVertex(dst)
	if allowed != nil && (!allowed[src] || !allowed[dst]) {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	prev := make([]int, g.n)
	dist := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.sorted[u] {
			if dist[v] < 0 && (allowed == nil || allowed[v]) {
				dist[v] = dist[u] + 1
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	if dist[dst] < 0 {
		return nil
	}
	path := []int{dst}
	for at := dst; at != src; at = prev[at] {
		path = append(path, prev[at])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Connected reports whether the whole graph is a single connected
// component. The empty graph is considered connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	d := g.BFSDistances(0)
	for _, v := range d {
		if v < 0 {
			return false
		}
	}
	return true
}

// SubsetConnected reports whether the vertex set `verts` induces a
// connected subgraph. Empty and single-vertex sets are connected.
func (g *Graph) SubsetConnected(verts []int) bool {
	if len(verts) <= 1 {
		return true
	}
	in := make(map[int]bool, len(verts))
	for _, v := range verts {
		g.checkVertex(v)
		in[v] = true
	}
	seen := map[int]bool{verts[0]: true}
	queue := []int{verts[0]}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if in[v] && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return len(seen) == len(in)
}

// InducedEdges returns the edges of the subgraph induced by verts,
// sorted by (U, V).
func (g *Graph) InducedEdges(verts []int) []Edge {
	in := make([]bool, g.n)
	for _, v := range verts {
		if v >= 0 && v < g.n {
			in[v] = true
		}
	}
	var out []Edge
	for _, e := range g.edges {
		if in[e.U] && in[e.V] {
			out = append(out, e)
		}
	}
	return out
}
