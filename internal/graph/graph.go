// Package graph provides weighted undirected graphs, generators for the
// network families used in the evaluation, and exact shortest-path
// algorithms that serve as ground truth for the sketch constructions.
//
// Conventions shared by the whole repository:
//
//   - Nodes are dense integers 0..n-1 (the paper's round-robin scheduler
//     assumes V = {0..n-1}; see Section 3.2 of the paper).
//   - Edge weights are nonnegative int64 and are assumed polynomial in n,
//     so a distance always fits in one O(log n)-bit word.
//   - Infinity is represented by the sentinel Inf. Arithmetic on distances
//     must go through AddDist, which saturates at Inf instead of
//     overflowing.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Dist is a shortest-path distance. Weights are integral; the paper assumes
// weights polynomial in n so that a distance fits in a single CONGEST word.
type Dist = int64

// Inf is the "no path / undefined" distance sentinel (d(u, A_k) = ∞ in the
// paper). It is never produced by arithmetic: use AddDist to add distances.
const Inf Dist = math.MaxInt64

// AddDist returns a+b, saturating at Inf if either operand is Inf or the
// sum would overflow. All distance arithmetic in the repository uses this.
func AddDist(a, b Dist) Dist {
	if a == Inf || b == Inf {
		return Inf
	}
	if a > Inf-b {
		return Inf
	}
	return a + b
}

// Edge is an undirected weighted edge. Endpoints are kept ordered U < V for
// canonical representation; the graph stores each edge once.
type Edge struct {
	U, V   int
	Weight Dist
}

// Arc is one direction of an edge as seen from a node's adjacency list.
type Arc struct {
	To     int
	Weight Dist
}

// MaxNodes is the largest node count a Graph may have. Freeze and
// ReadEdgeList refuse a larger (or negative) count with an error instead
// of attempting the allocation; 1<<24 is far above every graph the
// repository generates or its tools are run on.
const MaxNodes = 1 << 24

// Graph is an immutable weighted undirected graph with dense node IDs
// 0..N()-1. Build one with a Builder or a generator; after Freeze the
// adjacency structure never changes, so it is safe for concurrent readers
// (the CONGEST simulator reads it from many goroutines).
type Graph struct {
	n     int
	off   []int  // u's arcs are arcs[off[u]:off[u+1]]; shared by Reweighted copies
	arcs  []Arc  // every adjacency list, each sorted by To
	edges []Edge // canonical U<V, sorted
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the canonical edge list (U < V, sorted). Callers must not
// modify the returned slice.
func (g *Graph) Edges() []Edge { return g.edges }

// Adj returns the adjacency list of u, sorted by neighbor ID. Callers must
// not modify the returned slice; its capacity ends at u's last arc.
func (g *Graph) Adj(u int) []Arc { return g.arcs[g.off[u]:g.off[u+1]:g.off[u+1]] }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return g.off[u+1] - g.off[u] }

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeWeight(u, v)
	return ok
}

// EdgeWeight returns the weight of edge {u,v} if present.
func (g *Graph) EdgeWeight(u, v int) (Dist, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	if i := g.arc(u, v); i >= 0 {
		return g.arcs[i].Weight, true
	}
	return 0, false
}

// arc returns the index in g.arcs of u's arc to v, or -1 if there is none.
func (g *Graph) arc(u, v int) int {
	a := g.Adj(u)
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= v })
	if i < len(a) && a[i].To == v {
		return g.off[u] + i
	}
	return -1
}

// Reweighted returns a copy of g in which every change's edge {U,V}
// carries the change's weight; a later change to the same edge wins. Each
// change must name an existing edge with a weight in [0, Inf), as AddEdge
// requires, or Reweighted returns an error and no graph. g is never
// written: the copy clones the arc and edge arrays once, shares the
// offsets, and patches both directions of each change by binary search.
func (g *Graph) Reweighted(changes []Edge) (*Graph, error) {
	for _, c := range changes {
		if err := checkEdge(g.n, c.U, c.V, c.Weight); err != nil {
			return nil, err
		}
		if g.arc(c.U, c.V) < 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) not in graph", c.U, c.V)
		}
	}
	ng := &Graph{n: g.n, off: g.off, arcs: slices.Clone(g.arcs), edges: slices.Clone(g.edges)}
	for _, c := range changes {
		u, v := min(c.U, c.V), max(c.U, c.V)
		ng.arcs[ng.arc(u, v)].Weight = c.Weight
		ng.arcs[ng.arc(v, u)].Weight = c.Weight
		e := ng.edges
		i := sort.Search(len(e), func(i int) bool { return e[i].U > u || e[i].U == u && e[i].V >= v })
		e[i].Weight = c.Weight
	}
	return ng, nil
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, g.M())
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges keep the minimum weight (parallel edges are meaningless for
// shortest paths); self-loops are rejected.
type Builder struct {
	n     int
	edges []Edge // as added, U < V, duplicates included
	errlt error
}

// NewBuilder creates a builder for a graph on n nodes. Freeze rejects
// n < 0 and n > MaxNodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v} with the given weight. If the
// edge was added before, the smaller weight wins. Errors are latched and
// reported by Freeze.
func (b *Builder) AddEdge(u, v int, weight Dist) {
	if b.errlt != nil {
		return
	}
	if b.errlt = checkEdge(b.n, u, v, weight); b.errlt != nil {
		return
	}
	b.edges = append(b.edges, Edge{U: min(u, v), V: max(u, v), Weight: weight})
}

// checkEdge validates the edge {u,v} of an n-node graph.
func checkEdge(n, u, v int, weight Dist) error {
	switch {
	case u < 0 || u >= n || v < 0 || v >= n:
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	case u == v:
		return fmt.Errorf("graph: self-loop at node %d", u)
	case weight < 0:
		return fmt.Errorf("graph: negative weight %d on edge (%d,%d)", weight, u, v)
	case weight >= Inf:
		return fmt.Errorf("graph: weight %d on edge (%d,%d) is the Inf sentinel", weight, u, v)
	}
	return nil
}

// Freeze validates and returns the immutable graph. A counting sort
// buckets the edges by U and each small bucket is sorted by (V, weight),
// so the first of each run of duplicates is the lightest and is kept.
// Filling the arcs in that edge order leaves every adjacency list sorted:
// u's arcs to smaller ids come from earlier buckets than its own.
func (b *Builder) Freeze() (*Graph, error) {
	if b.errlt != nil {
		return nil, b.errlt
	}
	n := b.n
	if n < 0 || n > MaxNodes {
		return nil, fmt.Errorf("graph: node count %d outside [0,%d]", n, MaxNodes)
	}
	off := make([]int, n+1)
	for _, e := range b.edges {
		off[e.U+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	next := slices.Clone(off[:n])
	edges := make([]Edge, len(b.edges))
	for _, e := range b.edges {
		edges[next[e.U]] = e
		next[e.U]++
	}
	m := 0
	for u := 0; u < n; u++ {
		bucket := edges[off[u]:off[u+1]]
		slices.SortFunc(bucket, func(x, y Edge) int { return cmp.Or(cmp.Compare(x.V, y.V), cmp.Compare(x.Weight, y.Weight)) })
		last := -1
		for _, e := range bucket {
			if e.V != last {
				edges[m] = e
				m++
				last = e.V
			}
		}
	}
	edges = edges[:m:m]
	clear(off)
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	copy(next, off)
	arcs := make([]Arc, 2*m)
	for _, e := range edges {
		arcs[next[e.U]] = Arc{To: e.V, Weight: e.Weight}
		next[e.U]++
		arcs[next[e.V]] = Arc{To: e.U, Weight: e.Weight}
		next[e.V]++
	}
	return &Graph{n: n, off: off, arcs: arcs, edges: edges}, nil
}

// MustFreeze is Freeze for generators whose inputs are known valid.
func (b *Builder) MustFreeze() *Graph {
	g, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph on n nodes from an explicit edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.Weight)
	}
	return b.Freeze()
}

// ErrDisconnected is returned by operations that require a connected graph.
var ErrDisconnected = errors.New("graph: not connected")

// IsConnected reports whether the graph is connected (true for n <= 1).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.Adj(u) {
			if !seen[a.To] {
				seen[a.To] = true
				count++
				stack = append(stack, a.To)
			}
		}
	}
	return count == g.n
}

// Components returns the connected components as slices of node IDs.
func (g *Graph) Components() [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(out)
		var nodes []int
		stack := []int{s}
		comp[s] = id
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nodes = append(nodes, u)
			for _, a := range g.Adj(u) {
				if comp[a.To] < 0 {
					comp[a.To] = id
					stack = append(stack, a.To)
				}
			}
		}
		sort.Ints(nodes)
		out = append(out, nodes)
	}
	return out
}

// Validate checks internal invariants (used by property tests).
func (g *Graph) Validate() error {
	for u := 0; u < g.n; u++ {
		prev := -1
		for _, a := range g.Adj(u) {
			if a.To <= prev {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			prev = a.To
			if a.To == u {
				return fmt.Errorf("graph: self loop at %d", u)
			}
			w, ok := g.EdgeWeight(a.To, u)
			if !ok || w != a.Weight {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", u, a.To)
			}
		}
	}
	deg2 := 0
	for u := 0; u < g.n; u++ {
		deg2 += g.Degree(u)
	}
	if deg2 != 2*len(g.edges) {
		return fmt.Errorf("graph: degree sum %d != 2m=%d", deg2, 2*len(g.edges))
	}
	return nil
}
