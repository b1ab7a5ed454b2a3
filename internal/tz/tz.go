// Package tz implements the centralized Thorup–Zwick distance oracle
// ([TZ05], as summarized in Section 3.1 of the paper). It serves three
// roles in this repository:
//
//  1. Ground truth: the distributed construction of internal/core must
//     produce *identical* labels when run with the same coin flips
//     (experiment E12).
//  2. Baseline: the centralized oracle is the comparison point the paper
//     improves on in the distributed setting.
//  3. Building block: the (ε,k)-CDG sketches apply the same construction
//     to a density net (a subset hierarchy), which this package supports
//     directly through BuildHierarchy with levels[u] = -1 for non-members.
package tz

import (
	"fmt"

	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// Oracle is a built distance oracle: one label per node plus the hierarchy
// used to build them.
type Oracle struct {
	G      *graph.Graph
	K      int
	Levels []int // topLevel per node; -1 = not in A_0 (subset hierarchies)
	// PivotDist[i][u] = d(u, A_i) for 0 <= i <= K (PivotDist[K] = Inf).
	PivotDist [][]graph.Dist
	Labels    []*sketch.TZLabel
}

// Build samples the standard hierarchy (A_0 = V, survival probability
// n^{-1/k}; §3.1) using the shared per-node coin streams and constructs
// all labels.
func Build(g *graph.Graph, k int, seed uint64) (*Oracle, error) {
	if k < 1 {
		return nil, fmt.Errorf("tz: k must be >= 1, got %d", k)
	}
	levels := sketch.SampleLevels(g.N(), k, sketch.HierarchyProb(g.N(), k), seed)
	return BuildHierarchy(g, k, levels)
}

// BuildHierarchy constructs labels for an explicit hierarchy. levels[u] is
// node u's top level (the largest i with u ∈ A_i), or -1 if u is not even
// in A_0 (used when the hierarchy lives on a density net). Labels are
// built for every node of the graph regardless.
func BuildHierarchy(g *graph.Graph, k int, levels []int) (*Oracle, error) {
	n := g.N()
	if len(levels) != n {
		return nil, fmt.Errorf("tz: %d levels for n=%d", len(levels), n)
	}
	for u, l := range levels {
		if l < -1 || l >= k {
			return nil, fmt.Errorf("tz: node %d has level %d outside [-1,%d)", u, l, k)
		}
	}
	o := &Oracle{G: g, K: k, Levels: levels, PivotDist: LevelDistances(g, k, levels)}

	// Clusters: for every hierarchy member w with top level l, grow the
	// truncated Dijkstra ball C(w) = {u : d(u,w) < d(u, A_{l+1})} and
	// record w (with distance) in the bunch of every u ∈ C(w). The
	// truncation is sound because every vertex on a shortest path from w
	// to a cluster member is itself in the cluster (§3.2).
	o.Labels = make([]*sketch.TZLabel, n)
	for u := 0; u < n; u++ {
		o.Labels[u] = sketch.NewTZLabel(u, k)
	}
	gr := NewGrower(g)
	for w := 0; w < n; w++ {
		l := levels[w]
		if l < 0 {
			continue
		}
		gr.GrowCluster(w, o.PivotDist[l+1], func(u int, d graph.Dist) {
			if u != w {
				// Clusters are grown in ascending w order, so each label
				// receives its bunch in sorted order and Set stays on its
				// O(1) append fast path.
				o.Labels[u].Set(w, d, l)
			}
		})
	}

	// Pivot chain (bottom-up over levels, per node): p_i(u) is the
	// (dist, ID)-lexicographic minimum among u itself (if u ∈ A_i), the
	// level-i bunch members, and p_{i+1}(u). Computing pivots this way —
	// rather than from the multi-source Dijkstra — matches exactly what
	// a distributed node can compute locally from its phase results
	// (cmd/sketchbench's E12 checks that the two agree pivot for pivot),
	// while yielding the same distances d(u, A_i).
	for u := 0; u < n; u++ {
		o.Labels[u].Pivots = PivotChain(o.Labels[u].Bunch, u, levels[u], k)
	}
	return o, nil
}

// LevelDistances returns d(·, A_i) on g for i = 0..k, where A_i holds the
// nodes whose level is at least i: one multi-source Dijkstra per level
// that holds some but not all nodes, all zeros for a level holding every
// node (A_0 of a full hierarchy), and all Inf for empty levels and for
// A_k = ∅ (§3.1). Row l+1 is the truncation threshold of every level-l
// member's cluster.
func LevelDistances(g *graph.Graph, k int, levels []int) [][]graph.Dist {
	n := g.N()
	out := make([][]graph.Dist, k+1)
	for i := 0; i <= k; i++ {
		var ai []int
		for u := 0; u < n; u++ {
			if levels[u] >= i {
				ai = append(ai, u)
			}
		}
		switch len(ai) {
		case n:
			out[i] = make([]graph.Dist, n)
		case 0:
			out[i] = make([]graph.Dist, n)
			for u := range out[i] {
				out[i][u] = graph.Inf
			}
		default:
			out[i], _ = graph.MultiSourceDijkstra(g, ai)
		}
	}
	return out
}

// PivotChain computes the pivot chain p_0..p_{k-1} of a node from its
// canonical bunch: per level, the (dist, ID)-lexicographic minimum among
// the node itself (at levels up to topLevel), the level's bunch members,
// and the next level's pivot. This is the single pivot function shared by
// the centralized builder and the incremental repair path — a bunch
// determines its pivots, so a repair that reproduces a rebuild's bunch
// reproduces its pivots too. Bunch items with levels outside [0, k) are
// ignored (they cannot exist in builder output; wire input is unchecked).
func PivotChain(bunch []sketch.BunchItem, owner, topLevel, k int) []sketch.Pivot {
	byLevel := make([][2]int64, k) // (dist, id) lexmin per level; id -1 = none
	for i := range byLevel {
		byLevel[i] = [2]int64{int64(graph.Inf), -1}
	}
	for _, it := range bunch {
		if it.Level < 0 || it.Level >= k {
			continue
		}
		c := [2]int64{int64(it.Dist), int64(it.Node)}
		if lexLess(c, byLevel[it.Level]) {
			byLevel[it.Level] = c
		}
	}
	pivots := make([]sketch.Pivot, k)
	best := [2]int64{int64(graph.Inf), -1}
	for i := k - 1; i >= 0; i-- {
		if lexLess(byLevel[i], best) {
			best = byLevel[i]
		}
		if topLevel >= i {
			self := [2]int64{0, int64(owner)}
			if lexLess(self, best) {
				best = self
			}
		}
		pivots[i] = sketch.Pivot{Node: int(best[1]), Dist: graph.Dist(best[0])}
	}
	return pivots
}

// lexLess compares (dist, id) pairs; an id of -1 means "no candidate" and
// loses to any real candidate at the same distance.
func lexLess(a, b [2]int64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] == -1 {
		return false
	}
	if b[1] == -1 {
		return true
	}
	return a[1] < b[1]
}

// Grower regrows truncated clusters (§3.2) on one graph. Its distance
// scratch holds Inf everywhere except at the nodes the running growth has
// reached, which it resets on the way out, and its heap keeps its backing
// array; so after the first growth a call allocates nothing and costs
// O(cluster volume), never O(n). A Grower is not safe for concurrent use.
type Grower struct {
	g       *graph.Graph
	dist    []graph.Dist
	reached []int
	heap    graph.Heap
}

// NewGrower returns a Grower for g.
func NewGrower(g *graph.Graph) *Grower {
	dist := make([]graph.Dist, g.N())
	for u := range dist {
		dist[u] = graph.Inf
	}
	return &Grower{g: g, dist: dist}
}

// GrowCluster runs the truncated Dijkstra of §3.2 from hierarchy member w:
// visit(u, d) is called once per cluster member u — including w itself at
// distance 0 — in ascending (dist, ID) order, with d = d(u, w) < thresh[u].
// thresh must be d(·, A_{l+1}) for w's top level l; the truncation is sound
// because every vertex on a shortest path from w to a cluster member is
// itself in the cluster. Shared by BuildHierarchy and the incremental
// repair path, which regrows exactly the clusters a weight change can have
// touched.
func (gr *Grower) GrowCluster(w int, thresh []graph.Dist, visit func(u int, d graph.Dist)) {
	gr.Lower([]graph.HeapItem{{Node: w}}, thresh, nil, visit)
}

// Lower runs a truncated Dijkstra from several seeds, each the value Dist
// arriving at node Node: it accepts a value d at a node u only when
// d < thresh[u] and, unless above is nil, d < above(u). visit(u, d) is
// called once per accepted node, in ascending (dist, ID) order, with its
// final value. With above(u) the distance u recorded before a weight
// change (Inf when none), this is one column of the incremental repair's
// decrease propagation (see internal/core's repair_tz.go).
func (gr *Grower) Lower(seeds []graph.HeapItem, thresh []graph.Dist, above func(u int) graph.Dist, visit func(u int, d graph.Dist)) {
	dist, h := gr.dist, &gr.heap
	reach := func(v int, d graph.Dist) {
		if d >= dist[v] || d >= thresh[v] || above != nil && d >= above(v) {
			return
		}
		if dist[v] == graph.Inf {
			gr.reached = append(gr.reached, v)
		}
		dist[v] = d
		h.Push(graph.HeapItem{Dist: d, Node: v})
	}
	for _, s := range seeds {
		reach(s.Node, s.Dist)
	}
	for h.Len() > 0 {
		it := h.Pop()
		u := it.Node
		if it.Dist > dist[u] {
			continue // stale entry
		}
		visit(u, it.Dist)
		for _, a := range gr.g.Adj(u) {
			reach(a.To, graph.AddDist(it.Dist, a.Weight))
		}
	}
	for _, u := range gr.reached {
		dist[u] = graph.Inf
	}
	gr.reached = gr.reached[:0]
}

// Query returns the stretch-(2k-1) estimate between u and v (Lemma 3.2).
func (o *Oracle) Query(u, v int) graph.Dist {
	return sketch.QueryTZ(o.Labels[u], o.Labels[v])
}

// Label returns node u's label.
func (o *Oracle) Label(u int) *sketch.TZLabel { return o.Labels[u] }

// MaxLabelWords returns the maximum label size over all nodes, in words.
func (o *Oracle) MaxLabelWords() int {
	m := 0
	for _, l := range o.Labels {
		if s := l.SizeWords(); s > m {
			m = s
		}
	}
	return m
}

// MeanLabelWords returns the average label size in words.
func (o *Oracle) MeanLabelWords() float64 {
	total := 0
	for _, l := range o.Labels {
		total += l.SizeWords()
	}
	return float64(total) / float64(len(o.Labels))
}

// Clusters inverts the bunches: Clusters()[w] is C(w), the set of nodes u
// with w ∈ B(u). Used by the bunch/cluster duality tests.
func (o *Oracle) Clusters() map[int][]int {
	out := make(map[int][]int)
	for u, lab := range o.Labels {
		for _, it := range lab.Bunch {
			out[it.Node] = append(out[it.Node], u)
		}
	}
	return out
}
