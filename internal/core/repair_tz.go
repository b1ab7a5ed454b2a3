package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"distsketch/internal/graph"
	"distsketch/internal/sketch"
	"distsketch/internal/tz"
)

// Repair of Thorup–Zwick hierarchies (full-graph TZ labels, and the net
// hierarchies inside CDG and graceful labels) after a batch of edge
// weight changes. A rebuild would regrow every hierarchy member's
// truncated cluster (§3.2); a repair recomputes only what the batch can
// have changed, and shares every label whose bunch is untouched.
//
// Two repairs exist. A batch certified decrease-only on full-graph labels
// takes the decrease propagation (below). Every other batch, and every
// net hierarchy, takes the suspect-cluster repair: it regrows only the
// *suspects*, the members whose cluster can have changed, and splices the
// regrown memberships into the old bunches.
//
// With P = the endpoints of the changed edges, D = the artifact nodes
// whose distance to some hierarchy level A_i changed (detected by
// comparing stored pivot distances, which Build guarantees equal
// d(·, A_i), against fresh multi-source Dijkstra distances), and
// B_new(p) = {w : d_new(p, w) < d_new(p, A_{level(w)+1})} (the members
// whose *new* cluster contains p, from one full Dijkstra per endpoint),
// the suspect set is
//
//	W = (members of D ∪ P) ∪ ⋃_{x∈D} B_old(x) ∪ ⋃_{p∈P} B_new(p).
//
// Claim (decrease-only completeness): if no edge weight increased, every
// member w whose cluster membership or recorded distance differs between
// the old and new label sets is in W. Case analysis for an artifact x
// whose entry for w must change:
//
//   - x's truncation threshold d(x, A_{l+1}) shrank while d(x, w) is
//     unchanged (x drops out of C(w), or the stored distance is now
//     invalid): then x ∈ D, and if w was in x's old bunch, w ∈ B_old(x).
//   - d(x, w) decreased and x ∈ C_new(w): the new shortest w–x path uses
//     a changed edge, so it passes through some p ∈ P; by the cluster
//     prefix property (every vertex on a shortest path from w to a
//     cluster member is itself in the cluster), p ∈ C_new(w), hence
//     w ∈ B_new(p).
//   - d(x, w) decreased and x ∉ C_new(w) but x ∈ C_old(w): membership is
//     d(x, w) < d(x, A_{l+1}); losing it while d(x, w) shrinks forces
//     d(x, A_{l+1}) to shrink too, so x ∈ D and w ∈ B_old(x).
//
// Weight increases can invalidate a kept cluster with no witness in any
// of these sets, so callers either verify the full result afterwards
// (TZ: verifyHierarchyExact makes the repair sound under arbitrary
// changes) or certify the batch decrease-only up front and pass strict
// mode (CDG/graceful, whose net-restricted labels admit no complete
// post-hoc check).
//
// Decrease propagation. When a batch is certified decrease-only and every
// node carries a label (full-graph TZ), the changed entries are found and
// recomputed from the old labels alone, after Ramalingam & Reps'
// incremental shortest paths (J. Algorithms 21(2), 1996). Fix a member w
// of level l, the column of w's entries across all labels. Write d and d′
// for distances on the old and new graph, ℓ_x(w) for x's recorded
// distance to w (ℓ_w(w) = 0; ∞ when x records none), T_x = d(x, A_{l+1})
// and T′_x = d′(x, A_{l+1}) for x's old and fresh thresholds, and wt′ for
// a changed edge's new weight. The label test seeds column w: for every
// changed edge (a,b), in both orientations, with w = a or w ∈ B_old(a),
// and w ≠ b, the value s = ℓ_a(w) + wt′ arrives at b when
//
//	s < min(ℓ_b(w), T′_b).
//
// From each seeded column's seeds one Dijkstra runs on the new graph; it
// accepts a value v at a node y only when v < min(ℓ_y(w), T′_y). Then
// every node x's new entry for w is the value the Dijkstra settled at x
// when it reached x, else the old entry ℓ_x(w) when that is below T′_x,
// else none. A dart (a node of D) thereby drops the entries its fresh
// threshold no longer admits; no other node can hold such an entry.
//
// Claim (exactness): if no weight increased and the old labels were exact
// on the old graph, this gives every node exactly its rebuild entry
// d′(x, w) for x ∈ C_new(w), and none otherwise. No weight increased, so
// d′ ≤ d and T′ ≤ T everywhere. Every seed is the length of a walk in the
// new graph from w (ℓ_a(w) = d(a, w) ≥ d′(a, w)), so every value the
// Dijkstra holds at x is at least d′(x, w). Now take a node x:
//
//   - x ∉ C_new(w): no value reaches x, since each is ≥ d′(x, w) ≥ T′_x,
//     and an old entry ℓ_x(w) = d(x, w) ≥ d′(x, w) ≥ T′_x is dropped.
//   - x ∈ C_new(w) and d′(x, w) = d(x, w): no value below ℓ_x(w) =
//     d(x, w) exists, and x was a member (d(x, w) < T′_x ≤ T_x), so the
//     old entry stays, and it is exact.
//   - x ∈ C_new(w) and d′(x, w) < d(x, w): on a shortest new path from w
//     to x every node is in C_new(w), by the prefix property. Let a be
//     the last node on it whose distance to w did not fall (w itself
//     qualifies) and b its successor. The edge (a,b) changed: otherwise
//     d(b, w) ≤ d(a, w) + wt(a,b) = d′(b, w). By the case above ℓ_a(w) =
//     d′(a, w), so the seed at b is d′(b, w), below ℓ_b(w) = d(b, w) (or
//     ∞) and below T′_b. Every later node y on the path has d′(y, w) <
//     d(y, w) ≤ ℓ_y(w) and d′(y, w) < T′_y, so the Dijkstra accepts the
//     path's values all the way to x and settles x at d′(x, w).
//
// Seeds are themselves changed entries (a seed s at b has d′(b, w) ≤ s <
// min(ℓ_b(w), T′_b)), and a column neither seeded nor holding a dart's
// dropped entry is unchanged, so the propagation's work is proportional
// to the entries that change. The label test looks each of a's entries
// up in b's bunch, O(|B(a)| · log |B(b)|) per changed edge, instead of
// one full Dijkstra per endpoint. Batches of unknown direction (an
// EdgeChange without PrevWeight, or an increase) keep the suspect-cluster
// repair with the endpoint search, and so do the net hierarchies of CDG
// and graceful labels, whose endpoints may carry no label. The
// propagation trusts the old labels to be exact, which it cannot check;
// the TZ repair still verifies its result (verify_tz.go), so an inexact
// input can only surface as ErrUnsound, never as a wrong label.

// hierarchyRepair is the outcome of a hierarchy repair: repaired labels
// for every artifact node (nil where old was nil), the fresh per-level
// pivot distances on the new graph, and the number of clusters regrown
// (or, on the decrease path, of columns propagated).
type hierarchyRepair struct {
	labels    []*sketch.TZLabel
	pivotDist [][]graph.Dist
	regrown   int
}

// deriveTopLevel recovers a hierarchy member's top level from its own
// label: the largest i whose pivot is the node itself at distance zero.
// Sound under strictly positive weights (no other node can sit at
// distance zero), and exact for labels produced by Build, whose pivot
// chain always prefers (0, self) at levels up to the top level. Returns
// -1 if the label encodes no level.
func deriveTopLevel(l *sketch.TZLabel) int {
	for i := len(l.Pivots) - 1; i >= 0; i-- {
		if l.Pivots[i].Node == l.Owner && l.Pivots[i].Dist == 0 {
			return i
		}
	}
	return -1
}

// repairHierarchy is the suspect-cluster repair of a Thorup–Zwick
// hierarchy after a batch of weight changes, given the endpoint search's
// distance rows for the batch (endpointSearch; the graceful repair, which
// repairs one hierarchy per slack level on the same batch, runs it once
// and hands every level the same rows). levels[u] is u's top level or -1
// for non-members; old[u] is u's previous label or nil for nodes that
// carry none (net hierarchies keep labels only at net members). Labels
// whose bunch and pivots are unchanged are shared pointer-identically.
// strict additionally rejects (with ErrUnsound) any artifact whose
// distance to a hierarchy level increased — the callers that cannot
// verify the final result use it to enforce their decrease-only contract.
func repairHierarchy(g *graph.Graph, k int, levels []int, old []*sketch.TZLabel, rows *endpointRows, strict bool) (*hierarchyRepair, error) {
	n := g.N()

	// Fresh d(·, A_i) on the new graph, one multi-source Dijkstra per
	// level — these are both the D-detector and the regrowth thresholds.
	hr := &hierarchyRepair{pivotDist: tz.LevelDistances(g, k, levels)}
	dart, err := hierarchyDarts(n, k, levels, old, hr.pivotDist, strict)
	if err != nil {
		return nil, err
	}
	suspect := make([]bool, n)
	for x, isDart := range dart {
		if !isDart {
			continue
		}
		if levels[x] >= 0 {
			suspect[x] = true
		}
		for _, it := range old[x].Bunch {
			suspect[it.Node] = true
		}
	}
	rows.markSuspects(levels, hr.pivotDist, suspect)

	// Regrow every suspect cluster on the new graph. Suspects are walked
	// in ascending ID order, so each artifact's contributions arrive
	// sorted by member ID and splice with a linear merge.
	contrib := make([][]sketch.BunchItem, n)
	gr := tz.NewGrower(g)
	for w := 0; w < n; w++ {
		if !suspect[w] {
			continue
		}
		l := levels[w]
		hr.regrown++
		gr.GrowCluster(w, hr.pivotDist[l+1], func(u int, d graph.Dist) {
			if u != w && old[u] != nil {
				contrib[u] = append(contrib[u], sketch.BunchItem{Node: w, Dist: d, Level: l})
			}
		})
	}

	// Splice: keep old entries for non-suspect members (their clusters
	// cannot have changed), replace the suspects' entries with the
	// regrown memberships, and share the label when nothing moved.
	hr.labels = make([]*sketch.TZLabel, n)
	for x, lab := range old {
		if lab == nil {
			continue
		}
		newB := spliceBunch(lab.Bunch, contrib[x], suspect)
		if !dart[x] && slices.Equal(newB, lab.Bunch) {
			hr.labels[x] = lab
			continue
		}
		hr.labels[x] = relabel(x, k, levels[x], newB)
	}
	return hr, nil
}

// relabel returns x's new label: the canonical bunch and the pivot chain
// it determines.
func relabel(x, k, level int, bunch []sketch.BunchItem) *sketch.TZLabel {
	nl := sketch.NewTZLabel(x, k)
	nl.SetBunch(bunch)
	nl.Pivots = tz.PivotChain(nl.Bunch, x, level, k)
	return nl
}

// hierarchyDarts validates the old bunches against the hierarchy and
// returns the darts D: the labelled nodes whose stored distance to some
// level differs from the fresh one in pivotDist.
func hierarchyDarts(n, k int, levels []int, old []*sketch.TZLabel, pivotDist [][]graph.Dist, strict bool) ([]bool, error) {
	dart := make([]bool, n)
	for x, lab := range old {
		if lab == nil {
			continue
		}
		for _, it := range lab.Bunch {
			if it.Node < 0 || it.Node >= n || it.Level < 0 || it.Level >= k || levels[it.Node] != it.Level {
				return nil, fmt.Errorf("core: node %d bunch entry (%d, level %d) does not match the derived hierarchy; repair requires labels produced by Build", x, it.Node, it.Level)
			}
		}
		for i := 0; i < k; i++ {
			stored, fresh := lab.Pivots[i].Dist, pivotDist[i][x]
			if stored == fresh {
				continue
			}
			if strict && fresh > stored {
				return nil, fmt.Errorf("core: node %d's distance to hierarchy level %d increased (%d → %d) under a decrease-only batch; the graph does not match the certified changes: %w", x, i, stored, fresh, ErrUnsound)
			}
			dart[x] = true
		}
	}
	return dart, nil
}

// endpointRows holds the endpoint search's distances: d_new(p, ·) for
// every distinct endpoint p of a batch's changed edges, endpoints in
// ascending order. They depend on the graph and the batch, not on a
// hierarchy.
type endpointRows struct {
	nodes []int
	dist  [][]graph.Dist
}

// endpointSearch runs one full Dijkstra on g per distinct endpoint of
// pairs.
func endpointSearch(g *graph.Graph, pairs [][2]int) *endpointRows {
	var nodes []int
	for _, p := range pairs {
		nodes = append(nodes, p[0], p[1])
	}
	sort.Ints(nodes)
	nodes = slices.Compact(nodes)
	rows := &endpointRows{nodes: nodes, dist: make([][]graph.Dist, len(nodes))}
	for i, p := range nodes {
		rows.dist[i] = graph.Dijkstra(g, p).Dist
	}
	return rows
}

// markSuspects marks the members of P and of B_new(p) for every endpoint
// p, given the hierarchy's fresh per-level distances.
func (r *endpointRows) markSuspects(levels []int, pivotDist [][]graph.Dist, suspect []bool) {
	for i, p := range r.nodes {
		if levels[p] >= 0 {
			suspect[p] = true
		}
		for w, d := range r.dist[i] {
			if levels[w] >= 0 && d != graph.Inf && d < pivotDist[levels[w]+1][p] {
				suspect[w] = true
			}
		}
	}
}

// spliceBunch merges the kept (non-suspect) entries of old with the
// regrown contributions. Both inputs are sorted ascending by node ID and
// their key sets are disjoint — kept entries name non-suspects, grown
// entries name suspects — so this is a plain two-pointer merge.
func spliceBunch(old, grown []sketch.BunchItem, suspect []bool) []sketch.BunchItem {
	out := make([]sketch.BunchItem, 0, len(old)+len(grown))
	i, j := 0, 0
	for i < len(old) || j < len(grown) {
		if i < len(old) && suspect[old[i].Node] {
			i++
			continue
		}
		if i >= len(old) && j >= len(grown) {
			break // only suspect entries remained
		}
		if i < len(old) && (j >= len(grown) || old[i].Node < grown[j].Node) {
			out = append(out, old[i])
			i++
		} else {
			out = append(out, grown[j])
			j++
		}
	}
	return out
}

// seed is one value of the label test: d = ℓ_a(w) + wt′ arriving at node
// b over a changed edge (a,b), for column w.
type seed struct {
	w, b int
	d    graph.Dist
}

// decreaseSeeds applies the label test (see "Decrease propagation"
// above) to every changed edge in both orientations, and returns the
// seeds sorted by column. pivotDist holds the fresh per-level distances.
func decreaseSeeds(g *graph.Graph, levels []int, old []*sketch.TZLabel, pivotDist [][]graph.Dist, pairs [][2]int) []seed {
	var seeds []seed
	for _, p := range pairs {
		wt, _ := g.EdgeWeight(p[0], p[1]) // validated by normalizeChanges
		for _, ab := range [2][2]int{p, {p[1], p[0]}} {
			a, b := ab[0], ab[1]
			offer := func(w, level int, s graph.Dist) {
				if have, _ := old[b].DistTo(w); s < have && s < pivotDist[level+1][b] {
					seeds = append(seeds, seed{w: w, b: b, d: s})
				}
			}
			if lv := levels[a]; lv >= 0 {
				offer(a, lv, wt)
			}
			for _, e := range old[a].Bunch {
				if e.Node != b {
					offer(e.Node, e.Level, graph.AddDist(e.Dist, wt))
				}
			}
		}
	}
	slices.SortFunc(seeds, func(x, y seed) int { return cmp.Compare(x.w, y.w) })
	return seeds
}

// propagateDecreases repairs full-graph labels after a certified
// decrease-only batch with the decrease propagation: the label test's
// seeds, one Dijkstra per seeded column, and the darts' drops.
func propagateDecreases(g *graph.Graph, k int, levels []int, old []*sketch.TZLabel, pairs [][2]int) (*hierarchyRepair, error) {
	n := g.N()
	hr := &hierarchyRepair{pivotDist: tz.LevelDistances(g, k, levels)}
	dart, err := hierarchyDarts(n, k, levels, old, hr.pivotDist, false)
	if err != nil {
		return nil, err
	}
	seeds := decreaseSeeds(g, levels, old, hr.pivotDist, pairs)

	// Columns are propagated in ascending member order, so each node's
	// lowered entries arrive sorted by member ID.
	lowered := make([][]sketch.BunchItem, n)
	gr := tz.NewGrower(g)
	var from []graph.HeapItem
	for i := 0; i < len(seeds); {
		w, l := seeds[i].w, levels[seeds[i].w]
		from = from[:0]
		for ; i < len(seeds) && seeds[i].w == w; i++ {
			from = append(from, graph.HeapItem{Dist: seeds[i].d, Node: seeds[i].b})
		}
		hr.regrown++
		gr.Lower(from, hr.pivotDist[l+1],
			func(y int) graph.Dist { d, _ := old[y].DistTo(w); return d },
			func(x int, d graph.Dist) {
				lowered[x] = append(lowered[x], sketch.BunchItem{Node: w, Dist: d, Level: l})
			})
	}

	hr.labels = make([]*sketch.TZLabel, n)
	for x, lab := range old {
		if !dart[x] && len(lowered[x]) == 0 {
			hr.labels[x] = lab
			continue
		}
		hr.labels[x] = relabel(x, k, levels[x], lowerBunch(lab.Bunch, lowered[x], hr.pivotDist, x))
	}
	return hr, nil
}

// lowerBunch merges x's old bunch with its lowered entries (both sorted by
// node ID): a lowered entry replaces or joins the old one, and an old
// entry stays only while it is below x's fresh threshold.
func lowerBunch(old, lowered []sketch.BunchItem, pivotDist [][]graph.Dist, x int) []sketch.BunchItem {
	out := make([]sketch.BunchItem, 0, len(old)+len(lowered))
	j := 0
	for _, it := range old {
		for j < len(lowered) && lowered[j].Node < it.Node {
			out = append(out, lowered[j])
			j++
		}
		if j < len(lowered) && lowered[j].Node == it.Node {
			out = append(out, lowered[j])
			j++
		} else if it.Dist < pivotDist[it.Level+1][x] {
			out = append(out, it)
		}
	}
	return append(out, lowered[j:]...)
}
