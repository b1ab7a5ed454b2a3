package core

import (
	"fmt"
	"sort"

	"distsketch/internal/graph"
	"distsketch/internal/sketch"
	"distsketch/internal/tz"
)

// Suspect-cluster repair for Thorup–Zwick hierarchies (full-graph TZ
// labels, and the net hierarchies inside CDG and graceful labels).
//
// A rebuild would regrow every hierarchy member's truncated cluster
// (§3.2). The repair instead regrows only the *suspects* — the members
// whose cluster can have changed — and splices the regrown memberships
// into the old bunches, sharing every label whose bunch is untouched.
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
// The label test. When a batch is certified decrease-only and every node
// carries a label (full-graph TZ), the endpoint Dijkstras can be replaced
// by a test on the old labels, after Ramalingam & Reps (J. Algorithms
// 21(2), 1996). Fix a member w of level l. Write d and d′ for distances
// on the old and new graph, ℓ_a(w) for a's recorded distance to w
// (ℓ_a(a) = 0 for a member a), T_x = d(x, A_{l+1}) and T′_x = d′(x,
// A_{l+1}) for x's old and fresh thresholds, and wt′ for a changed edge's
// new weight. For every changed edge (a,b), in both orientations, each
// w ∈ B_old(a) ∪ {a, if a is a member} with w ≠ b is a suspect iff
//
//	ℓ_a(w) + wt′ < ℓ_b(w)    when w ∈ B_old(b),
//	ℓ_a(w) + wt′ < T′_b      otherwise.
//
// The suspect set is then W′ = (members of D) ∪ ⋃_{x∈D} B_old(x) ∪ (the
// members the test marks): the darts stay, and the endpoints are no
// longer suspects unconditionally.
//
// Claim (completeness of W′): if no weight increased and the old labels
// were exact on the old graph, every member w whose cluster membership or
// recorded distance differs between the old and new label sets is in W′.
// No weight increased, so d′ ≤ d and T′ ≤ T everywhere. Take a node x
// whose entry for w must change:
//
//   - x ∈ C_old(w) but x ∉ C_new(w): d′(x, w) ≤ d(x, w) < T_x while
//     d′(x, w) ≥ T′_x, so x's threshold fell: x ∈ D and w ∈ B_old(x), a
//     dart.
//   - x ∈ C_new(w): then d′(x, w) < d(x, w), since at an unchanged
//     distance d(x, w) < T′_x ≤ T_x, so x was a member with the same
//     entry. On a shortest new path from w to x, take the first node b
//     whose distance to w fell (b ≠ w) and its predecessor a, whose
//     distance did not. The edge (a,b) changed: otherwise d(b, w) ≤
//     d(a, w) + wt(a,b) = d′(b, w). a is on the path, so a ∈ C_new(w) by
//     the prefix property, and d(a, w) = d′(a, w) < T′_a ≤ T_a: a was
//     already in C_old(w) (or a = w, a member), and ℓ_a(w) = d(a, w).
//     Hence ℓ_a(w) + wt′ = d′(b, w), which is below d(b, w) = ℓ_b(w) when
//     w ∈ B_old(b), and below T′_b otherwise because b ∈ C_new(w). The
//     orientation (a,b) marks w.
//
// The test looks each of a's entries up in b's sorted bunch,
// O(|B(a)| · log |B(b)|) per changed edge instead of a full Dijkstra per
// endpoint. Batches of unknown direction (an EdgeChange without
// PrevWeight, or an increase) keep the endpoint search, and so do the net
// hierarchies of CDG and graceful labels, whose endpoints may carry no
// label. The test trusts the old labels to be exact, which it cannot
// check; the TZ repair still verifies its result with
// verifyHierarchyExact, so an inexact input or an incomplete suspect set
// can only surface as ErrUnsound, never as a wrong label.

// suspectRule selects how repairHierarchy finds the clusters a batch can
// have changed, besides the darts.
type suspectRule int

const (
	// endpointSearch adds the members of P and B_new(p) for every
	// endpoint p, one full Dijkstra each. Complete for decrease-only
	// batches; the only rule for batches of unknown direction.
	endpointSearch suspectRule = iota
	// labelTest adds the members the old-label test marks. Requires a
	// certified decrease-only batch and a label at every endpoint.
	labelTest
)

// hierarchyRepair is the outcome of repairHierarchy: repaired labels for
// every artifact node (nil where old was nil), the fresh per-level pivot
// distances on the new graph, and the number of clusters regrown.
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

// repairHierarchy repairs the labels of a Thorup–Zwick hierarchy after
// the weight changes whose endpoint pairs are given. levels[u] is u's
// top level or -1 for non-members; old[u] is u's previous label or nil
// for nodes that carry none (net hierarchies keep labels only at net
// members). rule picks the suspect search (labelTest only for certified
// decrease-only pairs with a label at every endpoint). Labels whose bunch
// and pivots are unchanged are shared pointer-identically. strict
// additionally rejects (with ErrUnsound) any artifact whose distance to a
// hierarchy level increased — the callers that cannot verify the final
// result use it to enforce their decrease-only contract.
func repairHierarchy(g *graph.Graph, k int, levels []int, old []*sketch.TZLabel, pairs [][2]int, rule suspectRule, strict bool) (*hierarchyRepair, error) {
	n := g.N()

	// Fresh d(·, A_i) on the new graph, one multi-source Dijkstra per
	// level — these are both the D-detector and the regrowth thresholds.
	hr := &hierarchyRepair{pivotDist: tz.LevelDistances(g, k, levels)}
	suspect, dart, err := hierarchySuspects(g, k, levels, old, hr.pivotDist, pairs, rule, strict)
	if err != nil {
		return nil, err
	}

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
		if !dart[x] && bunchesEqual(newB, lab.Bunch) {
			hr.labels[x] = lab
			continue
		}
		nl := sketch.NewTZLabel(x, k)
		nl.SetBunch(newB)
		nl.Pivots = tz.PivotChain(nl.Bunch, x, levels[x], k)
		hr.labels[x] = nl
	}
	return hr, nil
}

// hierarchySuspects validates the old bunches against the hierarchy and
// returns the suspect set (W, or W′ under labelTest) and the darts D,
// given the fresh per-level distances pivotDist on g.
func hierarchySuspects(g *graph.Graph, k int, levels []int, old []*sketch.TZLabel, pivotDist [][]graph.Dist, pairs [][2]int, rule suspectRule, strict bool) (suspect, dart []bool, err error) {
	n := g.N()
	suspect = make([]bool, n)
	dart = make([]bool, n)
	for x, lab := range old {
		if lab == nil {
			continue
		}
		for _, it := range lab.Bunch {
			if it.Node < 0 || it.Node >= n || it.Level < 0 || it.Level >= k || levels[it.Node] != it.Level {
				return nil, nil, fmt.Errorf("core: node %d bunch entry (%d, level %d) does not match the derived hierarchy; repair requires labels produced by Build", x, it.Node, it.Level)
			}
		}
		for i := 0; i < k; i++ {
			stored, fresh := lab.Pivots[i].Dist, pivotDist[i][x]
			if stored == fresh {
				continue
			}
			if strict && fresh > stored {
				return nil, nil, fmt.Errorf("core: node %d's distance to hierarchy level %d increased (%d → %d) under a decrease-only batch; the graph does not match the certified changes: %w", x, i, stored, fresh, ErrUnsound)
			}
			dart[x] = true
		}
		if dart[x] {
			if levels[x] >= 0 {
				suspect[x] = true
			}
			for _, it := range lab.Bunch {
				suspect[it.Node] = true
			}
		}
	}
	if rule == labelTest {
		labelSuspects(g, levels, old, pivotDist, pairs, suspect)
	} else {
		endpointSuspects(g, levels, pivotDist, pairs, suspect)
	}
	return suspect, dart, nil
}

// endpointSuspects marks the members of P and B_new(p) for every endpoint
// p: one full Dijkstra each, endpoints deduped and sorted for a
// deterministic traversal order.
func endpointSuspects(g *graph.Graph, levels []int, pivotDist [][]graph.Dist, pairs [][2]int, suspect []bool) {
	n := g.N()
	epSet := make(map[int]bool, 2*len(pairs))
	for _, p := range pairs {
		epSet[p[0]] = true
		epSet[p[1]] = true
	}
	endpoints := make([]int, 0, len(epSet))
	for p := range epSet {
		endpoints = append(endpoints, p)
	}
	sort.Ints(endpoints)
	for _, p := range endpoints {
		if levels[p] >= 0 {
			suspect[p] = true
		}
		sp := graph.Dijkstra(g, p)
		for w := 0; w < n; w++ {
			if levels[w] < 0 || sp.Dist[w] == graph.Inf {
				continue
			}
			if sp.Dist[w] < pivotDist[levels[w]+1][p] {
				suspect[w] = true
			}
		}
	}
}

// labelSuspects marks the members the label test (see above) finds for
// each changed edge, in both orientations.
func labelSuspects(g *graph.Graph, levels []int, old []*sketch.TZLabel, pivotDist [][]graph.Dist, pairs [][2]int, suspect []bool) {
	for _, p := range pairs {
		wt, _ := g.EdgeWeight(p[0], p[1]) // validated by normalizeChanges
		for _, ab := range [2][2]int{p, {p[1], p[0]}} {
			a, b := ab[0], ab[1]
			// beats reports whether through = ℓ_a(w) + wt′ is below b's
			// entry for w, or below b's threshold when b has none.
			beats := func(w, level int, through graph.Dist) bool {
				if j, ok := bunchIndex(old[b].Bunch, w); ok {
					return through < old[b].Bunch[j].Dist
				}
				return through < pivotDist[level+1][b]
			}
			if lv := levels[a]; lv >= 0 && beats(a, lv, wt) {
				suspect[a] = true
			}
			for _, e := range old[a].Bunch {
				if e.Node != b && beats(e.Node, e.Level, graph.AddDist(e.Dist, wt)) {
					suspect[e.Node] = true
				}
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

func bunchesEqual(a, b []sketch.BunchItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
