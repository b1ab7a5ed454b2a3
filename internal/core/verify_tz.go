package core

import (
	"fmt"

	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// verifyHierarchyExact checks that full-graph Thorup–Zwick labels are
// exactly what a rebuild on g would produce, given the hierarchy levels
// and *fresh* per-level pivot distances (d(·, A_i) computed on g — the
// caller's repairHierarchy already holds them). It is the hierarchy
// analogue of VerifyLandmarkExact: a Bellman–Ford-style fixed-point
// check over the truncated clusters, written sparsely so it costs
// O(m · avg-bunch) instead of one Dijkstra per hierarchy member.
//
// Write ℓ_u(w) for u's recorded distance to bunch member w (∞ when
// absent, 0 implicitly when u = w) and T_u(w) = d(u, A_{level(w)+1}) for
// the fresh truncation threshold. The labels pass iff for every node u:
//
//	validity: every entry has ℓ_u(w) < T_u(w), w ≠ u, and w's recorded
//	          level matches the hierarchy;
//	closure:  for every edge (u,v) and member w with ℓ_v(w) finite,
//	          if ℓ_v(w) + wt(u,v) < T_u(w) then ℓ_u(w) ≤ ℓ_v(w) + wt;
//	support:  every entry ℓ_u(w) (u ≠ w) has a neighbor v with
//	          ℓ_u(w) = ℓ_v(w) + wt(u,v).
//
// Soundness and completeness (strictly positive weights): exact labels
// satisfy all three — validity is the cluster membership condition,
// closure is the triangle inequality on true distances plus the cluster
// prefix property (a relaxation that beats T_u(w) stays inside C(w)),
// and support takes v as the predecessor on a shortest u–w path, in C(w)
// by the same prefix property. Conversely, support chains strictly
// decrease ℓ along positive-weight edges, so by induction on ℓ every
// recorded value is ≥ the true distance; closure applied along shortest
// paths (whose prefixes stay in the cluster) forces ℓ_u(w) ≤ d(u, w)
// for every u ∈ C_new(w) — walking from w outward, each hop's through
// value equals the true distance, which is < T by membership — so
// recorded values on true members are exact and no member is missing;
// validity then kills any entry outside the new cluster, since its
// exact-by-induction value could not beat the fresh threshold. Hence
// labels ≡ rebuild. The check never consults the old graph, which is
// what makes the TZ repair sound under arbitrary weight changes.
//
// Requires a label at every node (full-graph hierarchies only — the
// net-restricted labels of CDG sketches cannot be verified this way,
// because closure across non-member nodes has no recorded ℓ to check).
func verifyHierarchyExact(g *graph.Graph, levels []int, labels []*sketch.TZLabel, pivotDist [][]graph.Dist) error {
	n := g.N()
	if len(labels) != n {
		return fmt.Errorf("core: %d labels for n=%d", len(labels), n)
	}

	// Validity first, at every node, so the walk below may index by any
	// neighbour's entries.
	for u, lab := range labels {
		if lab == nil {
			return fmt.Errorf("core: node %d has no label", u)
		}
		for _, it := range lab.Bunch {
			if it.Node == u {
				return fmt.Errorf("core: node %d lists itself in its bunch", u)
			}
			if it.Node < 0 || it.Node >= n || it.Level < 0 || it.Level >= len(pivotDist)-1 || levels[it.Node] != it.Level {
				return fmt.Errorf("core: node %d bunch entry (%d, level %d) does not match the hierarchy", u, it.Node, it.Level)
			}
			if it.Dist >= pivotDist[it.Level+1][u] {
				return fmt.Errorf("core: node %d keeps member %d at distance %d ≥ threshold %d (stale membership)", u, it.Node, it.Dist, pivotDist[it.Level+1][u])
			}
		}
	}

	// Closure across every arc and support, node by node. pos[w] is 1 +
	// w's index in B(u) while u is walked (0 when absent), so each
	// neighbour entry finds u's in O(1); thresh holds T_u for every
	// level. Both arc directions appear in the adjacency lists, so each
	// unordered edge is relaxed both ways.
	pos := make([]int32, n)
	thresh := make([]graph.Dist, len(pivotDist))
	var supported []bool
	for u := 0; u < n; u++ {
		bu := labels[u].Bunch
		for i, it := range bu {
			pos[it.Node] = int32(i + 1)
		}
		for l := range thresh {
			thresh[l] = pivotDist[l][u]
		}
		supported = append(supported[:0], make([]bool, len(bu))...)
		for _, a := range g.Adj(u) {
			v, wt := a.To, a.Weight

			// The neighbor itself as member w = v (ℓ_v(v) = 0 implicit).
			if lv := levels[v]; lv >= 0 {
				if p := pos[v]; p == 0 {
					if wt < thresh[lv+1] {
						return fmt.Errorf("core: node %d is missing hierarchy neighbor %d (reachable at %d < threshold %d)", u, v, wt, thresh[lv+1])
					}
				} else {
					if d := bu[p-1].Dist; d > wt {
						return fmt.Errorf("core: node %d records member %d at %d but the direct edge costs %d", u, v, d, wt)
					} else if d == wt {
						supported[p-1] = true
					}
				}
			}

			// Members seen through v's bunch.
			for _, e := range labels[v].Bunch {
				w := e.Node
				if w == u || w == v {
					continue
				}
				through := graph.AddDist(e.Dist, wt)
				if p := pos[w]; p != 0 {
					d := bu[p-1].Dist
					if d > through && through < thresh[e.Level+1] {
						return fmt.Errorf("core: node %d records member %d at %d but neighbor %d offers %d", u, w, d, v, through)
					}
					if d == through {
						supported[p-1] = true
					}
				} else if through < thresh[e.Level+1] {
					return fmt.Errorf("core: node %d is missing member %d (reachable through %d at %d < threshold %d)", u, w, v, through, thresh[e.Level+1])
				}
			}
		}

		// Every recorded entry must be supported, or it is a stale value
		// no relaxation on the new graph reproduces.
		for i, ok := range supported {
			if !ok {
				return fmt.Errorf("core: node %d's entry for member %d (distance %d) has no supporting neighbor", u, bu[i].Node, bu[i].Dist)
			}
		}
		for _, it := range bu {
			pos[it.Node] = 0
		}
	}
	return nil
}

// bunchIndex finds node w in a canonical (sorted by node ID) bunch.
func bunchIndex(b []sketch.BunchItem, w int) (int, bool) {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if b[mid].Node < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b) && b[lo].Node == w {
		return lo, true
	}
	return lo, false
}
