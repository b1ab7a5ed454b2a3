package core

import (
	"fmt"
	"sort"

	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// VerifyLandmarkExact checks that labels are the exact distances from
// every node to every net member on g. It is the guard that makes
// incremental repair safe to expose: the warm-start protocol of
// UpdateLandmark is exact only when the changed edge's weight decreased,
// and a caller who hands it an *increase* would otherwise receive
// silently understated labels. The check is purely local (no simulated
// messages, so it never pollutes the CONGEST cost accounting) and runs
// in O((n+m)·|net|) time.
//
// The characterization used: a column ℓ(·) = labels[·].Get(w) equals
// d(·, w) exactly when
//
//  1. ℓ(w) = 0;
//  2. feasibility — ℓ(u) ≤ ℓ(v) + weight(u,v) across every edge, in both
//     directions (then ℓ is entrywise ≤ d by induction along shortest
//     paths, with missing entries read as +∞);
//  3. support — every node u ≠ w with finite ℓ(u) has a neighbor v with
//     ℓ(u) = ℓ(v) + weight(u,v) (then ℓ(u) is the length of a real walk
//     to w, hence ≥ d(u, w); support chains strictly decrease ℓ under
//     positive weights, so they terminate at w).
//
// Precondition: every edge weight is strictly positive. With a
// zero-weight edge the support condition would be necessary but not
// sufficient (a zero-weight cycle could support stale labels), so the
// caller must refuse such graphs before asking for verification —
// SketchSet.UpdateEdges does. The generators in this repository produce
// weights ≥ 1.
func VerifyLandmarkExact(g *graph.Graph, labels []*sketch.LandmarkLabel, net []int) error {
	n := g.N()
	if len(labels) != n {
		return fmt.Errorf("core: %d labels for n=%d", len(labels), n)
	}
	for _, w := range net {
		if w < 0 || w >= n {
			return fmt.Errorf("core: net node %d out of range [0,%d)", w, n)
		}
	}
	// Columns are checked in ascending net order with one cursor per
	// node's entry slice: the entries are sorted, so every lookup is a
	// monotone cursor advance — amortized O(1), preserving the
	// O((n+m)·|net|) bound a binary search per access would not. The
	// caller's net order is unconstrained (it may come from an untrusted
	// envelope), so iterate a sorted copy; column checks are
	// order-independent.
	sorted := append([]int(nil), net...)
	sort.Ints(sorted)
	cur := make([]int, n)
	at := func(u, w int) (graph.Dist, bool) {
		es := labels[u].Entries
		for cur[u] < len(es) && es[cur[u]].Net < w {
			cur[u]++
		}
		if cur[u] < len(es) && es[cur[u]].Net == w {
			return es[cur[u]].D, true
		}
		return 0, false
	}
	for _, w := range sorted {
		if d, ok := at(w, w); !ok {
			return fmt.Errorf("core: net node %d is missing its own label entry", w)
		} else if d != 0 {
			return fmt.Errorf("core: net node %d has distance %d to itself", w, d)
		}
		for u := 0; u < n; u++ {
			lu, okU := at(u, w)
			if !okU {
				lu = graph.Inf
			}
			supported := u == w || !okU
			for _, arc := range g.Adj(u) {
				lv, okV := at(arc.To, w)
				if !okV {
					lv = graph.Inf
				}
				through := graph.AddDist(lv, arc.Weight)
				if lu > through {
					return fmt.Errorf("core: label d(%d,%d)=%d exceeds %d via neighbor %d", u, w, lu, through, arc.To)
				}
				if lu == through && through != graph.Inf {
					supported = true
				}
			}
			if !supported {
				return fmt.Errorf("core: label d(%d,%d)=%d is below the distance achievable through any neighbor (stale lower bound)", u, w, lu)
			}
		}
	}
	return nil
}
