package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"distsketch/internal/graph"
	"distsketch/internal/sketch"
	"distsketch/internal/tz"
)

// verifyHierarchyRef is the merge-cursor verifier that the
// scatter-indexed verifyHierarchyExact replaced, kept as its reference:
// validity at every node, then closure and support by merging each
// neighbour's bunch into B(u) once per arc, then the support sweep.
func verifyHierarchyRef(g *graph.Graph, levels []int, labels []*sketch.TZLabel, pivotDist [][]graph.Dist) error {
	n := g.N()
	if len(labels) != n {
		return fmt.Errorf("%d labels for n=%d", len(labels), n)
	}
	supported := make([][]bool, n)
	for u, lab := range labels {
		if lab == nil {
			return fmt.Errorf("node %d has no label", u)
		}
		for _, it := range lab.Bunch {
			if it.Node == u {
				return fmt.Errorf("node %d lists itself", u)
			}
			if it.Node < 0 || it.Node >= n || it.Level < 0 || it.Level >= len(pivotDist)-1 || levels[it.Node] != it.Level {
				return fmt.Errorf("node %d entry (%d, level %d) off the hierarchy", u, it.Node, it.Level)
			}
			if it.Dist >= pivotDist[it.Level+1][u] {
				return fmt.Errorf("node %d keeps member %d past its threshold", u, it.Node)
			}
		}
		supported[u] = make([]bool, len(lab.Bunch))
	}
	for u := 0; u < n; u++ {
		bu := labels[u].Bunch
		for _, a := range g.Adj(u) {
			v, wt := a.To, a.Weight
			if lv := levels[v]; lv >= 0 {
				idx, found := bunchIndex(bu, v)
				if !found {
					if wt < pivotDist[lv+1][u] {
						return fmt.Errorf("node %d misses neighbour %d", u, v)
					}
				} else {
					if bu[idx].Dist > wt {
						return fmt.Errorf("node %d records neighbour %d above the edge", u, v)
					}
					if bu[idx].Dist == wt {
						supported[u][idx] = true
					}
				}
			}
			i := 0
			for _, e := range labels[v].Bunch {
				w := e.Node
				if w == u || w == v {
					continue
				}
				through := graph.AddDist(e.Dist, wt)
				thresh := pivotDist[e.Level+1][u]
				for i < len(bu) && bu[i].Node < w {
					i++
				}
				if i < len(bu) && bu[i].Node == w {
					if bu[i].Dist > through && through < thresh {
						return fmt.Errorf("node %d records member %d above neighbour %d's offer", u, w, v)
					}
					if bu[i].Dist == through {
						supported[u][i] = true
					}
				} else if through < thresh {
					return fmt.Errorf("node %d misses member %d", u, w)
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		for idx, ok := range supported[u] {
			if !ok {
				return fmt.Errorf("node %d's entry %d is unsupported", u, idx)
			}
		}
	}
	return nil
}

// TestVerifyHierarchyMatchesReference: on every family and k = 1..4, the
// scatter-indexed verifier and the merge-cursor reference reach the same
// decision on exact labels and on single-node corruptions of them (each
// of which both must reject); on a graph whose weights are near Inf/2,
// where AddDist saturates, they still agree.
func TestVerifyHierarchyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(20, 9))
	ran := map[string]int{}
	for _, f := range graph.AllFamilies() {
		for k := 1; k <= 4; k++ {
			g := graph.Make(f, 40, graph.UniformWeights(1, 8), uint64(10*k))
			checkVerifiers(t, fmt.Sprintf("%s k=%d", f, k), g, k, r, true, ran)
		}
	}
	const half = graph.Inf / 2
	for k := 1; k <= 4; k++ {
		g := graph.Make(graph.FamilyGeometric, 40, graph.UniformWeights(half-8, half), uint64(k))
		checkVerifiers(t, fmt.Sprintf("near-Inf/2 k=%d", k), g, k, r, false, ran)
	}
	for _, c := range corruptions(2) {
		if ran[c.name] < 20 {
			t.Errorf("corruption %q applied %d times, want ≥ 20", c.name, ran[c.name])
		}
	}
}

// checkVerifiers builds g's hierarchy and compares both verifiers on its
// exact labels and on three random nodes' copies of every corruption.
// exact says the weights are small enough that the exact labels must be
// accepted and every corruption rejected. ran counts corruptions applied.
func checkVerifiers(t *testing.T, name string, g *graph.Graph, k int, r *rand.Rand, exact bool, ran map[string]int) {
	t.Helper()
	o, err := tz.Build(g, k, uint64(k))
	if err != nil {
		t.Fatal(err)
	}
	pivotDist := tz.LevelDistances(g, k, o.Levels)
	compare := func(what string, labels []*sketch.TZLabel, wantAccept bool) {
		t.Helper()
		got := verifyHierarchyExact(g, o.Levels, labels, pivotDist)
		ref := verifyHierarchyRef(g, o.Levels, labels, pivotDist)
		if (got == nil) != (ref == nil) {
			t.Errorf("%s, %s: verifier says %v, reference says %v", name, what, got, ref)
		} else if exact && (got == nil) != wantAccept {
			t.Errorf("%s, %s: verifier says %v, want accepted = %v", name, what, got, wantAccept)
		}
	}
	compare("exact labels", o.Labels, true)

	n := g.N()
	for _, c := range corruptions(k) {
		for rep := 0; rep < 3; rep++ {
			u := r.IntN(n)
			lab := o.Labels[u]
			sp := graph.Dijkstra(g, u)
			bunch := c.apply(r, u, slices.Clone(lab.Bunch), o.Levels, pivotDist, sp.Dist)
			if bunch == nil {
				continue // this node offers nothing to corrupt
			}
			ran[c.name]++
			labels := slices.Clone(o.Labels)
			labels[u] = &sketch.TZLabel{Owner: lab.Owner, K: lab.K, Pivots: lab.Pivots, Bunch: bunch}
			compare(fmt.Sprintf("%s at node %d", c.name, u), labels, false)
		}
	}
}

// corruption rewrites one node's bunch (a private copy) into a wrong but
// still canonical one, or returns nil when the node offers no target.
type corruption struct {
	name  string
	apply func(r *rand.Rand, u int, b []sketch.BunchItem, levels []int, pivotDist [][]graph.Dist, dist []graph.Dist) []sketch.BunchItem
}

func corruptions(k int) []corruption {
	shift := func(delta graph.Dist) func(*rand.Rand, int, []sketch.BunchItem, []int, [][]graph.Dist, []graph.Dist) []sketch.BunchItem {
		return func(r *rand.Rand, _ int, b []sketch.BunchItem, _ []int, _ [][]graph.Dist, _ []graph.Dist) []sketch.BunchItem {
			if len(b) == 0 {
				return nil
			}
			b[r.IntN(len(b))].Dist += delta
			return b
		}
	}
	// nonMember picks a node other than u outside B(u) whose level
	// threshold at u exceeds 1, or -1.
	nonMember := func(r *rand.Rand, u int, b []sketch.BunchItem, levels []int, pivotDist [][]graph.Dist) int {
		var cand []int
		for w := range levels {
			if _, in := bunchIndex(b, w); !in && w != u && levels[w] >= 0 && pivotDist[levels[w]+1][u] > 1 {
				cand = append(cand, w)
			}
		}
		if len(cand) == 0 {
			return -1
		}
		return cand[r.IntN(len(cand))]
	}
	insert := func(b []sketch.BunchItem, it sketch.BunchItem) []sketch.BunchItem {
		i, _ := bunchIndex(b, it.Node)
		return slices.Insert(b, i, it)
	}
	return []corruption{
		{"drop an entry", func(r *rand.Rand, _ int, b []sketch.BunchItem, _ []int, _ [][]graph.Dist, _ []graph.Dist) []sketch.BunchItem {
			if len(b) == 0 {
				return nil
			}
			i := r.IntN(len(b))
			return slices.Delete(b, i, i+1)
		}},
		{"distance +1", shift(1)},
		{"distance -1", shift(-1)},
		{"non-member at its true distance", func(r *rand.Rand, u int, b []sketch.BunchItem, levels []int, pivotDist [][]graph.Dist, dist []graph.Dist) []sketch.BunchItem {
			w := nonMember(r, u, b, levels, pivotDist)
			if w < 0 {
				return nil
			}
			return insert(b, sketch.BunchItem{Node: w, Dist: dist[w], Level: levels[w]})
		}},
		{"wrong level", func(r *rand.Rand, _ int, b []sketch.BunchItem, _ []int, _ [][]graph.Dist, _ []graph.Dist) []sketch.BunchItem {
			if len(b) == 0 {
				return nil
			}
			i := r.IntN(len(b))
			b[i].Level = (b[i].Level + 1) % max(k, 2)
			return b
		}},
		{"self entry", func(_ *rand.Rand, u int, b []sketch.BunchItem, levels []int, _ [][]graph.Dist, _ []graph.Dist) []sketch.BunchItem {
			return insert(b, sketch.BunchItem{Node: u, Dist: 0, Level: levels[u]})
		}},
		{"unsupported entry", func(r *rand.Rand, u int, b []sketch.BunchItem, levels []int, pivotDist [][]graph.Dist, _ []graph.Dist) []sketch.BunchItem {
			w := nonMember(r, u, b, levels, pivotDist)
			if w < 0 {
				return nil
			}
			return insert(b, sketch.BunchItem{Node: w, Dist: pivotDist[levels[w]+1][u] - 1, Level: levels[w]})
		}},
	}
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
