package tz

import (
	"math"
	"sort"
	"testing"

	"distsketch/internal/eval"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

func mustBuild(t *testing.T, g *graph.Graph, k int, seed uint64) *Oracle {
	t.Helper()
	o, err := Build(g, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestK1IsExact(t *testing.T) {
	// k=1: A_0 = V, A_1 = ∅, bunches are all of V, stretch 2k-1 = 1.
	g := graph.Make(graph.FamilyER, 40, graph.UniformWeights(1, 9), 3)
	o := mustBuild(t, g, 1, 3)
	ap := graph.APSP(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if got := o.Query(u, v); got != ap[u][v] {
				t.Fatalf("k=1 Query(%d,%d) = %d, want exact %d", u, v, got, ap[u][v])
			}
		}
	}
}

func TestStretchBoundAllFamilies(t *testing.T) {
	for _, f := range graph.AllFamilies() {
		for _, k := range []int{2, 3, 4} {
			g := graph.Make(f, 64, graph.UniformWeights(1, 10), 11)
			o := mustBuild(t, g, k, 5)
			ap := graph.APSP(g)
			rep := eval.Evaluate(ap, o.Query, eval.AllPairs(g.N()))
			if rep.Violations != 0 {
				t.Errorf("%s k=%d: %d estimates below true distance", f, k, rep.Violations)
			}
			if rep.Unreachable != 0 {
				t.Errorf("%s k=%d: %d Inf estimates", f, k, rep.Unreachable)
			}
			if bound := float64(2*k - 1); rep.MaxStretch > bound {
				t.Errorf("%s k=%d: max stretch %.3f > %g", f, k, rep.MaxStretch, bound)
			}
		}
	}
}

func TestPivotDistancesMatchHierarchy(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 80, nil, 2)
	k := 3
	o := mustBuild(t, g, k, 9)
	// The pivot chain must reproduce d(u, A_i) from the multi-source
	// Dijkstra pass, and pivot distances must be monotone in the level.
	for u := 0; u < g.N(); u++ {
		lab := o.Label(u)
		for i := 0; i < k; i++ {
			if lab.Pivots[i].Dist != o.PivotDist[i][u] {
				t.Fatalf("node %d level %d: pivot dist %d != d(u,A_i) %d",
					u, i, lab.Pivots[i].Dist, o.PivotDist[i][u])
			}
		}
		if lab.Pivots[0].Dist != 0 {
			t.Fatalf("node %d: d(u, A_0) = %d, want 0", u, lab.Pivots[0].Dist)
		}
		if err := lab.Validate(); err != nil {
			t.Fatalf("node %d: %v", u, err)
		}
	}
}

func TestBunchDefinition(t *testing.T) {
	// Brute-force check of B_i(u) = {w ∈ A_i : d(u,w) < d(u,A_{i+1})}
	// (with each w appearing at its top level; see package sketch docs).
	g := graph.Make(graph.FamilyER, 48, graph.UniformWeights(1, 7), 4)
	k := 3
	o := mustBuild(t, g, k, 8)
	ap := graph.APSP(g)
	for u := 0; u < g.N(); u++ {
		var want []sketch.BunchItem
		for w := 0; w < g.N(); w++ {
			if w == u {
				continue
			}
			l := o.Levels[w]
			if ap[u][w] < o.PivotDist[l+1][u] {
				want = append(want, sketch.BunchItem{Node: w, Dist: ap[u][w], Level: l})
			}
		}
		got := o.Label(u).Bunch
		if len(got) != len(want) {
			t.Fatalf("node %d: bunch size %d, want %d", u, len(got), len(want))
		}
		// want is built in ascending node order, matching the canonical
		// slice representation item for item.
		for i, it := range want {
			if got[i] != it {
				t.Fatalf("node %d bunch[%d] = %+v, want %+v", u, i, got[i], it)
			}
		}
	}
}

func TestBunchClusterDuality(t *testing.T) {
	g := graph.Make(graph.FamilyBA, 60, graph.UniformWeights(1, 5), 6)
	o := mustBuild(t, g, 3, 1)
	clusters := o.Clusters()
	// u ∈ C(w) ⟺ w ∈ B(u): Clusters() is built by inversion, so instead
	// verify the cluster of w is connected in G (the paper's observation
	// used by the distributed algorithm's correctness).
	for w, members := range clusters {
		inCluster := make(map[int]bool, len(members)+1)
		inCluster[w] = true
		for _, u := range members {
			inCluster[u] = true
		}
		// BFS within the cluster from w must reach every member.
		seen := map[int]bool{w: true}
		stack := []int{w}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range g.Adj(x) {
				if inCluster[a.To] && !seen[a.To] {
					seen[a.To] = true
					stack = append(stack, a.To)
				}
			}
		}
		for _, u := range members {
			if !seen[u] {
				t.Fatalf("cluster of %d disconnected at %d", w, u)
			}
		}
	}
}

func TestExpectedBunchSize(t *testing.T) {
	// Lemma 3.1: E|B(u)| ≤ k·n^{1/k}. Check the empirical mean over nodes
	// and seeds stays within a small constant of the bound.
	n, k := 256, 3
	bound := float64(k) * math.Pow(float64(n), 1.0/float64(k))
	var total float64
	var count int
	for seed := uint64(0); seed < 5; seed++ {
		g := graph.Make(graph.FamilyER, n, graph.UnitWeights(), seed)
		o := mustBuild(t, g, k, seed)
		for u := 0; u < n; u++ {
			total += float64(len(o.Label(u).Bunch))
			count++
		}
	}
	mean := total / float64(count)
	if mean > 2*bound {
		t.Errorf("mean bunch size %.1f > 2x Lemma 3.1 bound %.1f", mean, bound)
	}
}

func TestKLogNStretchLogN(t *testing.T) {
	// The k = log n setting: stretch ≤ 2·log n - 1, size O(log^2 n)-ish.
	n := 128
	k := int(math.Log2(float64(n))) // 7
	g := graph.Make(graph.FamilyGeometric, n, nil, 13)
	o := mustBuild(t, g, k, 13)
	ap := graph.APSP(g)
	rep := eval.Evaluate(ap, o.Query, eval.AllPairs(n))
	if rep.Violations != 0 || rep.Unreachable != 0 {
		t.Fatalf("invalid estimates: %+v", rep)
	}
	if rep.MaxStretch > float64(2*k-1) {
		t.Errorf("max stretch %.2f > %d", rep.MaxStretch, 2*k-1)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), 0)
	if _, err := Build(g, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := BuildHierarchy(g, 2, []int{0, 0}); err == nil {
		t.Error("wrong level count accepted")
	}
	if _, err := BuildHierarchy(g, 2, []int{0, 5, 0, 0}); err == nil {
		t.Error("out-of-range level accepted")
	}
}

func TestSubsetHierarchy(t *testing.T) {
	// Hierarchy on a subset: non-members get labels too, with pivot 0
	// pointing at the nearest member.
	g := graph.Path(6, graph.UnitWeights(), 0) // 0-1-2-3-4-5
	levels := []int{-1, 0, -1, -1, 0, -1}      // members {1, 4}
	o, err := BuildHierarchy(g, 1, levels)
	if err != nil {
		t.Fatal(err)
	}
	wantPivot := []int{1, 1, 1, 4, 4, 4} // node 3: d(3,1)=2 = d(3,4)... check
	// d(3,1)=2, d(3,4)=1 → pivot 4. d(2,1)=1 < d(2,4)=2 → 1.
	wantDist := []graph.Dist{1, 0, 1, 1, 0, 1}
	for u := 0; u < 6; u++ {
		p := o.Label(u).Pivots[0]
		if p.Node != wantPivot[u] || p.Dist != wantDist[u] {
			t.Errorf("node %d: pivot %+v, want (%d,%d)", u, p, wantPivot[u], wantDist[u])
		}
	}
	// k=1 on subset: bunch = all members (threshold ∞).
	for u := 0; u < 6; u++ {
		b := o.Label(u).Bunch
		wantLen := 2
		if u == 1 || u == 4 {
			wantLen = 1 // self excluded
		}
		if len(b) != wantLen {
			t.Errorf("node %d: bunch size %d, want %d", u, len(b), wantLen)
		}
	}
}

func TestLandmarkStretch3WithSlack(t *testing.T) {
	for _, seedf := range []struct {
		f    graph.Family
		seed uint64
	}{{graph.FamilyER, 3}, {graph.FamilyGeometric, 4}, {graph.FamilyGrid, 5}} {
		g := graph.Make(seedf.f, 96, graph.UniformWeights(1, 10), seedf.seed)
		eps := 0.25
		labels, net, err := BuildLandmark(g, eps, seedf.seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(net) == 0 {
			t.Fatal("empty net")
		}
		ap := graph.APSP(g)
		q := func(u, v int) graph.Dist { return sketch.QueryLandmark(labels[u], labels[v]) }
		rep := eval.EvaluateSlack(ap, q, eval.AllPairs(g.N()), eps)
		if rep.Far.Violations != 0 || rep.Far.Unreachable != 0 {
			t.Fatalf("%s: invalid far estimates: %+v", seedf.f, rep.Far)
		}
		if rep.Far.MaxStretch > 3 {
			t.Errorf("%s: ε-far max stretch %.3f > 3 (Thm 4.3)", seedf.f, rep.Far.MaxStretch)
		}
		if rep.FarFrac < 1-eps-1e-9 {
			t.Errorf("%s: far fraction %.3f < 1-ε = %.3f", seedf.f, rep.FarFrac, 1-eps)
		}
	}
}

func TestDensityNetCovering(t *testing.T) {
	// Lemma 4.2 condition 1: every node has a net node within R(u, ε).
	g := graph.Make(graph.FamilyER, 128, graph.UniformWeights(1, 10), 7)
	n := g.N()
	eps := 0.25
	net := sketch.DensityNet(n, eps, 7, sketch.SaltNet)
	ap := graph.APSP(g)
	fc := eval.NewFarClassifier(ap)
	for u := 0; u < n; u++ {
		// R(u, ε) = smallest r with |B(u,r)| ≥ εn: the εn-th smallest
		// distance from u.
		_ = fc
		dists := append([]graph.Dist(nil), ap[u]...)
		// insertion of self distance 0 already included
		sortDists(dists)
		need := int(math.Ceil(eps * float64(n)))
		r := dists[need-1]
		ok := false
		for _, w := range net {
			if ap[u][w] <= r {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("node %d: no net node within R(u,ε)=%d", u, r)
		}
	}
	// Lemma 4.2 condition 2: |N| ≤ (10/ε)·ln n.
	if bound := 10 / eps * math.Log(float64(n)); float64(len(net)) > bound {
		t.Errorf("|N| = %d > bound %.1f", len(net), bound)
	}
}

func sortDists(d []graph.Dist) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j-1] > d[j]; j-- {
			d[j-1], d[j] = d[j], d[j-1]
		}
	}
}

func TestCDGStretchBound(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 96, nil, 21)
	eps := 0.25
	for _, k := range []int{1, 2} {
		labels, _, err := BuildCDG(g, eps, k, 21, 0)
		if err != nil {
			t.Fatal(err)
		}
		ap := graph.APSP(g)
		q := func(u, v int) graph.Dist { return sketch.QueryCDG(labels[u], labels[v]) }
		rep := eval.EvaluateSlack(ap, q, eval.AllPairs(g.N()), eps)
		if rep.Far.Violations != 0 {
			t.Fatalf("k=%d: %d violations", k, rep.Far.Violations)
		}
		if rep.Far.Unreachable != 0 {
			t.Fatalf("k=%d: %d unreachable far pairs", k, rep.Far.Unreachable)
		}
		if bound := float64(8*k - 1); rep.Far.MaxStretch > bound {
			t.Errorf("k=%d: ε-far max stretch %.3f > 8k-1 = %g", k, rep.Far.MaxStretch, bound)
		}
	}
}

func TestCDGEstimateNeverBelowTrue(t *testing.T) {
	// Even for near pairs (no stretch guarantee) the estimate must be an
	// upper bound on the true distance.
	g := graph.Make(graph.FamilyBA, 80, graph.UniformWeights(1, 6), 2)
	labels, _, err := BuildCDG(g, 0.125, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ap := graph.APSP(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			est := sketch.QueryCDG(labels[u], labels[v])
			if est != graph.Inf && est < ap[u][v] {
				t.Fatalf("(%d,%d): estimate %d < true %d", u, v, est, ap[u][v])
			}
		}
	}
}

func TestGracefulBounds(t *testing.T) {
	g := graph.Make(graph.FamilyER, 96, graph.UniformWeights(1, 10), 17)
	labels, err := BuildGraceful(g, 17)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	ap := graph.APSP(g)
	q := func(u, v int) graph.Dist { return sketch.QueryGraceful(labels[u], labels[v]) }
	rep := eval.Evaluate(ap, q, eval.AllPairs(n))
	if rep.Violations != 0 || rep.Unreachable != 0 {
		t.Fatalf("invalid estimates: %+v", rep)
	}
	// Worst-case stretch bound: level i = ⌈log n⌉ covers every pair with
	// stretch 8⌈log n⌉ - 1 (Lemma 4.7 / Cor 4.9).
	worst := float64(8*sketch.GracefulLevels(n) - 1)
	if rep.MaxStretch > worst {
		t.Errorf("max stretch %.2f > 8⌈log n⌉-1 = %g", rep.MaxStretch, worst)
	}
	avg := eval.AvgStretchAllPairs(ap, q)
	// O(1) average stretch: generous absolute check (measured ≈ 2-4).
	if avg > 12 {
		t.Errorf("average stretch %.2f implausibly large for Thm 1.3", avg)
	}
	for u := 0; u < n; u++ {
		if err := labels[u].Validate(); err != nil {
			t.Fatalf("node %d: %v", u, err)
		}
	}
}

func TestGracefulPerEpsilonSlack(t *testing.T) {
	// Gracefully degrading property: for EVERY ε = 2^{-i} simultaneously,
	// stretch over ε-far pairs is ≤ 8i-1.
	g := graph.Make(graph.FamilyGeometric, 80, nil, 5)
	labels, err := BuildGraceful(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	ap := graph.APSP(g)
	fc := eval.NewFarClassifier(ap)
	q := func(u, v int) graph.Dist { return sketch.QueryGraceful(labels[u], labels[v]) }
	pairs := eval.AllPairs(g.N())
	for i := 1; i <= sketch.GracefulLevels(g.N()); i++ {
		eps := 1.0 / float64(int64(1)<<uint(i))
		rep := eval.EvaluateSlackWith(fc, ap, q, pairs, eps)
		if bound := float64(8*i - 1); rep.Far.MaxStretch > bound {
			t.Errorf("ε=2^-%d: far max stretch %.3f > %g", i, rep.Far.MaxStretch, bound)
		}
	}
}

func TestLabelSizeAccounting(t *testing.T) {
	g := graph.Make(graph.FamilyER, 64, graph.UnitWeights(), 1)
	o := mustBuild(t, g, 3, 1)
	if o.MaxLabelWords() < o.Label(0).SizeWords() && o.MaxLabelWords() <= 0 {
		t.Error("MaxLabelWords inconsistent")
	}
	if o.MeanLabelWords() <= 0 {
		t.Error("MeanLabelWords nonpositive")
	}
	if o.MeanLabelWords() > float64(o.MaxLabelWords()) {
		t.Error("mean > max")
	}
}

func BenchmarkBuildTZ(b *testing.B) {
	g := graph.Make(graph.FamilyER, 256, graph.UniformWeights(1, 50), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, 3, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryTZ(b *testing.B) {
	g := graph.Make(graph.FamilyER, 256, graph.UniformWeights(1, 50), 1)
	o, err := Build(g, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Query(i%256, (i*7+13)%256)
	}
}

// TestGrowClusterVisitOrder: on every family, GrowCluster visits exactly
// C(w) = {u : d(u, w) < d(u, A_{l+1})}, in ascending (dist, ID) order as
// a full Dijkstra from w ranks them. One Grower serves every cluster, so
// this also checks that the scratch is left clean between growths.
func TestGrowClusterVisitOrder(t *testing.T) {
	type visit struct {
		u int
		d graph.Dist
	}
	for _, f := range graph.AllFamilies() {
		g := graph.Make(f, 96, graph.UniformWeights(1, 4), 81)
		for _, k := range []int{1, 2, 3} {
			o := mustBuild(t, g, k, 81)
			gr := NewGrower(g)
			for w := 0; w < g.N(); w++ {
				thresh := o.PivotDist[o.Levels[w]+1]
				sp := graph.Dijkstra(g, w)
				var want []visit
				for u := 0; u < g.N(); u++ {
					if sp.Dist[u] < thresh[u] {
						want = append(want, visit{u, sp.Dist[u]})
					}
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].d != want[j].d {
						return want[i].d < want[j].d
					}
					return want[i].u < want[j].u
				})
				var got []visit
				gr.GrowCluster(w, thresh, func(u int, d graph.Dist) { got = append(got, visit{u, d}) })
				if len(got) != len(want) {
					t.Fatalf("%s k=%d w=%d: visited %d nodes, cluster has %d", f, k, w, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d w=%d: visit %d is %+v, want %+v", f, k, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGrowClusterAllocs: once a Grower's heap and reached list have grown,
// a regrowth allocates nothing, however many nodes it pushes. A heap that
// boxed each pushed entry (container/heap) would allocate once per push.
func TestGrowClusterAllocs(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 512, graph.UniformWeights(1, 10), 82)
	thresh := make([]graph.Dist, g.N()) // a top-level member: C(w) = V
	for u := range thresh {
		thresh[u] = graph.Inf
	}
	gr := NewGrower(g)
	visited := 0
	visit := func(int, graph.Dist) { visited++ }
	gr.GrowCluster(0, thresh, visit) // warm the scratch
	if visited != g.N() {
		t.Fatalf("visited %d nodes, want all %d", visited, g.N())
	}
	allocs := testing.AllocsPerRun(20, func() { gr.GrowCluster(0, thresh, visit) })
	if allocs > 0 {
		t.Errorf("warm regrowth of a %d-node cluster allocates %.0f times, want 0", g.N(), allocs)
	}
}
