package core

import (
	"math"
	"testing"

	"distsketch/internal/congest"
	"distsketch/internal/eval"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
	"distsketch/internal/tz"
)

// labelsEqual compares two label sets field by field.
func labelsEqual(t *testing.T, got, want []*sketch.TZLabel, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels vs %d", context, len(got), len(want))
	}
	for u := range got {
		a, b := got[u], want[u]
		if a.Owner != b.Owner || a.K != b.K {
			t.Fatalf("%s node %d: header mismatch", context, u)
		}
		for i := range a.Pivots {
			if a.Pivots[i] != b.Pivots[i] {
				t.Fatalf("%s node %d: pivot %d: %+v vs %+v", context, u, i, a.Pivots[i], b.Pivots[i])
			}
		}
		if len(a.Bunch) != len(b.Bunch) {
			t.Fatalf("%s node %d: bunch size %d vs %d", context, u, len(a.Bunch), len(b.Bunch))
		}
		for w, e := range a.Bunch {
			if b.Bunch[w] != e {
				t.Fatalf("%s node %d: bunch[%d] %+v vs %+v", context, u, w, e, b.Bunch[w])
			}
		}
	}
}

// TestDistributedMatchesCentralized is experiment E12: with shared coin
// flips, the distributed construction must produce byte-identical labels
// to the centralized Thorup–Zwick reference.
func TestDistributedMatchesCentralized(t *testing.T) {
	for _, f := range graph.AllFamilies() {
		for _, k := range []int{1, 2, 3} {
			for seed := uint64(0); seed < 2; seed++ {
				g := graph.Make(f, 48, graph.UniformWeights(1, 8), seed+100)
				dist, err := BuildTZ(g, TZOptions{K: k, Seed: seed, Mode: SyncOmniscient})
				if err != nil {
					t.Fatalf("%s k=%d seed=%d: %v", f, k, seed, err)
				}
				cent, err := tz.Build(g, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				labelsEqual(t, dist.Labels, cent.Labels,
					string(f)+" k="+string(rune('0'+k)))
			}
		}
	}
}

func TestDistributedStretchBound(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 80, nil, 5)
	for _, k := range []int{2, 4} {
		res, err := BuildTZ(g, TZOptions{K: k, Seed: 5, Mode: SyncOmniscient})
		if err != nil {
			t.Fatal(err)
		}
		ap := graph.APSP(g)
		rep := eval.Evaluate(ap, res.Query, eval.AllPairs(g.N()))
		if rep.Violations != 0 || rep.Unreachable != 0 {
			t.Fatalf("k=%d: invalid estimates: %+v", k, rep)
		}
		if rep.MaxStretch > float64(2*k-1) {
			t.Errorf("k=%d: max stretch %.3f > %d", k, rep.MaxStretch, 2*k-1)
		}
	}
}

func TestDistributedK1Exact(t *testing.T) {
	g := graph.Make(graph.FamilyER, 32, graph.UniformWeights(1, 9), 2)
	res, err := BuildTZ(g, TZOptions{K: 1, Seed: 2, Mode: SyncOmniscient})
	if err != nil {
		t.Fatal(err)
	}
	ap := graph.APSP(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if got := res.Query(u, v); got != ap[u][v] {
				t.Fatalf("Query(%d,%d) = %d, want %d", u, v, got, ap[u][v])
			}
		}
	}
}

func TestRoundsWithinTheoremBound(t *testing.T) {
	// Theorem 3.8: total rounds ≤ O(k·n^{1/k}·S·log n). Check the
	// omniscient-mode measurement against the bound with the Lemma 3.6
	// constant (c = 3), plus the +1-per-phase scheduling slack.
	for _, f := range []graph.Family{graph.FamilyER, graph.FamilyGrid, graph.FamilyRing} {
		g := graph.Make(f, 64, graph.UniformWeights(1, 10), 9)
		s := graph.ShortestPathDiameter(g)
		k := 3
		res, err := BuildTZ(g, TZOptions{K: k, Seed: 9, Mode: SyncOmniscient})
		if err != nil {
			t.Fatal(err)
		}
		bound := k * AnalyticPhaseBound(g.N(), k, s)
		if res.Cost.Total.Rounds > bound {
			t.Errorf("%s: rounds %d > theorem bound %d (S=%d)", f, res.Cost.Total.Rounds, bound, s)
		}
	}
}

func TestAnalyticModeMatchesOmniscient(t *testing.T) {
	g := graph.Make(graph.FamilyER, 48, graph.UniformWeights(1, 6), 3)
	s := graph.ShortestPathDiameter(g)
	omn, err := BuildTZ(g, TZOptions{K: 2, Seed: 3, Mode: SyncOmniscient})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := BuildTZ(g, TZOptions{K: 2, Seed: 3, Mode: SyncAnalytic, S: s})
	if err != nil {
		t.Fatal(err)
	}
	labelsEqual(t, ana.Labels, omn.Labels, "analytic vs omniscient")
	// Analytic mode runs exactly the per-phase bound, so it costs at
	// least as many rounds as the omniscient measurement.
	if ana.Cost.Total.Rounds < omn.Cost.Total.Rounds {
		t.Errorf("analytic rounds %d < omniscient %d", ana.Cost.Total.Rounds, omn.Cost.Total.Rounds)
	}
}

func TestAnalyticRequiresS(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), 0)
	if _, err := BuildTZ(g, TZOptions{K: 2, Seed: 1, Mode: SyncAnalytic}); err == nil {
		t.Error("analytic mode without S accepted")
	}
}

func TestBuildTZRejectsBadInput(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), 0)
	if _, err := BuildTZ(g, TZOptions{K: 0, Seed: 1}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := BuildTZ(g, TZOptions{K: 2, Seed: 1, Levels: []int{0}}); err == nil {
		t.Error("bad levels length accepted")
	}
}

func TestSubsetHierarchyDistributed(t *testing.T) {
	// Hierarchy restricted to a subset (the CDG building block): compare
	// with the centralized subset construction.
	g := graph.Make(graph.FamilyGeometric, 40, nil, 8)
	levels := make([]int, g.N())
	for u := range levels {
		levels[u] = -1
	}
	// Members: every 5th node, alternating levels 0/1.
	for u := 0; u < g.N(); u += 5 {
		levels[u] = (u / 5) % 2
	}
	k := 2
	dist, err := BuildTZ(g, TZOptions{K: k, Seed: 8, Mode: SyncOmniscient, Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	cent, err := tz.BuildHierarchy(g, k, levels)
	if err != nil {
		t.Fatal(err)
	}
	labelsEqual(t, dist.Labels, cent.Labels, "subset hierarchy")
}

func TestPerPhaseStatsSumToTotal(t *testing.T) {
	g := graph.Make(graph.FamilyBA, 60, graph.UniformWeights(1, 5), 4)
	res, err := BuildTZ(g, TZOptions{K: 3, Seed: 4, Mode: SyncOmniscient})
	if err != nil {
		t.Fatal(err)
	}
	var sum congest.Stats
	for _, ps := range res.Cost.PerPhase {
		sum = sum.Add(ps)
	}
	if sum != res.Cost.Total {
		t.Errorf("phase stats %v don't sum to total %v", sum, res.Cost.Total)
	}
}

func TestSequentialMatchesParallelEngine(t *testing.T) {
	g := graph.Make(graph.FamilyER, 128, graph.UniformWeights(1, 9), 6)
	seq, err := BuildTZ(g, TZOptions{K: 3, Seed: 6, Mode: SyncOmniscient,
		Congest: congest.Config{Sequential: true}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildTZ(g, TZOptions{K: 3, Seed: 6, Mode: SyncOmniscient})
	if err != nil {
		t.Fatal(err)
	}
	labelsEqual(t, par.Labels, seq.Labels, "parallel vs sequential")
	if seq.Cost.Total != par.Cost.Total {
		t.Errorf("cost differs: seq %+v par %+v", seq.Cost.Total, par.Cost.Total)
	}
}

func TestSketchSizeWithinWHPBound(t *testing.T) {
	// Theorem 3.8: max label size O(k·n^{1/k}·log n) words whp. Use the
	// explicit constant: |B_i(u)| ≤ 3·n^{1/k}·ln n per level, 3 words per
	// entry, plus 2k pivot words.
	n, k := 256, 3
	g := graph.Make(graph.FamilyER, n, graph.UnitWeights(), 12)
	res, err := BuildTZ(g, TZOptions{K: k, Seed: 12, Mode: SyncOmniscient})
	if err != nil {
		t.Fatal(err)
	}
	perLevel := 3 * math.Pow(float64(n), 1/float64(k)) * math.Log(float64(n))
	bound := float64(2*k) + 3*float64(k)*perLevel
	if got := float64(res.MaxLabelWords()); got > bound {
		t.Errorf("max label %d words > whp bound %.0f", res.MaxLabelWords(), bound)
	}
	if res.MeanLabelWords() > float64(res.MaxLabelWords()) {
		t.Error("mean > max")
	}
}

// TestBuildTZIsolatedNodes pins degree-0 nodes and the one-node network.
// Node 3 has no edges and is the only phase-1 source outside the path
// 0–1–2: it must become its own pivot at distance 0 without sending
// anything, and its queued self-announcement must not keep it awake.
func TestBuildTZIsolatedNodes(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(4, 5, 1)
	g := b.MustFreeze()
	levels := []int{0, 1, 0, 1, 0, 0}
	cent, err := tz.BuildHierarchy(g, 2, levels)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		batch int
		cfg   congest.Config
		want  congest.Stats
	}{
		{"sync", 0, congest.Config{}, congest.Stats{Rounds: 6, Messages: 10, Words: 30}},
		{"batch", 4, congest.Config{}, congest.Stats{Rounds: 6, Messages: 10, Words: 30}},
		{"async", 0, congest.Config{MaxDelay: 3}, congest.Stats{Rounds: 9, Messages: 10, Words: 30}},
	}
	for _, c := range cases {
		res, err := BuildTZ(g, TZOptions{K: 2, Seed: 1, Mode: SyncOmniscient,
			Levels: levels, Batch: c.batch, Congest: c.cfg})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		labelsEqual(t, res.Labels, cent.Labels, c.name)
		for i, p := range res.Labels[3].Pivots {
			if p != (sketch.Pivot{Node: 3, Dist: 0}) {
				t.Errorf("%s: isolated node pivot %d = %+v, want itself at 0", c.name, i, p)
			}
		}
		if res.Cost.Total != c.want {
			t.Errorf("%s: cost %+v, want %+v", c.name, res.Cost.Total, c.want)
		}
	}

	one := graph.NewBuilder(1).MustFreeze()
	res, err := BuildTZ(one, TZOptions{K: 2, Seed: 1, Mode: SyncOmniscient})
	if err != nil {
		t.Fatal(err)
	}
	if want := (congest.Stats{Rounds: 1}); res.Cost.Total != want {
		t.Errorf("n=1: cost %+v, want %+v", res.Cost.Total, want)
	}
	if p := res.Labels[0].Pivots[0]; p != (sketch.Pivot{Node: 0, Dist: 0}) {
		t.Errorf("n=1: pivot 0 = %+v, want itself at 0", p)
	}
}

// TestBuildTZAllocs guards the construction's hot path: a node's
// announcements leave as one broadcast per round, not one boxed message
// per edge, so a whole build allocates far less than once per message.
func TestBuildTZAllocs(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 256, graph.UniformWeights(1, 100), 5)
	opt := TZOptions{K: 3, Seed: 5, Mode: SyncOmniscient, Congest: congest.Config{Sequential: true}}
	var res *TZResult
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if res, err = BuildTZ(g, opt); err != nil {
			t.Fatal(err)
		}
	})
	msgs := res.Cost.Total.Messages
	t.Logf("%.0f allocations for %d messages", allocs, msgs)
	if limit := float64(msgs) / 4; allocs >= limit {
		t.Errorf("BuildTZ made %.0f allocations for %d messages, want < %.0f", allocs, msgs, limit)
	}
}
