package distsketch

import (
	"math/rand/v2"
	"testing"
)

// churnGraphSeed is the graph seed of perfbench's churn-rw workload
// (mix(servedGraphSeed, 200) in perfbench/main.go), so the tz-1024 cases
// below repair the graph that workload serves.
const churnGraphSeed = 0x580776ea2c8a1a73

// repairRound is one precomputed batch of weight decreases: its change
// records, the graph after the whole batch, and the graph after each
// change in turn, which the per-edge path needs (each single-edge repair
// must be told the graph as of that change only).
type repairRound struct {
	changes []EdgeChange
	next    *Graph
	inter   []*Graph
}

// repairSchedule draws rounds batches of size distinct edges of weight at
// least 2, each lowered to a weight in [w/2, w−1] as churn-rw does, every
// batch applied on top of the previous one.
func repairSchedule(b *testing.B, g *Graph, rounds, size int, seed uint64) []repairRound {
	b.Helper()
	r := rand.New(rand.NewPCG(seed, 17))
	out := make([]repairRound, 0, rounds)
	cur := g
	for i := 0; i < rounds; i++ {
		edges := cur.Edges()
		seen := map[[2]int]bool{}
		var edits []Edge
		var round repairRound
		for len(round.changes) < size {
			e := edges[r.IntN(len(edges))]
			key := [2]int{e.U, e.V}
			if seen[key] || e.Weight < 2 {
				continue
			}
			seen[key] = true
			edits = append(edits, Edge{U: e.U, V: e.V, Weight: e.Weight - 1 - Dist(r.IntN(int(e.Weight/2)))})
			round.changes = append(round.changes, EdgeChange{U: e.U, V: e.V, PrevWeight: e.Weight})
			ng, err := cur.Reweighted(edits)
			if err != nil {
				b.Fatal(err)
			}
			round.inter = append(round.inter, ng)
		}
		round.next = round.inter[len(round.inter)-1]
		out = append(out, round)
		cur = round.next
	}
	return out
}

// BenchmarkRepair prices the three ways to keep a sketch set exact under
// edge-weight churn on one precomputed schedule of decrease batches: one
// UpdateEdges call per batch (batched), one per changed edge (per-edge),
// and a Build of the graph after each batch (rebuild). Every repair is
// byte-identical to the rebuild, so the three compare equal outcomes.
// One op is the whole schedule, on a fresh clone of the built set.
//
//   - <kind>/{batched,per-edge,rebuild}: every kind on a 256-node
//     geometric graph, weights 10–100, 4 batches of 16 edges;
//   - tz-1024/{batched,served,rebuild}: perfbench churn-rw's setting, TZ
//     k=3 on its 1024-node geometric graph, weights 1–100, 4 batches of
//     16. served leaves the first batch untimed: a built set keeps no
//     graph, so its first repair checks the whole graph, and every later
//     one checks locally against the graph the set kept. The timed
//     batches are the per-batch cost a long-running server pays.
//
// Run with: go test . -run '^$' -bench '^BenchmarkRepair$'
// (allocations are always reported).
func BenchmarkRepair(b *testing.B) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 256, 10, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	schedule := repairSchedule(b, g, 4, 16, 1)
	for _, kind := range allKinds {
		benchRepairCases(b, string(kind), g, Options{Kind: kind, K: 3, Eps: 0.25, Seed: 1}, schedule, true, false)
	}
	g, err = NewRandomWeightedGraph(FamilyGeometric, 1024, 1, 100, churnGraphSeed)
	if err != nil {
		b.Fatal(err)
	}
	benchRepairCases(b, "tz-1024", g, Options{Kind: KindTZ, K: 3, Seed: 1}, repairSchedule(b, g, 4, 16, 2), false, true)
}

// benchRepairCases runs the batched, optionally per-edge and served, and
// rebuild sub-benchmarks of one set over schedule, reporting ms per timed
// batch (per round of the schedule) and allocations next to the usual
// ns/op.
func benchRepairCases(b *testing.B, name string, g *Graph, opts Options, schedule []repairRound, perEdge, served bool) {
	set, err := Build(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	// run times op over schedule[untimed:] after applying the rounds
	// before it untimed.
	run := func(strategy string, untimed int, op func(b *testing.B, s *SketchSet, r repairRound)) {
		b.Run(name+"/"+strategy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := set.Clone()
				for _, r := range schedule[:untimed] {
					op(b, s, r)
				}
				b.StartTimer()
				for _, r := range schedule[untimed:] {
					op(b, s, r)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*(len(schedule)-untimed)), "ms/batch")
		})
	}
	batched := func(b *testing.B, s *SketchSet, r repairRound) {
		if _, err := s.UpdateEdges(r.next, r.changes); err != nil {
			b.Fatal(err)
		}
	}
	run("batched", 0, batched)
	if served {
		run("served", 1, batched)
	}
	if perEdge {
		run("per-edge", 0, func(b *testing.B, s *SketchSet, r repairRound) {
			for j, c := range r.changes {
				if _, err := s.UpdateEdges(r.inter[j], []EdgeChange{c}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("rebuild", 0, func(b *testing.B, _ *SketchSet, r repairRound) {
		if _, err := Build(r.next, opts); err != nil {
			b.Fatal(err)
		}
	})
}
