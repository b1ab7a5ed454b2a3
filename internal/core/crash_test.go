package core

import (
	"errors"
	"testing"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
	"distsketch/internal/tz"
)

// Failure behaviour. The paper's algorithms are not fault-tolerant
// (Section 5 explicitly leaves failure-prone settings open); these tests
// pin down *how* they fail, which is part of the system's contract:
//
//   - a crash before the run = building on the residual network, which
//     works whenever the residual network is connected;
//   - a crash mid-run stalls the Section 3.3 termination detection
//     (the leader waits for a COMPLETE that never comes) rather than
//     producing corrupt labels — fail-stop, not fail-wrong.

// crashAtRound wraps the detection build so a node dies mid-run.
func TestDetectionCrashStallsCleanly(t *testing.T) {
	g := graph.Make(graph.FamilyER, 32, graph.UniformWeights(1, 8), 91)
	levels := tzLevels(g.N(), 2, 9)
	nodes := make([]congest.Node, g.N())
	dns := make([]*detectNode, g.N())
	for u := 0; u < g.N(); u++ {
		dns[u] = newDetectNode(u, g.N(), 2, levels[u])
		nodes[u] = dns[u]
	}
	eng := congest.NewEngine(g, nodes, congest.Config{Seed: 9, MaxRounds: 5 + 20000})
	// Let the protocol get going, then kill a non-root node.
	eng.Init()
	if err := eng.RunRounds(5); err != nil {
		t.Fatal(err)
	}
	eng.Crash(3)
	_, err := eng.RunUntilQuiescent()
	// Either the network stalls forever (leader waiting on the dead
	// subtree: ErrMaxRounds) or — if node 3's role was already done —
	// it completes. Both are acceptable fail-stop outcomes; what must
	// NOT happen is a finished run with wrong labels at live nodes.
	if err != nil {
		if !errors.Is(err, congest.ErrMaxRounds) {
			t.Fatalf("unexpected error: %v", err)
		}
		return // stalled cleanly
	}
	cent, errC := tz.Build(g, 2, 9)
	if errC != nil {
		t.Fatal(errC)
	}
	for u := 0; u < g.N(); u++ {
		if u == 3 || dns[u].phase != -1 {
			continue
		}
		for _, it := range dns[u].label.Bunch {
			want, ok := cent.Labels[u].Get(it.Node)
			if !ok || it.Dist < want.Dist {
				t.Fatalf("node %d has a bunch entry better than reality after a crash", u)
			}
		}
	}
}

// tzLevels mirrors BuildTZ's default hierarchy sampling.
func tzLevels(n, k int, seed uint64) []int {
	return sketch.SampleLevels(n, k, sketch.HierarchyProb(n, k), seed)
}

func TestResidualRebuildAfterCrash(t *testing.T) {
	// Crash-before-start = rebuild on the residual connected network.
	g := graph.Make(graph.FamilyER, 48, graph.UniformWeights(1, 8), 92)
	dead := 7
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		if e.U != dead && e.V != dead {
			b.AddEdge(e.U, e.V, e.Weight)
		}
	}
	residual := b.MustFreeze()
	comps := residual.Components()
	// Use the largest component only (the paper's model assumes a
	// connected network).
	if len(comps) < 1 {
		t.Fatal("no components")
	}
	// Relabel the largest component densely and rebuild.
	largest := comps[0]
	for _, c := range comps[1:] {
		if len(c) > len(largest) {
			largest = c
		}
	}
	remap := make(map[int]int, len(largest))
	for i, v := range largest {
		remap[v] = i
	}
	rb := graph.NewBuilder(len(largest))
	for _, e := range residual.Edges() {
		u, okU := remap[e.U]
		v, okV := remap[e.V]
		if okU && okV {
			rb.AddEdge(u, v, e.Weight)
		}
	}
	rg := rb.MustFreeze()
	res, err := BuildTZ(rg, TZOptions{K: 2, Seed: 92, Mode: SyncOmniscient})
	if err != nil {
		t.Fatal(err)
	}
	ap := graph.APSP(rg)
	for u := 0; u < rg.N(); u += 5 {
		for v := 0; v < rg.N(); v += 7 {
			if u == v {
				continue
			}
			est := res.Query(u, v)
			if est < ap[u][v] || float64(est) > 3*float64(ap[u][v]) {
				t.Fatalf("residual rebuild: estimate %d outside [d, 3d] for d=%d", est, ap[u][v])
			}
		}
	}
}
