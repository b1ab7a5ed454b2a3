package distsketch

// Tests for the unified batched repair pipeline: UpdateEdges must
// reproduce a fresh rebuild byte for byte on every sketch kind, apply
// whole batches in one step, and reject unsound batches atomically.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"distsketch/internal/congest"
	"distsketch/internal/core"
	"distsketch/internal/sketch"
)

// reweighted returns a copy of g with the weights in repl applied. Keys
// are normalized (min,max) endpoint pairs.
func reweighted(t *testing.T, g *Graph, repl map[[2]int]Dist) *Graph {
	t.Helper()
	edits := make([]Edge, 0, len(repl))
	for key, w := range repl {
		edits = append(edits, Edge{U: key[0], V: key[1], Weight: w})
	}
	ng, err := g.Reweighted(edits)
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// allSketchBytes snapshots every node's wire blob.
func allSketchBytes(t *testing.T, s *SketchSet) [][]byte {
	t.Helper()
	out := make([][]byte, s.N())
	for u := 0; u < s.N(); u++ {
		out[u] = bytes.Clone(s.SketchBytes(u))
	}
	return out
}

func requireSameBytes(t *testing.T, label string, s *SketchSet, want [][]byte) {
	t.Helper()
	for u := 0; u < s.N(); u++ {
		if !bytes.Equal(s.SketchBytes(u), want[u]) {
			t.Fatalf("%s: node %d sketch bytes differ", label, u)
		}
	}
}

func kindOptions(kind Kind, seed uint64) Options {
	return Options{Kind: kind, K: 2, Eps: 0.25, Seed: seed}
}

// TestUpdateEdgesMatchesRebuild pins the acceptance criterion: for every
// kind, a multi-edge batch repaired through UpdateEdges yields sketches
// byte-identical to a fresh Build on the mutated graph.
func TestUpdateEdgesMatchesRebuild(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 64, 5, 50, 21)
	if err != nil {
		t.Fatal(err)
	}
	// A batch of decreases spread across the graph.
	picks := []int{g.M() / 7, g.M() / 3, g.M() / 2, 2 * g.M() / 3, g.M() - 1}
	repl := map[[2]int]Dist{}
	var changes []EdgeChange
	for _, i := range picks {
		e := g.Edges()[i]
		key := [2]int{e.U, e.V}
		if _, dup := repl[key]; dup || e.Weight <= 1 {
			continue
		}
		repl[key] = e.Weight / 2
		changes = append(changes, EdgeChange{U: e.U, V: e.V, PrevWeight: e.Weight})
	}
	if len(changes) < 3 {
		t.Fatalf("test graph yielded only %d usable changes", len(changes))
	}
	ng := reweighted(t, g, repl)

	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			set, err := Build(g, kindOptions(kind, 21))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := set.UpdateEdges(ng, changes); err != nil {
				t.Fatalf("UpdateEdges: %v", err)
			}
			rebuilt, err := Build(ng, kindOptions(kind, 21))
			if err != nil {
				t.Fatal(err)
			}
			requireSameBytes(t, "repair vs rebuild", set, allSketchBytes(t, rebuilt))
		})
	}
}

// TestUpdateEdgesEmptyBatch: a nil batch succeeds with zero cost and
// changes nothing, for every kind.
func TestUpdateEdgesEmptyBatch(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 32, 2, 20, 22)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds {
		set, err := Build(g, kindOptions(kind, 22))
		if err != nil {
			t.Fatal(err)
		}
		before := allSketchBytes(t, set)
		stats, err := set.UpdateEdges(g, nil)
		if err != nil {
			t.Fatalf("%s: empty batch: %v", kind, err)
		}
		if stats != (Stats{}) {
			t.Errorf("%s: empty batch cost %+v, want zero", kind, stats)
		}
		requireSameBytes(t, string(kind)+" empty batch", set, before)
	}
}

// pathGraph builds an n-node path with uniform weight w: every edge is a
// cut edge, so any weight increase is guaranteed to change distances
// across it.
func pathGraph(t *testing.T, n int, w Dist) *Graph {
	t.Helper()
	nb := NewGraphBuilder(n)
	for u := 0; u+1 < n; u++ {
		nb.AddEdge(u, u+1, w)
	}
	g, err := nb.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestUpdateEdgesUnsoundBatchRejectsAtomically pins the rejection
// contract: a batch containing one unsound change (a weight increase the
// repair cannot verify, or a CDG/graceful change without a certified
// previous weight) fails with ErrRebuildRequired and leaves the set —
// every sketch byte and the cost accounting — exactly as it was, even
// when the same batch also contains perfectly repairable decreases.
func TestUpdateEdgesUnsoundBatchRejectsAtomically(t *testing.T) {
	g := pathGraph(t, 32, 5)
	mid := [2]int{15, 16}
	// One good decrease at the front, one increase across the middle cut.
	repl := map[[2]int]Dist{{2, 3}: 2, mid: 50}
	ng := reweighted(t, g, repl)
	batch := []EdgeChange{
		{U: 2, V: 3, PrevWeight: 5},
		{U: 15, V: 16, PrevWeight: 5},
	}

	for _, kind := range []Kind{KindLandmark, KindCDG, KindGraceful} {
		t.Run(string(kind), func(t *testing.T) {
			set, err := Build(g, kindOptions(kind, 23))
			if err != nil {
				t.Fatal(err)
			}
			before := allSketchBytes(t, set)
			cost := set.Cost().Total
			_, err = set.UpdateEdges(ng, batch)
			if !errors.Is(err, ErrRebuildRequired) {
				t.Fatalf("unsound batch: got %v, want ErrRebuildRequired", err)
			}
			requireSameBytes(t, "after rejected batch", set, before)
			if set.Cost().Total != cost {
				t.Errorf("rejected batch changed cost accounting")
			}
		})
	}

	// TZ repairs are verified against the new graph directly, so an
	// increase either repairs to the exact rebuild or is rejected — on a
	// path the stale entries are guaranteed unless every touched cluster
	// is regrown, so assert whichever way it lands is consistent.
	t.Run(string(KindTZ), func(t *testing.T) {
		set, err := Build(g, kindOptions(KindTZ, 23))
		if err != nil {
			t.Fatal(err)
		}
		before := allSketchBytes(t, set)
		_, err = set.UpdateEdges(ng, batch)
		if err != nil {
			if !errors.Is(err, ErrRebuildRequired) {
				t.Fatalf("tz unsound batch: got %v, want ErrRebuildRequired", err)
			}
			requireSameBytes(t, "after rejected tz batch", set, before)
			return
		}
		rebuilt, err := Build(ng, kindOptions(KindTZ, 23))
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, "tz repair-of-increase vs rebuild", set, allSketchBytes(t, rebuilt))
	})
}

// TestUpdateEdgesCDGNeedsPrevWeight: without a certified previous
// weight, CDG and graceful batches are rejected with ErrRebuildRequired
// (their net-restricted labels admit no post-hoc exactness check).
func TestUpdateEdgesCDGNeedsPrevWeight(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 48, 5, 50, 24)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[g.M()/2]
	ng := reweighted(t, g, map[[2]int]Dist{{e.U, e.V}: 1})
	for _, kind := range []Kind{KindCDG, KindGraceful} {
		set, err := Build(g, kindOptions(kind, 24))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := set.UpdateEdges(ng, []EdgeChange{{U: e.U, V: e.V}}); !errors.Is(err, ErrRebuildRequired) {
			t.Errorf("%s: unknown PrevWeight: got %v, want ErrRebuildRequired", kind, err)
		}
		// With the weight certified, the same change repairs to the exact
		// rebuild.
		if _, err := set.UpdateEdges(ng, []EdgeChange{{U: e.U, V: e.V, PrevWeight: e.Weight}}); err != nil {
			t.Fatalf("%s: certified decrease: %v", kind, err)
		}
		rebuilt, err := Build(ng, kindOptions(kind, 24))
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, string(kind)+" certified decrease", set, allSketchBytes(t, rebuilt))
	}
}

// TestUpdateEdgesRandomChurn is the property test: random churn
// sequences (decreases, repeats, and same-weight no-ops mixed into each
// batch) applied through UpdateEdges must track a fresh rebuild
// byte-for-byte at every step, for every kind.
func TestUpdateEdgesRandomChurn(t *testing.T) {
	base, err := NewRandomWeightedGraph(FamilyGeometric, 48, 4, 40, 25)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(25)))
			g := base
			set, err := Build(g, kindOptions(kind, 25))
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				repl := map[[2]int]Dist{}
				var batch []EdgeChange
				for picks := 0; picks < 5; picks++ {
					e := g.Edges()[rng.Intn(g.M())]
					key := [2]int{e.U, e.V}
					if _, dup := repl[key]; dup {
						// Deliberately repeat a change: duplicates must
						// collapse, not double-apply.
						batch = append(batch, EdgeChange{U: e.V, V: e.U, PrevWeight: e.Weight})
						continue
					}
					// New weight in [1, old]: sometimes a no-op, never an
					// increase.
					nw := 1 + Dist(rng.Int63n(int64(e.Weight)))
					repl[key] = nw
					batch = append(batch, EdgeChange{U: e.U, V: e.V, PrevWeight: e.Weight})
				}
				ng := reweighted(t, g, repl)
				if _, err := set.UpdateEdges(ng, batch); err != nil {
					t.Fatalf("round %d: UpdateEdges: %v", r, err)
				}
				rebuilt, err := Build(ng, kindOptions(kind, 25))
				if err != nil {
					t.Fatal(err)
				}
				requireSameBytes(t, "churn round", set, allSketchBytes(t, rebuilt))
				g = ng
			}
		})
	}
}

// TestUpdateEdgeTZSingle: the single-edge convenience now covers TZ sets
// too (one repair code path), reproducing the rebuild exactly.
func TestUpdateEdgeTZSingle(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 56, 5, 50, 26)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(g, kindOptions(KindTZ, 26))
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[g.M()/3]
	ng := reweighted(t, g, map[[2]int]Dist{{e.U, e.V}: 1})
	if _, err := set.UpdateEdges(ng, []EdgeChange{{U: e.U, V: e.V}}); err != nil {
		t.Fatalf("UpdateEdges: %v", err)
	}
	rebuilt, err := Build(ng, kindOptions(KindTZ, 26))
	if err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "tz single edge", set, allSketchBytes(t, rebuilt))
}

// decreaseRound lowers size distinct edges of g of weight at least 2 to
// w/2, returning the changes and the reweighting.
func decreaseRound(r *rand.Rand, g *Graph, size int) ([]EdgeChange, map[[2]int]Dist) {
	repl := map[[2]int]Dist{}
	var changes []EdgeChange
	for len(changes) < size {
		e := g.Edges()[r.Intn(g.M())]
		key := [2]int{e.U, e.V}
		if _, dup := repl[key]; dup || e.Weight < 2 {
			continue
		}
		repl[key] = e.Weight / 2
		changes = append(changes, EdgeChange{U: e.U, V: e.V, PrevWeight: e.Weight})
	}
	return changes, repl
}

// reloaded returns a copy of s read back from its envelope: the same
// labels, and no kept graph.
func reloaded(t *testing.T, s *SketchSet) *SketchSet {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := ReadSketchSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestUpdateEdgesFirstRepairChecksWholeGraph: a built set and a loaded one
// keep no graph, so their first repair checks the whole graph; a
// successful non-empty batch keeps its graph, clones share it, and
// neither an empty batch nor a rejected one moves it.
func TestUpdateEdgesFirstRepairChecksWholeGraph(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 96, 5, 50, 23)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(g, kindOptions(KindTZ, 23))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/set.dsk"
	if err := SaveSketchSet(path, set, SetVersion2); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSketchSet(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	r := rand.New(rand.NewSource(23))
	changes, repl := decreaseRound(r, g, 8)
	ng := reweighted(t, g, repl)
	for name, s := range map[string]*SketchSet{"built": set, "read": reloaded(t, set), "mapped": mapped} {
		if s.graph != nil {
			t.Fatalf("%s set keeps a graph before its first repair", name)
		}
		prev := make([]sketch.Label, s.N())
		for u := range prev {
			prev[u] = s.Sketch(u).label
		}
		coreChanges := make([]core.EdgeChange, len(changes))
		for i, c := range changes {
			coreChanges[i] = core.EdgeChange{U: c.U, V: c.V, PrevWeight: c.PrevWeight}
		}
		res, err := core.Repair(ng, prev, &core.Prior{Graph: s.graph}, coreChanges, congest.Config{})
		if err != nil || res.LocalCheck {
			t.Fatalf("%s set: first repair err %v, local check %v; want the whole-graph check", name, err, err == nil && res.LocalCheck)
		}
		if _, err := s.UpdateEdges(ng, changes); err != nil {
			t.Fatalf("%s set: %v", name, err)
		}
		if s.graph != ng {
			t.Fatalf("%s set does not keep the graph of its repair", name)
		}
		if c := s.Clone(); c.graph != ng {
			t.Fatalf("%s set's clone does not share the kept graph", name)
		}
		if _, err := s.UpdateEdges(g, nil); err != nil || s.graph != ng {
			t.Fatalf("%s set: empty batch err %v, kept graph moved %v", name, err, s.graph != ng)
		}
		if _, err := s.UpdateEdges(g, []EdgeChange{{U: 0, V: s.N()}}); err == nil || s.graph != ng {
			t.Fatalf("%s set: malformed batch err %v, kept graph moved %v", name, err, s.graph != ng)
		}
		if reloaded(t, s).graph != nil {
			t.Fatalf("%s set: the kept graph was persisted", name)
		}
	}
}

// TestUpdateEdgesHiddenChangeTakesWholeCheck: a second UpdateEdges whose
// graph also differs from the kept one outside the batch (an edge made
// heavier but not listed) ends exactly as it does on a set that keeps no
// graph, for every kind: both reject it with the same error or both
// produce the same bytes.
func TestUpdateEdgesHiddenChangeTakesWholeCheck(t *testing.T) {
	g0, err := NewRandomWeightedGraph(FamilyGeometric, 200, 10, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	changes1, repl1 := decreaseRound(r, g0, 8)
	g1 := reweighted(t, g0, repl1)
	changes2, repl2 := decreaseRound(r, g1, 8)
	for _, kind := range allKinds {
		set, err := Build(g0, Options{Kind: kind, K: 3, Eps: 0.25, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := set.UpdateEdges(g1, changes1); err != nil {
			t.Fatalf("%s: first batch: %v", kind, err)
		}
		rejected, accepted := 0, 0
		for trial := 0; trial < 24; trial++ {
			h := g1.Edges()[r.Intn(g1.M())]
			key := [2]int{h.U, h.V}
			if _, listed := repl2[key]; listed {
				continue
			}
			repl := map[[2]int]Dist{key: 4 * h.Weight}
			for k, w := range repl2 {
				repl[k] = w
			}
			g2 := reweighted(t, g1, repl)
			kept, none := set.Clone(), reloaded(t, set)
			_, errKept := kept.UpdateEdges(g2, changes2)
			_, errNone := none.UpdateEdges(g2, changes2)
			if (errKept == nil) != (errNone == nil) || errKept != nil && errKept.Error() != errNone.Error() {
				t.Fatalf("%s hidden (%d,%d): set keeping a graph returned %v, set keeping none %v", kind, h.U, h.V, errKept, errNone)
			}
			if errKept != nil {
				rejected++
				continue
			}
			accepted++
			requireSameBytes(t, string(kind)+" hidden change", kept, allSketchBytes(t, none))
		}
		t.Logf("%s: %d hidden increases rejected, %d repaired", kind, rejected, accepted)
	}
}
