package distsketch

// SketchSet.Clone is what the serving layer's clone-repair-swap cycle
// stands on: a clone must be estimate-identical, mutations of either
// copy must be invisible to the other, and cloning a lazily loaded set
// must share the decode cache (the blobs are immutable; duplicating
// them would double memory for nothing).

import (
	"bytes"
	"testing"
)

// TestCloneIsolatesOriginalRepair repairs the ORIGINAL after cloning —
// the direction the serve path never exercises (it always repairs the
// clone) — and demands the clone keep the pre-repair estimates.
func TestCloneIsolatesOriginalRepair(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 16, 2, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(g, Options{Kind: KindLandmark, Eps: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	edge := g.Edges()[0]
	if edge.Weight < 2 {
		t.Fatalf("edge %v too light to decrease", edge)
	}

	clone := set.Clone()
	before := make(map[[2]int]Dist)
	for u := 0; u < set.N(); u++ {
		for v := u; v < set.N(); v += 3 {
			before[[2]int{u, v}] = clone.Query(u, v)
		}
	}

	g2, err := g.Reweighted([]Edge{{U: edge.U, V: edge.V, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.UpdateEdges(g2, []EdgeChange{{U: edge.U, V: edge.V}}); err != nil {
		t.Fatalf("UpdateEdges on the original: %v", err)
	}

	changed := false
	for p, want := range before {
		if got := clone.Query(p[0], p[1]); got != want {
			t.Fatalf("repairing the original changed the clone's estimate (%d,%d): %d -> %d", p[0], p[1], want, got)
		}
		if set.Query(p[0], p[1]) != want {
			changed = true
		}
	}
	if !changed {
		t.Error("the repair moved no estimate; the isolation check proved nothing")
	}
	// The clone's cost ledger is its own: the repair's cost accrued to
	// the original only.
	if set.Messages() == clone.Messages() {
		t.Error("repair cost did not accrue, or accrued to both copies")
	}
}

// TestCloneSharesLazyDecodeCache clones a lazily loaded (version-2) set
// and verifies the clones share first-touch decode state instead of
// duplicating blob memory, and that materializing one copy does not
// strip the other's lazy plumbing.
func TestCloneSharesLazyDecodeCache(t *testing.T) {
	eager := faultSet(t)
	lazy, err := ReadSketchSet(bytes.NewReader(envelopeBytes(t, eager)))
	if err != nil {
		t.Fatal(err)
	}
	if lazy.DecodedSketches() != 0 {
		t.Fatalf("fresh lazy set reports %d decoded sketches", lazy.DecodedSketches())
	}
	clone := lazy.Clone()
	if clone.EnvelopeVersion() != SetVersion2 {
		t.Errorf("clone envelope version = %d, want %d", clone.EnvelopeVersion(), SetVersion2)
	}
	if got, want := clone.Query(3, 5), eager.Query(3, 5); got != want {
		t.Fatalf("clone Query(3,5) = %d, want %d", got, want)
	}
	// The decode the clone just paid for is visible through the original:
	// one cache, not two copies of the blobs.
	if lazy.DecodedSketches() == 0 {
		t.Error("clone's first-touch decode invisible to the original; Clone duplicated the decode cache")
	}
	for u := 0; u < eager.N(); u += 2 {
		for v := u; v < eager.N(); v += 3 {
			if got, want := clone.Query(u, v), eager.Query(u, v); got != want {
				t.Fatalf("lazy clone Query(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
	// Materializing the clone must not tear the lazy state out from under
	// the original.
	if err := clone.Materialize(); err != nil {
		t.Fatal(err)
	}
	if clone.DecodedSketches() != eager.N() {
		t.Errorf("materialized clone reports %d/%d decoded", clone.DecodedSketches(), eager.N())
	}
	if lazy.labels.blobs == nil {
		t.Fatal("materializing the clone dropped the original's lazy state")
	}
	if got, want := lazy.Query(1, 4), eager.Query(1, 4); got != want {
		t.Errorf("original after clone materialize: Query(1,4) = %d, want %d", got, want)
	}
}
