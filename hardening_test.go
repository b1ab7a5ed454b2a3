package distsketch

// Regression tests for the serving-hardening fixes: bounds-checked query
// accessors (no panics on untrusted node ids), MeanSketchWords on an
// empty set (was NaN), ReadSketchSet on a zero-sketch envelope (was an
// unusable set), and UpdateEdges on a weight increase (was silently wrong
// estimates).

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestCheckedAccessorsRange(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 32, 1, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(g, Options{Kind: KindTZ, K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{-1, 32, 1 << 30, math.MinInt} {
		if _, err := set.QueryChecked(u, 0); !errors.Is(err, ErrNodeRange) {
			t.Errorf("QueryChecked(%d, 0): err = %v, want ErrNodeRange", u, err)
		}
		if _, err := set.QueryChecked(0, u); !errors.Is(err, ErrNodeRange) {
			t.Errorf("QueryChecked(0, %d): err = %v, want ErrNodeRange", u, err)
		}
		if _, err := set.SketchChecked(u); !errors.Is(err, ErrNodeRange) {
			t.Errorf("SketchChecked(%d): err = %v, want ErrNodeRange", u, err)
		}
		if _, err := set.SketchBytesChecked(u); !errors.Is(err, ErrNodeRange) {
			t.Errorf("SketchBytesChecked(%d): err = %v, want ErrNodeRange", u, err)
		}
	}
	// In range, the checked and panicking paths must agree exactly.
	for _, pair := range [][2]int{{0, 31}, {5, 5}, {17, 2}} {
		d, err := set.QueryChecked(pair[0], pair[1])
		if err != nil {
			t.Fatalf("QueryChecked%v: %v", pair, err)
		}
		if want := set.Query(pair[0], pair[1]); d != want {
			t.Errorf("QueryChecked%v = %d, Query = %d", pair, d, want)
		}
	}
	blob, err := set.SketchBytesChecked(7)
	if err != nil || !bytes.Equal(blob, set.SketchBytes(7)) {
		t.Errorf("SketchBytesChecked(7) disagrees with SketchBytes: %v", err)
	}
}

// TestMeanSketchWordsEmpty: the old implementation divided by zero and
// returned NaN, which then poisoned any arithmetic or JSON encoding
// downstream.
func TestMeanSketchWordsEmpty(t *testing.T) {
	var empty SketchSet
	if got := empty.MeanSketchWords(); got != 0 {
		t.Errorf("MeanSketchWords on empty set = %v, want 0", got)
	}
	if got := empty.MaxSketchWords(); got != 0 {
		t.Errorf("MaxSketchWords on empty set = %v, want 0", got)
	}
}

// TestReadSketchSetRejectsEmpty: an envelope holding zero sketches used
// to deserialize into a set whose every accessor panics; it must be
// rejected at load time instead.
func TestReadSketchSetRejectsEmpty(t *testing.T) {
	empty := &SketchSet{kind: KindTZ}
	var buf bytes.Buffer
	if _, err := empty.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSketchSet(&buf); err == nil {
		t.Fatal("ReadSketchSet accepted a zero-sketch envelope")
	}
}

// lineGraph builds a path 0-1-...-n-1 with uniform edge weight w: the
// topology where every left-right estimate crosses every interior edge,
// so a weight change on the middle edge provably moves distances.
func lineGraph(t *testing.T, n int, w Dist) *Graph {
	t.Helper()
	b := NewGraphBuilder(n)
	for u := 0; u+1 < n; u++ {
		b.AddEdge(u, u+1, w)
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildLineLandmark builds a landmark set on a line graph, scanning
// seeds until the sampled density net is nonempty.
func buildLineLandmark(t *testing.T, g *Graph) *SketchSet {
	t.Helper()
	for seed := uint64(1); seed < 64; seed++ {
		set, err := Build(g, Options{Kind: KindLandmark, Eps: 0.5, Seed: seed})
		if err == nil {
			return set
		}
	}
	t.Fatal("no seed produced a nonempty density net")
	return nil
}

// TestUpdateEdgeIncreaseRejected demonstrates the bug the verification
// fixes: on a weight *increase* the warm-start repair converges to
// stale labels, and the pre-fix repair returned success while
// serving estimates from the old, now-too-short distances. The repaired
// set must instead be rejected with ErrRebuildRequired and the live set
// left byte-identical to its pre-call state.
func TestUpdateEdgeIncreaseRejected(t *testing.T) {
	const n = 32
	g := lineGraph(t, n, 2)
	set := buildLineLandmark(t, g)

	estBefore := set.Query(0, n-1) // crosses the middle edge
	wordsBefore := set.MeanSketchWords()

	// Increase the middle edge 2 -> 100: d(0, n-1) grows by 98, but the
	// warm-started labels keep the old distances — the wrong estimate the
	// pre-fix code would have served.
	g2 := lineGraph(t, n, 2)
	bumped := NewGraphBuilder(n)
	for _, e := range g2.Edges() {
		w := e.Weight
		if e.U == n/2-1 && e.V == n/2 {
			w = 100
		}
		bumped.AddEdge(e.U, e.V, w)
	}
	gUp, err := bumped.Freeze()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := set.UpdateEdges(gUp, []EdgeChange{{U: n/2 - 1, V: n / 2}}); !errors.Is(err, ErrRebuildRequired) {
		t.Fatalf("UpdateEdges on a weight increase: err = %v, want ErrRebuildRequired", err)
	}
	if got := set.Query(0, n-1); got != estBefore {
		t.Errorf("failed repair mutated the set: Query(0,%d) %d -> %d", n-1, estBefore, got)
	}
	if got := set.MeanSketchWords(); got != wordsBefore {
		t.Errorf("failed repair changed sketch sizes: %g -> %g", wordsBefore, got)
	}

	// The estimate the stale labels would have kept serving really is
	// wrong: a rebuild on the increased graph answers differently.
	rebuilt := buildLineLandmark(t, gUp)
	if got := rebuilt.Query(0, n-1); got <= estBefore {
		t.Errorf("expected the increase to move the true estimate above %d, rebuild says %d", estBefore, got)
	}

	// Decreases still repair exactly (no false positives from the new
	// verification), and Clone isolates the repair from the original.
	gDown := NewGraphBuilder(n)
	for _, e := range lineGraph(t, n, 2).Edges() {
		w := e.Weight
		if e.U == n/2-1 && e.V == n/2 {
			w = 1
		}
		gDown.AddEdge(e.U, e.V, w)
	}
	gd, err := gDown.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	repaired := set.Clone()
	if _, err := repaired.UpdateEdges(gd, []EdgeChange{{U: n/2 - 1, V: n / 2}}); err != nil {
		t.Fatalf("UpdateEdges on a weight decrease: %v", err)
	}
	if got, want := repaired.Query(0, n-1), estBefore-1; got != want {
		t.Errorf("post-decrease Query(0,%d) = %d, want %d", n-1, got, want)
	}
	if got := set.Query(0, n-1); got != estBefore {
		t.Errorf("repairing a clone mutated the original: %d -> %d", estBefore, got)
	}

	// Out-of-range endpoints are errors, not panics.
	if _, err := set.UpdateEdges(gd, []EdgeChange{{U: -1, V: 3}}); !errors.Is(err, ErrNodeRange) {
		t.Errorf("UpdateEdges(-1, 3): err = %v, want ErrNodeRange", err)
	}
	if _, err := set.UpdateEdges(gd, []EdgeChange{{U: 0, V: n}}); !errors.Is(err, ErrNodeRange) {
		t.Errorf("UpdateEdges(0, %d): err = %v, want ErrNodeRange", n, err)
	}

	// A graph containing any zero-weight edge is refused up front — the
	// exactness verification cannot vouch for it — with an error naming
	// the offending edge. Not ErrRebuildRequired: rebuilding cannot make
	// such a graph repairable, so that sentinel's remedy would mislead.
	zb := NewGraphBuilder(n)
	for _, e := range gd.Edges() {
		w := e.Weight
		if e.U == 0 && e.V == 1 {
			w = 0
		}
		zb.AddEdge(e.U, e.V, w)
	}
	gz, err := zb.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	_, err = set.UpdateEdges(gz, []EdgeChange{{U: n/2 - 1, V: n / 2}})
	if err == nil || errors.Is(err, ErrRebuildRequired) || !strings.Contains(err.Error(), "zero-weight edge (0,1)") {
		t.Errorf("UpdateEdges on a zero-weight graph: err = %v, want a non-ErrRebuildRequired error naming edge (0,1)", err)
	}
}
