package exchange

import (
	"bytes"
	"testing"
	"testing/quick"

	"distsketch/internal/bfstree"
	"distsketch/internal/congest"
	"distsketch/internal/core"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := [][]byte{nil, {}, {1}, {1, 2, 3, 4, 5, 6, 7, 8}, {9, 9, 9, 9, 9, 9, 9, 9, 1}}
	for _, c := range cases {
		got, err := UnpackWords(PackWords(c))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c) {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(data []byte) bool {
		got, err := UnpackWords(PackWords(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnpackRejectsBadStreams(t *testing.T) {
	if _, err := UnpackWords(nil); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := UnpackWords([]uint64{100}); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := UnpackWords([]uint64{1, 0, 0}); err == nil {
		t.Error("oversized stream accepted")
	}
}

func TestFetchDeliversSketch(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 64, nil, 4)
	tree, err := bfstree.Build(g, g.N()-1, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildTZ(g, core.TZOptions{K: 3, Seed: 4, Mode: core.SyncOmniscient})
	if err != nil {
		t.Fatal(err)
	}
	sketches := make([][]byte, g.N())
	for u := range sketches {
		sketches[u] = sketch.MarshalTZ(res.Labels[u])
	}
	for _, pair := range [][2]int{{0, 63}, {10, 20}, {5, 6}} {
		u, v := pair[0], pair[1]
		fr, err := Fetch(g, tree, sketches, u, v, congest.Config{})
		if err != nil {
			t.Fatalf("(%d,%d): %v", u, v, err)
		}
		if !bytes.Equal(fr.Sketch, sketches[v]) {
			t.Fatalf("(%d,%d): fetched sketch differs", u, v)
		}
		// End to end: the fetched sketch answers the query.
		lab, err := sketch.UnmarshalTZ(fr.Sketch)
		if err != nil {
			t.Fatal(err)
		}
		if got := sketch.QueryTZ(res.Labels[u], lab); got != res.Query(u, v) {
			t.Fatalf("(%d,%d): fetched-query %d != direct %d", u, v, got, res.Query(u, v))
		}
	}
}

// TestGoldenTreeAndFetch pins the exact CONGEST cost of the echo BFS
// tree and of one tree-routed sketch fetch on the 256-node geometric
// graph of the root package's golden tests. Both protocols send through
// per-edge FIFOs, so this is what fails when a change to that discipline
// moves a round or a message.
func TestGoldenTreeAndFetch(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 256, graph.UniformWeights(1, 100), 7)
	n := g.N()
	tree, err := bfstree.Build(g, n-1, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (congest.Stats{Rounds: 17, Messages: 16516, Words: 25029}); tree.Stats != want {
		t.Errorf("tree cost = %+v, want %+v", tree.Stats, want)
	}
	res, err := core.BuildTZ(g, core.TZOptions{K: 3, Seed: 7, Mode: core.SyncOmniscient})
	if err != nil {
		t.Fatal(err)
	}
	sketches := make([][]byte, n)
	for u := range sketches {
		sketches[u] = sketch.MarshalTZ(res.Labels[u])
	}
	fr, err := Fetch(g, tree, sketches, 0, 200, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (congest.Stats{Rounds: 18, Messages: 50, Words: 190}); fr.Rounds != 18 || fr.Stats != want {
		t.Errorf("fetch took %d rounds, cost %+v; want 18 rounds, %+v", fr.Rounds, fr.Stats, want)
	}
	if !bytes.Equal(fr.Sketch, sketches[200]) {
		t.Error("fetched sketch differs")
	}
}

func TestFetchRoundsBound(t *testing.T) {
	// The paper: fetching costs at most O(D · sketch-words) rounds. With
	// pipelining it is ≤ c·(2·height + words).
	g := graph.Make(graph.FamilyER, 96, graph.UniformWeights(1, 9), 8)
	tree, err := bfstree.Build(g, g.N()-1, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildTZ(g, core.TZOptions{K: 3, Seed: 8, Mode: core.SyncOmniscient})
	if err != nil {
		t.Fatal(err)
	}
	sketches := make([][]byte, g.N())
	for u := range sketches {
		sketches[u] = sketch.MarshalTZ(res.Labels[u])
	}
	u, v := 0, g.N()/2
	fr, err := Fetch(g, tree, sketches, u, v, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	words := len(PackWords(sketches[v]))
	bound := 2*(2*tree.Height()+words) + 8
	if fr.Rounds > bound {
		t.Errorf("fetch took %d rounds > pipelined bound %d (height=%d words=%d)",
			fr.Rounds, bound, tree.Height(), words)
	}
	if fr.Rounds <= 0 {
		t.Error("fetch rounds not recorded")
	}
}

func TestFetchSelf(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), 0)
	tree, err := bfstree.Build(g, 3, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sketches := [][]byte{{1}, {2}, {3}, {4}}
	fr, err := Fetch(g, tree, sketches, 2, 2, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Sketch, []byte{3}) || fr.Rounds != 0 {
		t.Errorf("self fetch wrong: %+v", fr)
	}
}

func TestFetchBadInput(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), 0)
	tree, err := bfstree.Build(g, 3, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fetch(g, tree, [][]byte{{1}}, 0, 1, congest.Config{}); err == nil {
		t.Error("wrong sketch count accepted")
	}
}

func BenchmarkFetch(b *testing.B) {
	g := graph.Make(graph.FamilyER, 256, graph.UniformWeights(1, 20), 1)
	tree, err := bfstree.Build(g, g.N()-1, congest.Config{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.BuildTZ(g, core.TZOptions{K: 3, Seed: 1, Mode: core.SyncOmniscient})
	if err != nil {
		b.Fatal(err)
	}
	sketches := make([][]byte, g.N())
	for u := range sketches {
		sketches[u] = sketch.MarshalTZ(res.Labels[u])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fetch(g, tree, sketches, i%g.N(), (i*31+7)%g.N(), congest.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFetchUnderAsyncDelivery(t *testing.T) {
	// The fetch protocol is FIFO-causal, so it completes correctly under
	// bounded random delays too (just slower).
	g := graph.Make(graph.FamilyGrid, 49, graph.UnitWeights(), 2)
	tree, err := bfstree.Build(g, g.N()-1, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sketches := make([][]byte, g.N())
	for u := range sketches {
		sketches[u] = []byte{byte(u), byte(u + 1), byte(u + 2)}
	}
	syncFr, err := Fetch(g, tree, sketches, 0, 48, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	asyncFr, err := Fetch(g, tree, sketches, 0, 48, congest.Config{MaxDelay: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(asyncFr.Sketch, sketches[48]) {
		t.Error("async fetch corrupted the sketch")
	}
	if asyncFr.Rounds <= syncFr.Rounds {
		t.Errorf("async fetch rounds %d should exceed sync %d", asyncFr.Rounds, syncFr.Rounds)
	}
}
