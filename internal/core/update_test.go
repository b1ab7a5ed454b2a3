package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// decreaseEdge returns a copy of g with edge {a,b} reweighted.
func decreaseEdge(t *testing.T, g *graph.Graph, a, b int, w graph.Dist) *graph.Graph {
	t.Helper()
	if old, ok := g.EdgeWeight(a, b); ok && w > old {
		t.Fatalf("edge (%d,%d): %d is not a decrease from %d", a, b, w, old)
	}
	ng, err := g.Reweighted([]graph.Edge{{U: a, V: b, Weight: w}})
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

func TestUpdateLandmarkExact(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 96, graph.UniformWeights(5, 50), 61)
	prev, err := BuildLandmark(g, SlackOptions{Eps: 0.25, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	// Decrease a heavy-ish edge to 1 — a change that reroutes many paths.
	e := g.Edges()[g.M()/2]
	ng := decreaseEdge(t, g, e.U, e.V, 1)
	upd, err := UpdateLandmark(ng, prev, []EdgeChange{{U: e.U, V: e.V}}, congestDefault())
	if err != nil {
		t.Fatal(err)
	}
	// Updated labels must equal exact new distances to every net node.
	for _, w := range upd.Net {
		want := graph.Dijkstra(ng, w)
		for u := 0; u < ng.N(); u++ {
			got, ok := upd.Labels[u].Get(w)
			if !ok || got != want.Dist[u] {
				t.Fatalf("node %d landmark %d: got %d (ok=%v), want %d", u, w, got, ok, want.Dist[u])
			}
		}
	}
	// And the caller's labels must still be the OLD exact distances —
	// UpdateLandmark repairs into fresh storage.
	for _, w := range prev.Net {
		want := graph.Dijkstra(g, w)
		for u := 0; u < g.N(); u++ {
			got, ok := prev.Labels[u].Get(w)
			if !ok || got != want.Dist[u] {
				t.Fatalf("prev label mutated: node %d landmark %d: got %d (ok=%v), want %d",
					u, w, got, ok, want.Dist[u])
			}
		}
	}
}

func TestUpdateLandmarkCheaperThanRebuild(t *testing.T) {
	g := graph.Make(graph.FamilyER, 128, graph.UniformWeights(5, 50), 62)
	prev, err := BuildLandmark(g, SlackOptions{Eps: 0.25, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[3]
	ng := decreaseEdge(t, g, e.U, e.V, e.Weight-1) // tiny decrease: few paths change
	upd, err := UpdateLandmark(ng, prev, []EdgeChange{{U: e.U, V: e.V}}, congestDefault())
	if err != nil {
		t.Fatal(err)
	}
	rebuild, err := BuildLandmark(ng, SlackOptions{Eps: 0.25, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Cost.Total.Messages >= rebuild.Cost.Total.Messages {
		t.Errorf("update messages %d not cheaper than rebuild %d",
			upd.Cost.Total.Messages, rebuild.Cost.Total.Messages)
	}
	// And still exact.
	for _, w := range upd.Net[:3] {
		want := graph.Dijkstra(ng, w)
		for u := 0; u < ng.N(); u++ {
			if got, _ := upd.Labels[u].Get(w); got != want.Dist[u] {
				t.Fatalf("node %d landmark %d wrong after cheap update", u, w)
			}
		}
	}
}

func TestUpdateLandmarkNoopChange(t *testing.T) {
	// "Decreasing" to the same weight must change nothing and cost only
	// the endpoint streaming.
	g := graph.Make(graph.FamilyGrid, 49, graph.UniformWeights(2, 9), 63)
	prev, err := BuildLandmark(g, SlackOptions{Eps: 0.5, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	netSize := len(prev.Net)
	e := g.Edges()[0]
	upd, err := UpdateLandmark(g, prev, []EdgeChange{{U: e.U, V: e.V}}, congestDefault())
	if err != nil {
		t.Fatal(err)
	}
	// Streaming cost: both endpoints send |N| entries over one edge.
	if upd.Cost.Total.Messages > int64(4*netSize+8) {
		t.Errorf("no-op update sent %d messages, want ~2|N|=%d", upd.Cost.Total.Messages, 2*netSize)
	}
}

func TestUpdateLandmarkBadEdge(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), 0)
	prev, err := BuildLandmark(g, SlackOptions{Eps: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UpdateLandmark(g, prev, []EdgeChange{{U: 0, V: 3}}, congestDefault()); err == nil {
		t.Error("nonexistent edge accepted")
	}
}

// TestGoldenUpdateLandmark pins the warm-start repair's exact CONGEST
// cost and the SHA-256 of its labels for one multi-edge decrease batch,
// with synchronous and with asynchronous delivery. Node 0's first three
// edges put three endpoint streams on one node; five more edges spread
// the batch across the graph. The exactness tests check the labels
// against Dijkstra; this test is what fails when a change to the repair's
// send discipline moves a round, a message or an entry.
func TestGoldenUpdateLandmark(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 256, graph.UniformWeights(1, 100), 7)
	prev, err := BuildLandmark(g, SlackOptions{Eps: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var batch []graph.Edge
	for _, a := range g.Adj(0)[:3] {
		batch = append(batch, graph.Edge{U: 0, V: a.To, Weight: max(1, a.Weight/3)})
	}
	for j := 0; j < 5; j++ {
		e := g.Edges()[1+j*g.M()/5]
		batch = append(batch, graph.Edge{U: e.U, V: e.V, Weight: max(1, e.Weight/3)})
	}
	ng, err := g.Reweighted(batch)
	if err != nil {
		t.Fatal(err)
	}
	changes := make([]EdgeChange, len(batch))
	for i, e := range batch {
		changes[i] = EdgeChange{U: e.U, V: e.V}
	}
	cases := []struct {
		name string
		cfg  congest.Config
		want congest.Stats
		sha  string
	}{
		{"sync", congest.Config{},
			congest.Stats{Rounds: 129, Messages: 25088, Words: 50176},
			"74a155ebcf50b2fb97cc2f24d2ae730dd60f25b63bc06b076f25aced1706d5ad"},
		{"async", congest.Config{MaxDelay: 3},
			congest.Stats{Rounds: 131, Messages: 27347, Words: 54694},
			"74a155ebcf50b2fb97cc2f24d2ae730dd60f25b63bc06b076f25aced1706d5ad"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			upd, err := UpdateLandmark(ng, prev, changes, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, l := range upd.Labels {
				h.Write(sketch.MarshalLandmark(l))
			}
			if upd.Cost.Total != c.want {
				t.Errorf("cost = %+v, want %+v", upd.Cost.Total, c.want)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.sha {
				t.Errorf("labels sha256 = %s, want %s", got, c.sha)
			}
		})
	}
}

// snapshotLabels deep-copies a label set so later comparison detects any
// mutation of the originals.
func snapshotLabels(labels []*sketch.LandmarkLabel) [][]sketch.Entry {
	snap := make([][]sketch.Entry, len(labels))
	for u, l := range labels {
		snap[u] = append([]sketch.Entry(nil), l.Entries...)
	}
	return snap
}

func labelsEqualSnapshot(labels []*sketch.LandmarkLabel, snap [][]sketch.Entry) bool {
	for u, l := range labels {
		if len(l.Entries) != len(snap[u]) {
			return false
		}
		for i, e := range l.Entries {
			if e != snap[u][i] {
				return false
			}
		}
	}
	return true
}

// TestUpdateLandmarkCancelLeavesPrevIntact cancels the repair engine
// mid-run and checks the error path leaves the caller's labels untouched
// — the regression the old in-place repair failed: it installed prev's
// maps into the repair nodes and mutated them during rounds, so a
// cancellation left the caller silently corrupted.
func TestUpdateLandmarkCancelLeavesPrevIntact(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 96, graph.UniformWeights(5, 50), 61)
	prev, err := BuildLandmark(g, SlackOptions{Eps: 0.25, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotLabels(prev.Labels)
	e := g.Edges()[g.M()/2]
	ng := decreaseEdge(t, g, e.U, e.V, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := congestDefault()
	cfg.Ctx = ctx
	cfg.OnRound = func(r int) {
		if r == 2 { // mid-repair: the streamed backlog is still in flight
			cancel()
		}
	}
	if _, err := UpdateLandmark(ng, prev, []EdgeChange{{U: e.U, V: e.V}}, cfg); err == nil {
		t.Fatal("canceled repair returned no error")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !labelsEqualSnapshot(prev.Labels, snap) {
		t.Fatal("canceled repair mutated the caller's labels")
	}

	// The same prev must still drive a successful repair to exact labels.
	upd, err := UpdateLandmark(ng, prev, []EdgeChange{{U: e.U, V: e.V}}, congestDefault())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range upd.Net[:3] {
		want := graph.Dijkstra(ng, w)
		for u := 0; u < ng.N(); u++ {
			if got, _ := upd.Labels[u].Get(w); got != want.Dist[u] {
				t.Fatalf("node %d landmark %d wrong after retry", u, w)
			}
		}
	}
	if !labelsEqualSnapshot(prev.Labels, snap) {
		t.Fatal("successful repair mutated the caller's labels")
	}
}

// TestUpdateLandmarkSharesUnchangedLabels checks the repair result reuses
// prev's label values for nodes whose distances did not change (the
// cheap-repair contract: cost proportional to the affected region).
func TestUpdateLandmarkSharesUnchangedLabels(t *testing.T) {
	g := graph.Make(graph.FamilyGrid, 49, graph.UniformWeights(2, 9), 63)
	prev, err := BuildLandmark(g, SlackOptions{Eps: 0.5, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[0]
	// No-op "decrease" to the same weight: nothing improves, so every
	// label must be shared pointer-identical with prev.
	upd, err := UpdateLandmark(g, prev, []EdgeChange{{U: e.U, V: e.V}}, congestDefault())
	if err != nil {
		t.Fatal(err)
	}
	for u := range upd.Labels {
		if upd.Labels[u] != prev.Labels[u] {
			t.Fatalf("node %d label copied on a no-op repair", u)
		}
	}
}

func TestMergeLabelCanonical(t *testing.T) {
	base := sketch.NewLandmarkLabelFromEntries(4, []sketch.Entry{
		{Net: 1, D: 10}, {Net: 5, D: 50}, {Net: 9, D: 90},
	})
	delta := map[int]graph.Dist{
		0:  7,  // insert before every base entry
		5:  41, // improve an existing entry
		12: 3,  // append past the end
	}
	merged := mergeLabel(base, delta)
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged label invalid: %v", err)
	}
	if merged.Owner != base.Owner {
		t.Errorf("merged owner = %d, want %d", merged.Owner, base.Owner)
	}
	want := []sketch.Entry{
		{Net: 0, D: 7}, {Net: 1, D: 10}, {Net: 5, D: 41}, {Net: 9, D: 90}, {Net: 12, D: 3},
	}
	if len(merged.Entries) != len(want) {
		t.Fatalf("Entries = %+v, want %+v", merged.Entries, want)
	}
	for i := range want {
		if merged.Entries[i] != want[i] {
			t.Fatalf("Entries[%d] = %+v, want %+v", i, merged.Entries[i], want[i])
		}
	}
	if len(base.Entries) != 3 || base.Entries[1] != (sketch.Entry{Net: 5, D: 50}) {
		t.Errorf("mergeLabel mutated its base: %+v", base.Entries)
	}
}
