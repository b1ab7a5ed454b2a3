package bellmanford

import (
	"testing"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
)

func TestSSSPMatchesDijkstra(t *testing.T) {
	for _, f := range graph.AllFamilies() {
		g := graph.Make(f, 64, graph.UniformWeights(1, 9), 3)
		res, err := SSSP(g, 0, congest.Config{})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		want := graph.Dijkstra(g, 0)
		for u := 0; u < g.N(); u++ {
			if res.Dist[u] != want.Dist[u] {
				t.Fatalf("%s node %d: %d != %d", f, u, res.Dist[u], want.Dist[u])
			}
		}
	}
}

func TestSSSPRoundsAtMostS(t *testing.T) {
	// Algorithm 1 converges within S rounds (plus the final quiet round).
	g := graph.Make(graph.FamilyGeometric, 96, nil, 7)
	s := graph.ShortestPathDiameter(g)
	res, err := SSSP(g, 5, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds > s+2 {
		t.Errorf("rounds %d > S+2 = %d", res.Stats.Rounds, s+2)
	}
}

func TestSSSPBadSource(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), 0)
	if _, err := SSSP(g, 9, congest.Config{}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func BenchmarkSSSP(b *testing.B) {
	g := graph.Make(graph.FamilyER, 256, graph.UniformWeights(1, 50), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SSSP(g, i%g.N(), congest.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
