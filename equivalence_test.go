package distsketch_test

// Scheduler-equivalence suite: the CONGEST engine in internal/congest
// must produce byte-identical sketches and identical Stats{Rounds,
// Messages, Words} in sequential and parallel execution, synchronous and
// asynchronous, for all four sketch kinds on multiple graph families, and
// asynchronous runs must reach the synchronous fixed point. This pins the
// scheduler at the highest level the paper cares about: the serialized
// sketch a node would hand to a peer. TestGoldenBuildExecution pins the
// same builds' exact cost and bytes across versions.

import (
	"bytes"
	"fmt"
	"testing"

	"distsketch/internal/congest"
	"distsketch/internal/core"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// buildSketches runs one construction and returns the total CONGEST cost
// plus every node's serialized sketch.
func buildSketches(t *testing.T, kind string, g *graph.Graph, cfg congest.Config, seed uint64) (congest.Stats, [][]byte) {
	t.Helper()
	n := g.N()
	out := make([][]byte, n)
	var cost congest.Stats
	switch kind {
	case "tz":
		res, err := core.BuildTZ(g, core.TZOptions{K: 3, Seed: seed, Mode: core.SyncOmniscient, Congest: cfg})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			out[u] = sketch.MarshalTZ(res.Labels[u])
		}
		cost = res.Cost.Total
	case "landmark":
		res, err := core.BuildLandmark(g, core.SlackOptions{Eps: 0.25, Seed: seed, Congest: cfg})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			out[u] = sketch.MarshalLandmark(res.Labels[u])
		}
		cost = res.Cost.Total
	case "cdg":
		res, err := core.BuildCDG(g, core.SlackOptions{Eps: 0.25, K: 2, Seed: seed, Congest: cfg})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			out[u] = sketch.MarshalCDG(res.Labels[u])
		}
		cost = res.Cost.Total
	case "graceful":
		res, err := core.BuildGraceful(g, core.SlackOptions{Seed: seed, Congest: cfg})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			out[u] = sketch.MarshalGraceful(res.Labels[u])
		}
		cost = res.Cost.Total
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	return cost, out
}

func assertSameRun(t *testing.T, label string, sa congest.Stats, a [][]byte, sb congest.Stats, b [][]byte) {
	t.Helper()
	if sa != sb {
		t.Errorf("%s: stats differ: %v vs %v", label, sa, sb)
	}
	for u := range a {
		if !bytes.Equal(a[u], b[u]) {
			t.Fatalf("%s: node %d sketch bytes differ (%d vs %d bytes)", label, u, len(a[u]), len(b[u]))
		}
	}
}

func TestSchedulerEquivalence(t *testing.T) {
	kinds := []string{"tz", "landmark", "cdg", "graceful"}
	families := []graph.Family{graph.FamilyGeometric, graph.FamilyBA}
	for _, kind := range kinds {
		for _, fam := range families {
			t.Run(fmt.Sprintf("%s/%s", kind, fam), func(t *testing.T) {
				g := graph.Make(fam, 72, graph.UniformWeights(1, 6), 17)
				seed := uint64(42)

				// Reference: sequential run on the active-set scheduler.
				refStats, refBytes := buildSketches(t, kind, g, congest.Config{Sequential: true}, seed)

				// Parallel must be bit-identical.
				s, b := buildSketches(t, kind, g, congest.Config{}, seed)
				assertSameRun(t, "parallel", refStats, refBytes, s, b)

				// Async delivery (MaxDelay > 1) changes the execution — more
				// rounds — but sequential vs parallel must still agree
				// exactly, and the sketches must converge to the same fixed
				// point as the synchronous run.
				asyncCfg := congest.Config{MaxDelay: 3, Sequential: true}
				asyncStats, asyncBytes := buildSketches(t, kind, g, asyncCfg, seed)
				s, b = buildSketches(t, kind, g, congest.Config{MaxDelay: 3}, seed)
				assertSameRun(t, "async-par", asyncStats, asyncBytes, s, b)
				for u := range refBytes {
					if !bytes.Equal(refBytes[u], asyncBytes[u]) {
						t.Fatalf("async fixed point: node %d sketch differs from synchronous run", u)
					}
				}
				if asyncStats.Rounds < refStats.Rounds {
					t.Errorf("async rounds %d < sync rounds %d", asyncStats.Rounds, refStats.Rounds)
				}
			})
		}
	}
}
