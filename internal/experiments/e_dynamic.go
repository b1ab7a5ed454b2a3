package experiments

import (
	"distsketch/internal/core"
	"distsketch/internal/graph"
)

// E14 — incremental maintenance (the introduction's "network changes
// frequently" motivation): after an edge weight decrease, the warm-start
// repair of the landmark sketches vs a full rebuild. The repair cost
// scales with the size of the affected region, so small changes are
// orders of magnitude cheaper while the labels stay exact.
func E14(cfg Config) *Table {
	t := &Table{
		Title:  "E14: incremental landmark update vs full rebuild (edge weight decrease)",
		Header: []string{"family", "n", "change", "updMsgs", "rebuildMsgs", "saving", "updRounds", "rebuildRounds"},
		Notes: []string{
			"change: 'small' = weight-1 on one edge; 'large' = a mid-graph edge dropped to weight 1",
			"labels are verified exact against Dijkstra on the new topology in both cases",
		},
	}
	eps := 0.25
	for _, f := range cfg.Families {
		n := cfg.Sizes[len(cfg.Sizes)-1]
		g := graph.Make(f, n, graph.UniformWeights(5, 50), 71)
		n = g.N()
		prev, err := core.BuildLandmark(g, core.SlackOptions{Eps: eps, Seed: 71})
		if err != nil {
			t.Failf("%s: %v", f, err)
			continue
		}
		for _, change := range []struct {
			name string
			pick func() (graph.Edge, graph.Dist)
		}{
			{"small", func() (graph.Edge, graph.Dist) {
				e := g.Edges()[1]
				return e, e.Weight - 1
			}},
			{"large", func() (graph.Edge, graph.Dist) {
				e := g.Edges()[g.M()/2]
				return e, 1
			}},
		} {
			e, w := change.pick()
			ng, err := g.Reweighted([]graph.Edge{{U: e.U, V: e.V, Weight: w}})
			if err != nil {
				t.Failf("%s %s reweight: %v", f, change.name, err)
				continue
			}
			// UpdateLandmark treats prev as read-only, so the one base
			// build is shared across both change scenarios.
			upd, err := core.UpdateLandmark(ng, prev, []core.EdgeChange{{U: e.U, V: e.V}}, congestCfg())
			if err != nil {
				t.Failf("%s %s update: %v", f, change.name, err)
				continue
			}
			rebuild, err := core.BuildLandmark(ng, core.SlackOptions{Eps: eps, Seed: 71})
			if err != nil {
				t.Failf("%s %s rebuild: %v", f, change.name, err)
				continue
			}
			// Exactness: updated labels equal the rebuilt ones.
			for u := 0; u < n; u++ {
				if upd.Labels[u].Len() != rebuild.Labels[u].Len() {
					t.Failf("%s %s: node %d has %d entries, rebuild %d",
						f, change.name, u, upd.Labels[u].Len(), rebuild.Labels[u].Len())
					continue
				}
				for _, re := range rebuild.Labels[u].Entries {
					if got, ok := upd.Labels[u].Get(re.Net); !ok || got != re.D {
						t.Failf("%s %s: node %d landmark %d: update %d != rebuild %d",
							f, change.name, u, re.Net, got, re.D)
					}
				}
			}
			saving := float64(rebuild.Cost.Total.Messages) / float64(maxI64(upd.Cost.Total.Messages, 1))
			t.AddRow(string(f), itoa(n), change.name,
				i64toa(upd.Cost.Total.Messages), i64toa(rebuild.Cost.Total.Messages),
				f1(saving)+"x", itoa(upd.Cost.Total.Rounds), itoa(rebuild.Cost.Total.Rounds))
			if upd.Cost.Total.Messages > rebuild.Cost.Total.Messages {
				t.Failf("%s %s: update costlier than rebuild", f, change.name)
			}
		}
	}
	return t
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
