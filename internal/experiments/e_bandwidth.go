package experiments

import (
	"distsketch/internal/core"
	"distsketch/internal/graph"
)

// E13 — the Section 2.2 bandwidth generalization ("our algorithms can be
// easily generalized if B bits are allowed ... per round"): packing B
// announcements per message divides the queueing delay, so construction
// rounds shrink roughly by B while the fixed point (the labels) is
// unchanged. This is the ablation for the TZ node's FIFO announcement
// queue (tzNode.drain in internal/core); `sketchbench -exp E13` prints
// it.
func E13(cfg Config) *Table {
	t := &Table{
		Title:  "E13: bandwidth-B ablation (Section 2.2 generalization)",
		Header: []string{"family", "n", "B", "rounds", "speedup", "messages", "words", "identical"},
		Notes: []string{
			"B = announcements per message (message size 1+2B words)",
			"speedup = rounds(B=1) / rounds(B); labels must be identical for every B",
		},
	}
	k := 3
	for _, f := range cfg.Families {
		n := cfg.Sizes[len(cfg.Sizes)-1]
		g := graph.Make(f, n, graph.UniformWeights(1, 10), 31)
		n = g.N()
		base, err := core.BuildTZ(g, core.TZOptions{K: k, Seed: 31, Mode: core.SyncOmniscient})
		if err != nil {
			t.Failf("%s B=1: %v", f, err)
			continue
		}
		t.AddRow(string(f), itoa(n), "1", itoa(base.Cost.Total.Rounds), "1.00",
			i64toa(base.Cost.Total.Messages), i64toa(base.Cost.Total.Words), "-")
		for _, batch := range []int{2, 4, 8} {
			res, err := core.BuildTZ(g, core.TZOptions{K: k, Seed: 31, Mode: core.SyncOmniscient, Batch: batch})
			if err != nil {
				t.Failf("%s B=%d: %v", f, batch, err)
				continue
			}
			identical := "yes"
			for u := 0; u < n; u++ {
				a, b := res.Labels[u], base.Labels[u]
				if len(a.Bunch) != len(b.Bunch) {
					identical = "NO"
					t.Failf("%s B=%d: node %d bunch size differs", f, batch, u)
					break
				}
				for w, e := range b.Bunch {
					if a.Bunch[w] != e {
						identical = "NO"
						t.Failf("%s B=%d: node %d bunch[%d] differs", f, batch, u, w)
						break
					}
				}
				if identical == "NO" {
					break
				}
			}
			speedup := float64(base.Cost.Total.Rounds) / float64(res.Cost.Total.Rounds)
			t.AddRow(string(f), itoa(n), itoa(batch), itoa(res.Cost.Total.Rounds),
				f2(speedup), i64toa(res.Cost.Total.Messages), i64toa(res.Cost.Total.Words), identical)
			if res.Cost.Total.Rounds > base.Cost.Total.Rounds {
				t.Failf("%s B=%d: batching increased rounds (%d > %d)",
					f, batch, res.Cost.Total.Rounds, base.Cost.Total.Rounds)
			}
		}
	}
	return t
}
