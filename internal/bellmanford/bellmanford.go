// Package bellmanford provides Algorithm 1 of the paper (Section 3.2),
// distributed single-source Bellman–Ford, as a standalone CONGEST
// protocol: SSSP runs in O(S) rounds with O(S·|E|) messages. Experiment
// E11 runs it as the online baseline a sketch fetch is measured against.
//
// The constructions run their other Bellman–Ford waves in package core:
// the k-source wave of every TZ phase and of the landmark build
// (Theorem 4.3) is the TZ node program, and the "super node" wave of
// Lemma 4.5 is core.waveNode.
package bellmanford

import (
	"fmt"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
)

// distMsg announces "my current distance to Src is Dist".
type distMsg struct {
	Src  int
	Dist graph.Dist
}

func (distMsg) Words() int { return 2 }

// ssspNode implements Algorithm 1 for one global source.
type ssspNode struct {
	id   int
	src  int
	dist graph.Dist
}

func (nd *ssspNode) Init(ctx *congest.Context) {
	nd.dist = graph.Inf
	if nd.id == nd.src {
		nd.dist = 0
		ctx.Broadcast(distMsg{Src: nd.src, Dist: 0})
	}
}

func (nd *ssspNode) Round(ctx *congest.Context, inbox []congest.Incoming) {
	improved := false
	for _, in := range inbox {
		m := in.Payload.(distMsg)
		w := in.Edge
		if d := graph.AddDist(m.Dist, ctx.WeightTo(w)); d < nd.dist {
			nd.dist = d
			improved = true
		}
	}
	if improved {
		ctx.Broadcast(distMsg{Src: nd.src, Dist: nd.dist})
	}
}

// SSSPResult is the outcome of a distributed single-source run.
type SSSPResult struct {
	Source int
	Dist   []graph.Dist
	Stats  congest.Stats
}

// SSSP runs Algorithm 1 from src and returns every node's distance.
func SSSP(g *graph.Graph, src int, cfg congest.Config) (*SSSPResult, error) {
	if src < 0 || src >= g.N() {
		return nil, fmt.Errorf("bellmanford: source %d out of range", src)
	}
	nodes := make([]congest.Node, g.N())
	sn := make([]*ssspNode, g.N())
	for u := 0; u < g.N(); u++ {
		sn[u] = &ssspNode{id: u, src: src}
		nodes[u] = sn[u]
	}
	eng := congest.NewEngine(g, nodes, cfg)
	if _, err := eng.RunUntilQuiescent(); err != nil {
		return nil, err
	}
	res := &SSSPResult{Source: src, Dist: make([]graph.Dist, g.N()), Stats: eng.Stats()}
	for u := 0; u < g.N(); u++ {
		res.Dist[u] = sn[u].dist
	}
	return res, nil
}
