// Package bellmanford provides the distributed Bellman–Ford primitives the
// paper builds on (Section 3.2, Algorithm 1, and the "super node" variant
// of Lemma 4.5) as standalone, reusable CONGEST protocols:
//
//   - SSSP: single-source shortest paths (Algorithm 1). O(S) rounds,
//     O(S·|E|) messages.
//   - KSource: concurrent Bellman–Ford from a set of sources, where every
//     node learns its distance to every source (the "k-Source Shortest
//     Paths Problem" used for phase k-1 and for Theorem 4.3). Per-edge
//     FIFO queues keep it within the CONGEST bandwidth budget.
//   - SuperNode: all sources collapsed into one virtual source; every
//     node learns the nearest source, its distance, and its parent edge
//     toward it (the Voronoi forest of the source set).
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
	defer eng.Close()
	if _, err := eng.RunUntilQuiescent(0); err != nil {
		return nil, err
	}
	res := &SSSPResult{Source: src, Dist: make([]graph.Dist, g.N()), Stats: eng.Stats()}
	for u := 0; u < g.N(); u++ {
		res.Dist[u] = sn[u].dist
	}
	return res, nil
}

// ksourceNode runs concurrent Bellman–Ford for many sources with per-edge
// FIFO queues (at most one message per edge per round).
type ksourceNode struct {
	id       int
	isSource bool
	best     map[int]graph.Dist

	fifo   [][]int        // per edge: queued source IDs
	inFifo []map[int]bool // per edge: dedup
}

func (nd *ksourceNode) Init(ctx *congest.Context) {
	nd.best = make(map[int]graph.Dist)
	deg := ctx.Degree()
	nd.fifo = make([][]int, deg)
	nd.inFifo = make([]map[int]bool, deg)
	for i := 0; i < deg; i++ {
		nd.inFifo[i] = make(map[int]bool)
	}
	if nd.isSource {
		nd.best[nd.id] = 0
		nd.enqueueAll(nd.id)
	}
	nd.drain(ctx)
}

func (nd *ksourceNode) enqueueAll(src int) {
	for i := range nd.fifo {
		if !nd.inFifo[i][src] {
			nd.inFifo[i][src] = true
			nd.fifo[i] = append(nd.fifo[i], src)
		}
	}
}

func (nd *ksourceNode) Round(ctx *congest.Context, inbox []congest.Incoming) {
	for _, in := range inbox {
		m := in.Payload.(distMsg)
		w := in.Edge
		d := graph.AddDist(m.Dist, ctx.WeightTo(w))
		if cur, ok := nd.best[m.Src]; !ok || d < cur {
			nd.best[m.Src] = d
			nd.enqueueAll(m.Src)
		}
	}
	nd.drain(ctx)
}

func (nd *ksourceNode) drain(ctx *congest.Context) {
	pending := false
	for i := range nd.fifo {
		if len(nd.fifo[i]) == 0 {
			continue
		}
		src := nd.fifo[i][0]
		copy(nd.fifo[i], nd.fifo[i][1:])
		nd.fifo[i] = nd.fifo[i][:len(nd.fifo[i])-1]
		delete(nd.inFifo[i], src)
		ctx.Send(i, distMsg{Src: src, Dist: nd.best[src]})
		if len(nd.fifo[i]) > 0 {
			pending = true
		}
	}
	if pending {
		ctx.WakeNextRound()
	}
}

// KSourceResult is the outcome of a concurrent multi-source run.
type KSourceResult struct {
	Sources []int
	// Dist[u][s] = d(u, s) for every source s reachable from u.
	Dist  []map[int]graph.Dist
	Stats congest.Stats
}

// KSource runs concurrent Bellman–Ford from all sources; every node ends
// up knowing its distance to every (reachable) source.
func KSource(g *graph.Graph, sources []int, cfg congest.Config) (*KSourceResult, error) {
	isSrc := make([]bool, g.N())
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("bellmanford: source %d out of range", s)
		}
		isSrc[s] = true
	}
	nodes := make([]congest.Node, g.N())
	kn := make([]*ksourceNode, g.N())
	for u := 0; u < g.N(); u++ {
		kn[u] = &ksourceNode{id: u, isSource: isSrc[u]}
		nodes[u] = kn[u]
	}
	eng := congest.NewEngine(g, nodes, cfg)
	defer eng.Close()
	if _, err := eng.RunUntilQuiescent(0); err != nil {
		return nil, err
	}
	res := &KSourceResult{Sources: sources, Dist: make([]map[int]graph.Dist, g.N()), Stats: eng.Stats()}
	for u := 0; u < g.N(); u++ {
		res.Dist[u] = kn[u].best
	}
	return res, nil
}
