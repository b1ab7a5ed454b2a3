package core

import (
	"fmt"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
)

// waveNode implements the "super node" Bellman–Ford of Lemma 4.5: all
// density-net members act as a single virtual source, and at quiescence
// every node knows its distance to the nearest net node, that node's
// identity, and the neighbor on a shortest path toward it (its parent in
// the net's Voronoi forest, used later for label shipping).
//
// Improvement is lexicographic in (distance, source ID), which makes the
// fixed point identical to the centralized MultiSourceDijkstra tie-broken
// the same way: if (d*, s*) is optimal for u, the next hop x on a
// shortest u→s* path has optimum exactly (d*-w, s*), so the optimal wave
// always propagates.
type waveNode struct {
	id    int
	isNet bool

	best      graph.Dist
	bestSrc   int
	parentIdx int  // neighbor index toward bestSrc; -1 at a net node
	queued    bool // the current best awaits broadcast
}

func newWaveNode(id int, isNet bool) *waveNode {
	return &waveNode{id: id, isNet: isNet, best: graph.Inf, bestSrc: -1, parentIdx: -1}
}

func (w *waveNode) Init(ctx *congest.Context) {
	if w.isNet {
		w.best = 0
		w.bestSrc = w.id
		w.queued = true
	}
	w.drain(ctx)
}

func (w *waveNode) Round(ctx *congest.Context, inbox []congest.Incoming) {
	for _, in := range inbox {
		m, ok := in.Payload.(netWaveMsg)
		if !ok {
			panic(fmt.Sprintf("core: wave node %d got %T", w.id, in.Payload))
		}
		from := in.Edge
		nd := graph.AddDist(m.Dist, ctx.WeightTo(from))
		if nd < w.best || (nd == w.best && m.Src < w.bestSrc) {
			w.best = nd
			w.bestSrc = m.Src
			w.parentIdx = from
			w.queued = true
		}
	}
	w.drain(ctx)
}

// drain broadcasts the current best, once, if it improved since the last
// broadcast. A node has a single logical source, so nothing is ever left
// queued for a later round.
func (w *waveNode) drain(ctx *congest.Context) {
	if w.queued {
		ctx.Broadcast(netWaveMsg{Dist: w.best, Src: w.bestSrc})
		w.queued = false
	}
}

// adoptMsg tells a neighbor it is this node's Voronoi-forest parent.
type adoptMsg struct{}

func (adoptMsg) Words() int { return 1 }

// adoptNode runs the single-round child-discovery step after the wave:
// every non-net node tells its parent "you are my parent", so every node
// learns its cell children.
type adoptNode struct {
	parentIdx int // -1 for net nodes
	children  []int
}

func (a *adoptNode) Init(ctx *congest.Context) {
	if a.parentIdx >= 0 {
		ctx.Send(a.parentIdx, adoptMsg{})
	}
}

func (a *adoptNode) Round(ctx *congest.Context, inbox []congest.Incoming) {
	for _, in := range inbox {
		if _, ok := in.Payload.(adoptMsg); !ok {
			panic(fmt.Sprintf("core: adopt node got %T", in.Payload))
		}
		a.children = append(a.children, in.Edge)
	}
}
