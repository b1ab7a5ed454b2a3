package core

import (
	"fmt"
	"sort"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// Incremental maintenance. The paper's introduction motivates bounding
// preprocessing cost because "the distance information or network itself
// changes frequently, and this would require altering the sketches
// periodically". For the landmark sketches of Theorem 4.3 — whose labels
// are exact distances to the density net — a batch of edge weight
// *decreases* admits a cheap warm-start repair instead of a full rebuild:
//
//  1. Every node keeps its old label (entrywise an upper bound on the
//     new distances, since distances only shrank).
//  2. The endpoints of every changed edge stream their label entries to
//     each other across it (one entry per round per edge), all in the
//     same wave.
//  3. Any resulting improvement re-propagates as an ordinary
//     Bellman–Ford wave.
//
// This converges to the exact new labels: old labels violate the
// Bellman–Ford fixed-point condition only across the changed edges, step
// 2 relaxes exactly those edges, and step 3 restores the invariant
// everywhere else. The argument is per-fixed-point, not per-edge, so a
// batch of B changes costs one convergence seeded from all 2B endpoints
// at once rather than B sequential convergences — overlapping affected
// regions are traversed once instead of up to B times. Cost is
// proportional to the region whose distances actually changed, not to
// S·|N| (experiment E14 quantifies the gap).
//
// Weight increases invalidate upper bounds and are not handled here —
// Repair verifies the result with VerifyLandmarkExact and reports
// ErrUnsound when a batch contained an effective increase.

// endpointStream is one changed edge's streaming backlog at one of its
// endpoints: the node replays its full label across the changed arc
// (step 2 above). A node incident to several changed edges carries one
// stream per edge; the backlogs share the same read-only entry slice.
type endpointStream struct {
	arc     int // adjacency index of the changed arc
	backlog []srcDist
}

// updateNode runs the warm-start repair for one node. The previous label
// is read-only; improvements accumulate in a private delta map, so a run
// that errors or is canceled mid-repair leaves the caller's labels
// untouched (and the final merge pays only for entries that changed).
//
// Step 3 is a flood like tzNode's: every improvement is announced on
// every edge, so one queue per node stands for a FIFO per edge, and a
// source improved while queued is sent once, with its newest distance.
// A changed arc carries its endpoint stream only in rounds when that
// queue is empty.
type updateNode struct {
	base  *sketch.LandmarkLabel // previous label, never mutated
	delta map[int]graph.Dist    // improvements discovered during repair

	streams []endpointStream // one per incident changed edge; empty for most nodes

	queue  []int        // improved sources awaiting broadcast, oldest first
	head   int          // queue[head] is the next source to send
	queued map[int]bool // the sources in queue[head:]
}

type streamMsg struct {
	Src  int
	Dist graph.Dist
}

func (streamMsg) Words() int { return 2 }

// dist returns the node's current best distance to net node src: the
// repair improvement if one exists, the warm-started label entry
// otherwise.
func (nd *updateNode) dist(src int) (graph.Dist, bool) {
	if d, ok := nd.delta[src]; ok {
		return d, true
	}
	return nd.base.Get(src)
}

func (nd *updateNode) Init(ctx *congest.Context) {
	if nd.streaming() {
		ctx.WakeNextRound()
	}
}

func (nd *updateNode) Round(ctx *congest.Context, inbox []congest.Incoming) {
	for _, in := range inbox {
		m := in.Payload.(streamMsg)
		d := graph.AddDist(m.Dist, ctx.WeightTo(in.Edge))
		if cur, ok := nd.dist(m.Src); !ok || d < cur {
			nd.delta[m.Src] = d
			if !nd.queued[m.Src] {
				nd.queued[m.Src] = true
				nd.queue = append(nd.queue, m.Src)
			}
		}
	}
	if nd.head < len(nd.queue) {
		src := nd.queue[nd.head]
		nd.head++
		delete(nd.queued, src)
		d, _ := nd.dist(src)
		ctx.Broadcast(streamMsg{Src: src, Dist: d})
		if nd.head == len(nd.queue) {
			nd.queue, nd.head = nd.queue[:0], 0
		}
	} else {
		// The changed arcs carry their endpoint streams (step 2) only
		// while no improvement waits for every edge.
		for i := range nd.streams {
			if st := &nd.streams[i]; len(st.backlog) > 0 {
				ctx.Send(st.arc, streamMsg{Src: st.backlog[0].Src, Dist: st.backlog[0].Dist})
				st.backlog = st.backlog[1:]
			}
		}
	}
	if nd.head < len(nd.queue) || nd.streaming() {
		ctx.WakeNextRound()
	}
}

// streaming reports whether an endpoint stream still has entries to send.
func (nd *updateNode) streaming() bool {
	for i := range nd.streams {
		if len(nd.streams[i].backlog) > 0 {
			return true
		}
	}
	return false
}

// mergeLabel returns a fresh label combining the (sorted, unique) base
// entries with the repair improvements in delta. The base is not
// modified; unchanged entries are copied.
func mergeLabel(base *sketch.LandmarkLabel, delta map[int]graph.Dist) *sketch.LandmarkLabel {
	keys := make([]int, 0, len(delta))
	for w := range delta {
		keys = append(keys, w)
	}
	sort.Ints(keys)
	merged := make([]sketch.Entry, 0, len(base.Entries)+len(delta))
	i := 0
	for _, w := range keys {
		for i < len(base.Entries) && base.Entries[i].Net < w {
			merged = append(merged, base.Entries[i])
			i++
		}
		if i < len(base.Entries) && base.Entries[i].Net == w {
			i++
		}
		merged = append(merged, sketch.Entry{Net: w, D: delta[w]})
	}
	merged = append(merged, base.Entries[i:]...)
	// The merge emits entries in ascending net order already, so the
	// constructor's canonicalization is a verification-cheap no-op.
	return sketch.NewLandmarkLabelFromEntries(base.Owner, merged)
}

// UpdateLandmark repairs landmark labels after the weights of a batch of
// edges decreased. g must be the *new* topology (same node set and edges,
// the changed weights). prev is read-only: the repair accumulates
// improvements in fresh storage and merges them into new labels only on
// success, so an engine error or context cancellation mid-repair leaves
// the caller's labels exactly as they were. Labels the repair did not
// improve are shared (pointer-identical) with prev in the result.
//
// All changed endpoints seed the same wave: the whole batch converges in
// one RunUntilQuiescent instead of one per edge. Changes naming the same
// undirected edge more than once are collapsed.
func UpdateLandmark(g *graph.Graph, prev *LandmarkResult, changes []EdgeChange, cfg congest.Config) (*LandmarkResult, error) {
	n := g.N()
	if len(prev.Labels) != n {
		return nil, fmt.Errorf("core: %d labels for n=%d", len(prev.Labels), n)
	}
	// streamsFor[u] lists the changed-edge neighbors u must stream to.
	streamsFor := make(map[int][]int, 2*len(changes))
	seen := make(map[[2]int]bool, len(changes))
	for _, c := range changes {
		a, b := c.U, c.V
		if a > b {
			a, b = b, a
		}
		if a == b || a < 0 || b >= n {
			return nil, fmt.Errorf("core: edge (%d,%d) is not a repairable change", c.U, c.V)
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		if _, ok := g.EdgeWeight(a, b); !ok {
			return nil, fmt.Errorf("core: edge (%d,%d) not in graph", a, b)
		}
		streamsFor[a] = append(streamsFor[a], b)
		streamsFor[b] = append(streamsFor[b], a)
	}
	nodes := make([]congest.Node, n)
	uns := make([]*updateNode, n)
	for u := 0; u < n; u++ {
		un := &updateNode{base: prev.Labels[u], delta: make(map[int]graph.Dist), queued: make(map[int]bool)}
		if others := streamsFor[u]; len(others) > 0 {
			backlog := make([]srcDist, 0, len(prev.Labels[u].Entries))
			for _, e := range prev.Labels[u].Entries {
				backlog = append(backlog, srcDist{Src: e.Net, Dist: e.D})
			}
			adj := g.Adj(u)
			for _, other := range others {
				// The edge was checked above, and adjacency is sorted
				// and free of parallel arcs, so the search finds its arc.
				arc := sort.Search(len(adj), func(i int) bool { return adj[i].To >= other })
				un.streams = append(un.streams, endpointStream{arc: arc, backlog: backlog})
			}
		}
		uns[u] = un
		nodes[u] = un
	}
	eng := congest.NewEngine(g, nodes, cfg)
	if _, err := eng.RunUntilQuiescent(); err != nil {
		return nil, err
	}
	out := &LandmarkResult{Net: prev.Net}
	out.Labels = make([]*sketch.LandmarkLabel, n)
	for u := 0; u < n; u++ {
		if len(uns[u].delta) == 0 {
			out.Labels[u] = prev.Labels[u]
			continue
		}
		out.Labels[u] = mergeLabel(prev.Labels[u], uns[u].delta)
	}
	out.Cost.Total = eng.Stats()
	return out, nil
}
