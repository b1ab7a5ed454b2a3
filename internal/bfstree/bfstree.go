// Package bfstree builds rooted BFS spanning trees with in-band
// termination detection (the Section 3.3 prologue of the paper) and
// equips them with DFS interval labels that support tree routing — the
// substrate used to measure the paper's "exchange the sketches in O(D ·
// size) rounds" claim (Section 2.1) with a real protocol.
//
// The construction is the classic echo BFS: the root floods a BFS token;
// each node adopts the first sender as parent, ACCEPTs it, REJECTs later
// offers, and reports DONE up the tree once its whole subtree has
// finished. It takes O(D) rounds and O(|E|) messages. Leader election is
// immediate in this ID model (IDs are 0..n-1 and n is common knowledge,
// so the maximum ID n-1 is a leader with zero communication — see
// internal/core's detectNode for the same argument).
//
// Interval labels are assigned by two tree sweeps: a convergecast of
// subtree sizes followed by a downcast of DFS intervals (each node tells
// each child its interval, one edge per round in parallel). Node v is in
// the subtree of u iff In[u] ≤ In[v] < Out[u], so any node can route
// toward a target interval by choosing the covering child (or its
// parent when the target is outside its own interval).
package bfstree

import (
	"fmt"
	"slices"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
)

// Tree is a rooted BFS spanning tree with routing intervals.
type Tree struct {
	Root     int
	Parent   []int   // Parent[u] = parent node ID; -1 at the root
	Children [][]int // sorted child node IDs
	Depth    []int
	// DFS interval labels: v is a descendant of u (inclusive) iff
	// In[u] <= In[v] < Out[u]. In[] values are a permutation of 0..n-1.
	In, Out []int
	Stats   congest.Stats
}

// Height returns the maximum depth.
func (t *Tree) Height() int {
	h := 0
	for _, d := range t.Depth {
		if d > h {
			h = d
		}
	}
	return h
}

// NextHop returns the neighbor (in the tree) to forward to when routing
// from u toward the node with DFS number targetIn.
func (t *Tree) NextHop(u, targetIn int) (int, error) {
	if targetIn < 0 || targetIn >= len(t.In) {
		return 0, fmt.Errorf("bfstree: target %d out of range", targetIn)
	}
	if t.In[u] == targetIn {
		return u, nil
	}
	if targetIn < t.In[u] || targetIn >= t.Out[u] {
		if t.Parent[u] < 0 {
			return 0, fmt.Errorf("bfstree: root interval must cover everything")
		}
		return t.Parent[u], nil
	}
	for _, c := range t.Children[u] {
		if targetIn >= t.In[c] && targetIn < t.Out[c] {
			return c, nil
		}
	}
	return 0, fmt.Errorf("bfstree: no child of %d covers DFS number %d", u, targetIn)
}

// ByIn returns the node with the given DFS number.
func (t *Tree) ByIn(in int) int {
	for u, v := range t.In {
		if v == in {
			return u
		}
	}
	return -1
}

// Validate checks tree invariants (spanning, acyclic, interval nesting).
func (t *Tree) Validate(g *graph.Graph) error {
	n := g.N()
	if len(t.Parent) != n || len(t.In) != n || len(t.Out) != n {
		return fmt.Errorf("bfstree: wrong sizes")
	}
	seen := make([]bool, n)
	count := 0
	var walk func(u int) error
	walk = func(u int) error {
		if seen[u] {
			return fmt.Errorf("bfstree: cycle at %d", u)
		}
		seen[u] = true
		count++
		size := 1
		for _, c := range t.Children[u] {
			if t.Parent[c] != u {
				return fmt.Errorf("bfstree: child %d of %d has parent %d", c, u, t.Parent[c])
			}
			if !g.HasEdge(u, c) {
				return fmt.Errorf("bfstree: tree edge (%d,%d) not in graph", u, c)
			}
			if t.Depth[c] != t.Depth[u]+1 {
				return fmt.Errorf("bfstree: depth of %d inconsistent", c)
			}
			if err := walk(c); err != nil {
				return err
			}
			size += t.Out[c] - t.In[c]
		}
		if t.Out[u]-t.In[u] != size {
			return fmt.Errorf("bfstree: interval of %d has size %d, want %d", u, t.Out[u]-t.In[u], size)
		}
		return nil
	}
	if err := walk(t.Root); err != nil {
		return err
	}
	if count != n {
		return fmt.Errorf("bfstree: tree spans %d of %d nodes", count, n)
	}
	// BFS optimality: depth equals hop distance from root.
	hops := graph.BFSHops(g, t.Root)
	for u := 0; u < n; u++ {
		if t.Depth[u] != hops[u] {
			return fmt.Errorf("bfstree: depth[%d]=%d but BFS hop distance is %d", u, t.Depth[u], hops[u])
		}
	}
	return nil
}

// --- protocol messages ---

type tokenMsg struct{ Depth int }

func (tokenMsg) Words() int { return 2 }

type replyMsg struct{ Accept bool }

func (replyMsg) Words() int { return 1 }

type doneMsg struct{ SubtreeSize int }

func (doneMsg) Words() int { return 2 }

type intervalMsg struct{ In, Out int }

func (intervalMsg) Words() int { return 2 }

// treeNode runs the echo BFS and the two interval sweeps.
type treeNode struct {
	id   int
	root bool

	parentIdx   int
	hasParent   bool
	depth       int
	children    []int // neighbor indices, in adoption order
	childSizes  []int // subtree sizes, parallel to children
	expected    int
	replies     int
	doneKids    int
	subtreeSize int
	doneSent    bool

	in, out int
	// sends queues outgoing traffic per edge: it is light (a couple of
	// messages per edge overall), but replies and tokens can collide on
	// an edge in the same round.
	sends congest.OutQueues
}

func (nd *treeNode) Init(ctx *congest.Context) {
	nd.sends = congest.NewOutQueues(ctx.Degree())
	nd.parentIdx = -1
	nd.subtreeSize = 1
	if nd.root {
		nd.expected = ctx.Degree()
		for i := 0; i < ctx.Degree(); i++ {
			nd.sends.Push(i, tokenMsg{Depth: 1})
		}
		nd.maybeFinish(ctx)
	}
	nd.sends.Flush(ctx, nil)
}

func (nd *treeNode) Round(ctx *congest.Context, inbox []congest.Incoming) {
	for _, in := range inbox {
		from := in.Edge
		switch m := in.Payload.(type) {
		case tokenMsg:
			if nd.root || nd.hasParent {
				nd.sends.Push(from, replyMsg{Accept: false})
				continue
			}
			nd.hasParent = true
			nd.parentIdx = from
			nd.depth = m.Depth
			nd.sends.Push(from, replyMsg{Accept: true})
			nd.expected = ctx.Degree() - 1
			for i := 0; i < ctx.Degree(); i++ {
				if i != from {
					nd.sends.Push(i, tokenMsg{Depth: m.Depth + 1})
				}
			}
			nd.maybeFinish(ctx)
		case replyMsg:
			nd.replies++
			if m.Accept {
				nd.children = append(nd.children, from)
				nd.childSizes = append(nd.childSizes, 0)
			}
			nd.maybeFinish(ctx)
		case doneMsg:
			for i, c := range nd.children {
				if c == from {
					nd.childSizes[i] = m.SubtreeSize
				}
			}
			nd.subtreeSize += m.SubtreeSize
			nd.doneKids++
			nd.maybeFinish(ctx)
		case intervalMsg:
			nd.in, nd.out = m.In, m.Out
			nd.assignChildIntervals()
		default:
			panic(fmt.Sprintf("bfstree: node %d got %T", nd.id, in.Payload))
		}
	}
	nd.sends.Flush(ctx, nil)
}

func (nd *treeNode) maybeFinish(ctx *congest.Context) {
	if nd.doneSent || (!nd.root && !nd.hasParent) {
		return
	}
	if nd.replies != nd.expected || nd.doneKids != len(nd.children) {
		return
	}
	nd.doneSent = true
	if nd.root {
		// Tree complete: assign intervals top-down.
		nd.in, nd.out = 0, nd.subtreeSize
		nd.assignChildIntervals()
		return
	}
	nd.sends.Push(nd.parentIdx, doneMsg{SubtreeSize: nd.subtreeSize})
}

// assignChildIntervals hands each child a contiguous DFS interval right
// after this node's own number, in adoption order.
func (nd *treeNode) assignChildIntervals() {
	next := nd.in + 1
	for i, c := range nd.children {
		size := nd.childSizes[i]
		nd.sends.Push(c, intervalMsg{In: next, Out: next + size})
		next += size
	}
}

// Build constructs the BFS tree rooted at root with the echo protocol and
// interval sweeps, entirely in-band.
func Build(g *graph.Graph, root int, cfg congest.Config) (*Tree, error) {
	n := g.N()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("bfstree: root %d out of range", root)
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("bfstree: graph not connected")
	}
	nodes := make([]congest.Node, n)
	tns := make([]*treeNode, n)
	for u := 0; u < n; u++ {
		tns[u] = &treeNode{id: u, root: u == root}
		nodes[u] = tns[u]
	}
	eng := congest.NewEngine(g, nodes, cfg)
	if _, err := eng.RunUntilQuiescent(); err != nil {
		return nil, err
	}
	t := &Tree{
		Root:     root,
		Parent:   make([]int, n),
		Children: make([][]int, n),
		Depth:    make([]int, n),
		In:       make([]int, n),
		Out:      make([]int, n),
		Stats:    eng.Stats(),
	}
	for u := 0; u < n; u++ {
		nd := tns[u]
		if !nd.root && !nd.hasParent {
			return nil, fmt.Errorf("bfstree: node %d never joined the tree", u)
		}
		t.Parent[u] = -1
		if nd.hasParent {
			t.Parent[u] = nodeAt(g, u, nd.parentIdx)
		}
		for _, c := range nd.children {
			t.Children[u] = append(t.Children[u], nodeAt(g, u, c))
		}
		slices.Sort(t.Children[u])
		t.Depth[u] = nd.depth
		t.In[u] = nd.in
		t.Out[u] = nd.out
	}
	return t, nil
}

// nodeAt maps a neighbor index back to a node ID.
func nodeAt(g *graph.Graph, u, idx int) int { return g.Adj(u)[idx].To }
