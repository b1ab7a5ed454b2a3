// Package exchange implements the paper's query-time protocol (Section
// 2.1): after preprocessing, a node estimates its distance to any other
// node by fetching that node's sketch and running the offline query — at
// a cost of O(D · sketch-size) rounds, versus the Ω(S) rounds any online
// distance computation needs. This package measures that claim with a
// real CONGEST protocol rather than an analytic formula:
//
//	requester --REQ--> target      (routed over the BFS tree, ≤ 2·height hops)
//	target   --chunk stream--> requester  (one word per edge per round, pipelined)
//
// Routing uses the DFS interval labels of package bfstree. The sketch
// travels as its serialized bytes packed into O(log n)-bit words, so the
// measured round count directly reflects the sketch size the paper's
// bounds are stated in.
package exchange

import (
	"fmt"

	"distsketch/internal/bfstree"
	"distsketch/internal/congest"
	"distsketch/internal/graph"
)

// reqMsg asks the target (by DFS number) to stream its sketch back to the
// requester (also by DFS number).
type reqMsg struct {
	Target  int
	ReplyTo int
}

func (reqMsg) Words() int { return 2 }

// chunkMsg carries one packed word of a sketch toward Target.
type chunkMsg struct {
	Target int
	Seq    int
	Total  int
	Word   uint64
}

func (chunkMsg) Words() int { return 4 }

// exchNode forwards routed traffic and serves/collects sketch streams.
type exchNode struct {
	id   int
	tree *bfstree.Tree

	payload []uint64 // this node's packed sketch

	out congest.OutQueues

	// Requester state.
	want     int // DFS number of the node being fetched; -1 otherwise
	received []uint64
	gotCount int
	total    int
	done     bool
	doneAt   int // round at which the fetch completed
}

func (nd *exchNode) Init(ctx *congest.Context) {
	nd.out = congest.NewOutQueues(ctx.Degree())
	if nd.want >= 0 {
		nd.route(ctx, nd.want, reqMsg{Target: nd.want, ReplyTo: nd.tree.In[nd.id]})
	}
	nd.out.Flush(ctx, nil)
}

// route enqueues m on the tree edge toward the DFS number target.
func (nd *exchNode) route(ctx *congest.Context, target int, m congest.Message) {
	next, err := nd.tree.NextHop(nd.id, target)
	if err != nil {
		panic(fmt.Sprintf("exchange: node %d: %v", nd.id, err))
	}
	if next == nd.id {
		panic("exchange: routing to self")
	}
	i := ctx.NeighborIndex(next)
	if i < 0 {
		panic(fmt.Sprintf("exchange: tree edge %d-%d missing from graph", nd.id, next))
	}
	nd.out.Push(i, m)
}

func (nd *exchNode) Round(ctx *congest.Context, inbox []congest.Incoming) {
	for _, in := range inbox {
		switch m := in.Payload.(type) {
		case reqMsg:
			if nd.tree.In[nd.id] == m.Target {
				// Serve: stream every word of the sketch toward the
				// requester. The per-edge FIFO pipelines them.
				for seq, w := range nd.payload {
					nd.route(ctx, m.ReplyTo, chunkMsg{
						Target: m.ReplyTo, Seq: seq, Total: len(nd.payload), Word: w,
					})
				}
				continue
			}
			nd.route(ctx, m.Target, m)
		case chunkMsg:
			if nd.tree.In[nd.id] == m.Target {
				if nd.received == nil {
					nd.received = make([]uint64, m.Total)
					nd.total = m.Total
				}
				nd.received[m.Seq] = m.Word
				nd.gotCount++
				if nd.gotCount == nd.total && !nd.done {
					nd.done = true
					nd.doneAt = ctx.Round()
				}
				continue
			}
			nd.route(ctx, m.Target, m)
		default:
			panic(fmt.Sprintf("exchange: node %d got %T", nd.id, in.Payload))
		}
	}
	nd.out.Flush(ctx, nil)
}

// PackWords packs serialized sketch bytes into 64-bit words with a length
// prefix, so the stream is self-delimiting.
func PackWords(data []byte) []uint64 {
	words := make([]uint64, 1, 1+(len(data)+7)/8)
	words[0] = uint64(len(data))
	var cur uint64
	for i, b := range data {
		cur |= uint64(b) << (8 * (i % 8))
		if i%8 == 7 {
			words = append(words, cur)
			cur = 0
		}
	}
	if len(data)%8 != 0 {
		words = append(words, cur)
	}
	return words
}

// UnpackWords reverses PackWords.
func UnpackWords(words []uint64) ([]byte, error) {
	if len(words) == 0 {
		return nil, fmt.Errorf("exchange: empty stream")
	}
	n := int(words[0])
	if need := 1 + (n+7)/8; len(words) != need {
		return nil, fmt.Errorf("exchange: got %d words, want %d for %d bytes", len(words), need, n)
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(words[1+i/8] >> (8 * (i % 8)))
	}
	return data, nil
}

// FetchResult reports one measured sketch fetch.
type FetchResult struct {
	// Rounds until the requester held the complete sketch.
	Rounds int
	// Stats for the whole run (includes tail-of-pipeline drain).
	Stats congest.Stats
	// Sketch is the reassembled serialized sketch of the target.
	Sketch []byte
}

// Fetch runs the protocol: requester asks target for its sketch over the
// tree and reassembles it. sketches[v] is node v's serialized sketch.
func Fetch(g *graph.Graph, tree *bfstree.Tree, sketches [][]byte, requester, target int, cfg congest.Config) (*FetchResult, error) {
	n := g.N()
	if len(sketches) != n {
		return nil, fmt.Errorf("exchange: %d sketches for n=%d", len(sketches), n)
	}
	if requester == target {
		return &FetchResult{Sketch: sketches[target]}, nil
	}
	if cfg.MaxWords < 4 {
		cfg.MaxWords = 4
	}
	nodes := make([]congest.Node, n)
	exs := make([]*exchNode, n)
	for u := 0; u < n; u++ {
		exs[u] = &exchNode{
			id:      u,
			tree:    tree,
			payload: PackWords(sketches[u]),
			want:    -1,
		}
		nodes[u] = exs[u]
	}
	exs[requester].want = tree.In[target]
	eng := congest.NewEngine(g, nodes, cfg)
	if _, err := eng.RunUntilQuiescent(); err != nil {
		return nil, err
	}
	req := exs[requester]
	if !req.done {
		return nil, fmt.Errorf("exchange: fetch did not complete")
	}
	data, err := UnpackWords(req.received)
	if err != nil {
		return nil, err
	}
	return &FetchResult{Rounds: req.doneAt, Stats: eng.Stats(), Sketch: data}, nil
}
