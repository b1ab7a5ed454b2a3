package core

import (
	"fmt"

	"distsketch/internal/congest"
	"distsketch/internal/sketch"
)

// shipNode streams each net node's Thorup–Zwick label down its Voronoi
// cell tree, one (pivot or bunch entry) chunk per edge per round. This is
// the step that turns "u' knows L(u')" into the paper's sketch content
// "u stores L(u') for its nearest net node u'" (Section 4).
//
// Pipelining: a net node enqueues its whole label at once; interior nodes
// forward each chunk to their children as it arrives. Total rounds are
// O(labelWords + cell depth) and total messages are (cell tree edges) ×
// chunks, both within the Lemma 4.5 budget.
const (
	chunkPivot byte = 0
	chunkBunch byte = 1
)

type shipNode struct {
	id       int
	k        int
	owner    int // net node whose label this node will hold (u'; self if net)
	isNet    bool
	children []int // cell-tree children (neighbor indices)

	label    *sketch.TZLabel // the reconstructed (or own) label
	expected int             // total chunks, from labelEndMsg; -1 unknown
	received int
	out      congest.OutQueues
}

// labelChunks serializes a TZ label into shipping chunks.
func labelChunks(l *sketch.TZLabel) []labelChunkMsg {
	chunks := make([]labelChunkMsg, 0, len(l.Pivots)+len(l.Bunch))
	seq := 0
	for i, p := range l.Pivots {
		chunks = append(chunks, labelChunkMsg{Seq: seq, Kind: chunkPivot, Node: p.Node, Dist: p.Dist, Level: i})
		seq++
	}
	for _, it := range l.Bunch {
		chunks = append(chunks, labelChunkMsg{Seq: seq, Kind: chunkBunch, Node: it.Node, Dist: it.Dist, Level: it.Level})
		seq++
	}
	return chunks
}

func (s *shipNode) applyChunk(m labelChunkMsg) {
	switch m.Kind {
	case chunkPivot:
		s.label.Pivots[m.Level] = sketch.Pivot{Node: m.Node, Dist: m.Dist}
	case chunkBunch:
		// Chunks travel down the cell tree in emission order — ascending
		// node ID — so Set stays on its O(1) append fast path while still
		// tolerating any order.
		s.label.Set(m.Node, m.Dist, m.Level)
	default:
		panic(fmt.Sprintf("core: bad chunk kind %d", m.Kind))
	}
}

func (s *shipNode) Init(ctx *congest.Context) {
	s.out = congest.NewOutQueues(ctx.Degree())
	if s.isNet {
		// Own label already present; stream it to the cell children.
		chunks := labelChunks(s.label)
		for _, c := range s.children {
			for _, m := range chunks {
				s.out.Push(c, m)
			}
			s.out.Push(c, labelEndMsg{Total: len(chunks)})
		}
		s.expected = len(chunks)
		s.received = len(chunks)
	} else {
		s.label = sketch.NewTZLabel(s.owner, s.k)
		s.expected = -1
	}
	s.out.Flush(ctx, nil)
}

func (s *shipNode) Round(ctx *congest.Context, inbox []congest.Incoming) {
	for _, in := range inbox {
		switch m := in.Payload.(type) {
		case labelChunkMsg:
			s.applyChunk(m)
			s.received++
			for _, c := range s.children {
				s.out.Push(c, m)
			}
		case labelEndMsg:
			s.expected = m.Total
			for _, c := range s.children {
				s.out.Push(c, labelEndMsg{Total: m.Total})
			}
		default:
			panic(fmt.Sprintf("core: ship node %d got %T", s.id, in.Payload))
		}
	}
	s.out.Flush(ctx, nil)
}

func (s *shipNode) complete() bool {
	return s.expected >= 0 && s.received == s.expected
}
