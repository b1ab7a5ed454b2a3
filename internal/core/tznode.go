package core

import (
	"fmt"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// tzNode is the per-node state machine for the distributed Thorup–Zwick
// construction under omniscient or analytic synchronization (Section 3.2,
// Algorithm 2). Phase transitions are driven by the runner through
// startPhase/finishPhase; the in-band Section 3.3 protocol lives in
// detectNode (detect.go).
type tzNode struct {
	phaseHarvest
	batch int // announcements per message (bandwidth-B mode; ≥ 1)

	phase int     // current phase, or -1 outside phases
	best  tzTable // source -> best distance seen this phase
	queue []int   // best entries awaiting broadcast, oldest first
	head  int     // queue[head] is the next entry to send
}

// phaseHarvest is the per-node result state tzNode and detectNode share,
// with the phase-end step of Section 3.2 that fills it: every source
// accepted in phase i but the node itself becomes a level-i bunch item,
// and the pivot chain extends downward with p_i(u), whose distance
// d(u, A_i) is the threshold of phase i-1.
type phaseHarvest struct {
	id       int
	topLevel int        // largest i with this node ∈ A_i; -1 if not in A_0
	thresh   graph.Dist // d(u, A_{i+1}) for the running phase i

	// Bunch items may collect in the items scratch slice in any order:
	// the runner installs them with SetBunch, which sorts once per label,
	// and pivot ties break on node id.
	label *sketch.TZLabel
	items []sketch.BunchItem
	// chainBest is the running (dist, id) lexicographic minimum over the
	// levels harvested so far, used to extend the pivot chain downward.
	chainBest pivotCand
}

func newPhaseHarvest(id, k, topLevel int) phaseHarvest {
	return phaseHarvest{
		id:        id,
		topLevel:  topLevel,
		thresh:    graph.Inf,
		label:     sketch.NewTZLabel(id, k),
		chainBest: pivotCand{dist: graph.Inf, node: -1},
	}
}

// record harvests source src, accepted at distance dist in phase i.
func (h *phaseHarvest) record(i, src int, dist graph.Dist) {
	if src == h.id {
		return
	}
	h.items = append(h.items, sketch.BunchItem{Node: src, Dist: dist, Level: i})
	if c := (pivotCand{dist: dist, node: src}); lessCand(c, h.chainBest) {
		h.chainBest = c
	}
}

// closePhase ends phase i once every source is recorded: the node itself
// is a pivot candidate if it is in A_i, and p_i(u) is the chain minimum.
func (h *phaseHarvest) closePhase(i int) {
	if h.topLevel >= i {
		if c := (pivotCand{dist: 0, node: h.id}); lessCand(c, h.chainBest) {
			h.chainBest = c
		}
	}
	h.label.Pivots[i] = sketch.Pivot{Node: h.chainBest.node, Dist: h.chainBest.dist}
	h.thresh = h.chainBest.dist
}

// tzBest is a source's best distance this phase, with whether it is
// queued for broadcast, so one table probe serves each announcement.
type tzBest struct {
	src    int
	dist   graph.Dist
	queued bool
}

// tzTable maps a source to its tzBest for one phase: entries in insertion
// order, indexed by an open-addressing table of entry index + 1 (0 marks
// an empty slot) that is kept at most half full and probed linearly from
// the probe-index hash of internal/sketch. An accepted estimate bounds the
// true distance from above, so every entry but the node's own is a member
// of B_i(u) and Lemma 3.6 bounds the size. The table is cleared, not
// reallocated, at each phase start.
type tzTable struct {
	entries []tzBest
	slots   []int32
}

// reset empties the table, keeping its storage.
func (t *tzTable) reset() {
	t.entries = t.entries[:0]
	clear(t.slots)
}

// probe returns the slot holding src's entry, or the empty slot where it
// belongs. The table must have slots.
func (t *tzTable) probe(src int) uint32 {
	mask := uint32(len(t.slots) - 1)
	s := (uint32(src) * 0x9E3779B1) & mask
	for t.slots[s] != 0 && t.entries[t.slots[s]-1].src != src {
		s = (s + 1) & mask
	}
	return s
}

// upsert returns the index in entries of src's entry, appending one at
// distance Inf, not queued, if src has none.
func (t *tzTable) upsert(src int) int {
	if 2*(len(t.entries)+1) > len(t.slots) {
		t.grow()
	}
	s := t.probe(src)
	if t.slots[s] == 0 {
		t.entries = append(t.entries, tzBest{src: src, dist: graph.Inf})
		t.slots[s] = int32(len(t.entries))
	}
	return int(t.slots[s] - 1)
}

// grow doubles the slot array and reinserts every entry.
func (t *tzTable) grow() {
	t.slots = make([]int32, max(16, 2*len(t.slots)))
	for j, b := range t.entries {
		t.slots[t.probe(b.src)] = int32(j + 1)
	}
}

type pivotCand struct {
	dist graph.Dist
	node int // -1 = none
}

func lessCand(a, b pivotCand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.node == -1 {
		return false
	}
	if b.node == -1 {
		return true
	}
	return a.node < b.node
}

func newTZNode(id, k, topLevel, batch int) *tzNode {
	if batch < 1 {
		batch = 1
	}
	return &tzNode{
		phaseHarvest: newPhaseHarvest(id, k, topLevel),
		batch:        batch,
		phase:        -1,
	}
}

func (nd *tzNode) Init(*congest.Context) {}

// startPhase is invoked by the runner (omniscient synchronization) at the
// beginning of phase i. A node in A_i \ A_{i+1} — exactly the nodes with
// topLevel == i — becomes a source: it announces 〈u, 0〉 on every edge.
func (nd *tzNode) startPhase(i int) {
	nd.phase = i
	nd.best.reset()
	if nd.topLevel == i {
		j := nd.best.upsert(nd.id)
		nd.best.entries[j] = tzBest{src: nd.id, dist: 0, queued: true}
		nd.queue = append(nd.queue, j)
	}
}

// finishPhase harvests phase i: every accepted source is recorded and the
// pivot chain extended (phaseHarvest).
func (nd *tzNode) finishPhase() {
	for _, b := range nd.best.entries {
		nd.record(nd.phase, b.src, b.dist)
	}
	nd.closePhase(nd.phase)
	nd.phase = -1
	nd.queue, nd.head = nd.queue[:0], 0
}

func (nd *tzNode) Round(ctx *congest.Context, inbox []congest.Incoming) {
	for _, in := range inbox {
		w := in.Edge
		switch m := in.Payload.(type) {
		case dataMsg:
			nd.checkPhase(m.Phase)
			nd.accept(ctx, w, m.Src, m.Dist)
		case dataBatchMsg:
			nd.checkPhase(m.Phase)
			for _, it := range m.Items {
				nd.accept(ctx, w, it.Src, it.Dist)
			}
		default:
			panic(fmt.Sprintf("core: node %d got %T in TZ phase", nd.id, in.Payload))
		}
	}
	nd.drain(ctx)
}

func (nd *tzNode) checkPhase(p int) {
	if p != nd.phase {
		panic(fmt.Sprintf("core: node %d got phase-%d message during phase %d (omniscient sync broken)",
			nd.id, p, nd.phase))
	}
}

// accept implements lines 10–14 of Algorithm 2: adopt the distance
// announced for src over edge w if it both beats the current estimate and
// stays below d(u, A_{i+1}) (i.e. the source is (still possibly) in
// B_i(u)), then queue src for all neighbors unless it is queued already.
func (nd *tzNode) accept(ctx *congest.Context, w, src int, dist graph.Dist) {
	d := graph.AddDist(dist, ctx.WeightTo(w))
	if d >= nd.thresh {
		return
	}
	j := nd.best.upsert(src)
	b := &nd.best.entries[j]
	if d >= b.dist {
		return
	}
	b.dist = d
	if !b.queued {
		b.queued = true
		nd.queue = append(nd.queue, j)
	}
}

// drain broadcasts the oldest queued source — or up to `batch` of them in
// bandwidth-B mode — with its *current* best distance, so an improvement
// made while queued is sent once, with the newer value (the superseded
// case of Section 3.3). Every announcement goes to every edge, so one
// queue per node stands for a FIFO per edge. It requests a wake-up if
// anything remains queued.
func (nd *tzNode) drain(ctx *congest.Context) {
	if nd.head == len(nd.queue) {
		return
	}
	if nd.batch > 1 {
		items := make([]srcDist, min(nd.batch, len(nd.queue)-nd.head))
		for j := range items {
			items[j] = nd.pop()
		}
		ctx.Broadcast(dataBatchMsg{Phase: nd.phase, Items: items})
	} else {
		it := nd.pop()
		ctx.Broadcast(dataMsg{Phase: nd.phase, Src: it.Src, Dist: it.Dist})
	}
	if nd.head < len(nd.queue) {
		ctx.WakeNextRound()
	} else {
		nd.queue, nd.head = nd.queue[:0], 0
	}
}

// pop dequeues the oldest queued source with its current best distance.
func (nd *tzNode) pop() srcDist {
	b := &nd.best.entries[nd.queue[nd.head]]
	nd.head++
	b.queued = false
	return srcDist{Src: b.src, Dist: b.dist}
}
