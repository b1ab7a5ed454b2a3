package core

import (
	"fmt"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
)

// detectNode runs the distributed Thorup–Zwick construction with the full
// in-band termination detection of Section 3.3: a BFS tree rooted at the
// leader, a per-message ECHO discipline that tells each cluster source
// when its announcement has stopped propagating, and a COMPLETE/START
// convergecast-broadcast that lets the leader drive phase boundaries.
//
// Leader election: the paper elects an arbitrary leader in O(D) rounds.
// With the dense ID space 0..n-1 and n known to all nodes (Section 2.2),
// the maximum ID n-1 is a leader with zero communication, so we root the
// BFS tree there; the tree is still built with the echo-style protocol
// (ACCEPT/REJECT replies plus DONE convergecast), costing O(D) rounds and
// O(|E|) messages as in the paper.
//
// Echo discipline (one per data message, as in the paper, but aggregated
// per source): for each source v a node tracks how many announcements it
// transmitted and how many ECHOs returned. It owes its "parent" (the
// neighbor whose message set the current best distance) an ECHO, payable
// when its own counters balance — i.e. when everything it forwarded has
// been acknowledged transitively. A message superseded by a better one is
// echoed immediately (Section 3.3's third case). A non-improving message
// is echoed immediately (the first two cases).
type detectNode struct {
	phaseHarvest
	k int

	out congest.OutQueues

	// BFS tree state.
	isRoot          bool
	parentIdx       int // neighbor index of tree parent; -1 if root/unset
	hasParent       bool
	children        []int // neighbor indices of tree children
	repliesExpected int
	repliesRecv     int
	doneChildren    int
	bfsDoneSent     bool
	treeReady       bool

	// Phase state.
	phase            int // current phase; k = in setup; -1 = finished
	started          bool
	srcs             map[int]*srcState
	selfComplete     bool
	completeChildren int
	completeSent     bool
	buffered         map[int][]bufferedData

	// Accounting (summed by the runner after the run).
	dataSent    []int64 // per phase
	echoSent    []int64 // per phase
	controlSent int64
	// Root-only: global round at which each phase began / the run ended.
	phaseStartRound []int
	finishRound     int
	setupRounds     int
}

type bufferedData struct {
	from int
	m    dataMsg
}

// srcState tracks one Bellman–Ford source during a phase.
type srcState struct {
	best         graph.Dist
	parentNbr    int        // neighbor index the best came from; -1 = self
	parentVal    graph.Dist // distance carried by that message (echo copy)
	owes         bool       // an ECHO is owed to parentNbr
	sent, echoed int64      // announcements transmitted / ECHOs returned
	pendingEdges int        // edges where this source is queued
}

func newDetectNode(id, n, k, topLevel int) *detectNode {
	return &detectNode{
		phaseHarvest:    newPhaseHarvest(id, k, topLevel),
		k:               k,
		isRoot:          id == n-1,
		parentIdx:       -1,
		phase:           k, // "in setup"
		buffered:        make(map[int][]bufferedData),
		dataSent:        make([]int64, k),
		echoSent:        make([]int64, k),
		phaseStartRound: make([]int, k),
	}
}

func (nd *detectNode) Init(ctx *congest.Context) {
	nd.out = congest.NewOutQueues(ctx.Degree())
	if nd.isRoot {
		nd.repliesExpected = ctx.Degree()
		for i := 0; i < ctx.Degree(); i++ {
			nd.control(i, bfsMsg{})
		}
		nd.checkBFSDone(ctx) // handles the n=1 network
	}
	nd.out.Flush(ctx, nd.data)
}

func (nd *detectNode) Round(ctx *congest.Context, inbox []congest.Incoming) {
	for _, in := range inbox {
		from := in.Edge
		switch m := in.Payload.(type) {
		case bfsMsg:
			nd.onBFS(ctx, from)
		case bfsReplyMsg:
			nd.repliesRecv++
			if m.Accept {
				nd.children = append(nd.children, from)
			}
			nd.checkBFSDone(ctx)
		case bfsDoneMsg:
			nd.doneChildren++
			nd.checkBFSDone(ctx)
		case startMsg:
			nd.onStart(ctx, m.Phase)
		case completeMsg:
			if m.Phase != nd.phase {
				panic(fmt.Sprintf("core: node %d: COMPLETE(%d) during phase %d", nd.id, m.Phase, nd.phase))
			}
			nd.completeChildren++
			nd.checkPhaseComplete(ctx)
		case finishMsg:
			nd.onFinish(ctx)
		case dataMsg:
			if m.Phase == nd.phase && nd.started {
				nd.onData(ctx, from, m)
			} else if m.Phase == nd.phase-1 || (nd.phase == nd.k && m.Phase == nd.k-1) {
				// Neighbor is one phase ahead of us (its START arrived
				// first); buffer until our START comes down the tree.
				nd.buffered[m.Phase] = append(nd.buffered[m.Phase], bufferedData{from: from, m: m})
			} else {
				panic(fmt.Sprintf("core: node %d in phase %d got data for phase %d", nd.id, nd.phase, m.Phase))
			}
		case echoMsg:
			if m.Phase != nd.phase || !nd.started {
				panic(fmt.Sprintf("core: node %d in phase %d got echo for phase %d", nd.id, nd.phase, m.Phase))
			}
			nd.onEcho(ctx, m)
		default:
			panic(fmt.Sprintf("core: node %d: unexpected message %T", nd.id, in.Payload))
		}
	}
	nd.out.Flush(ctx, nd.data)
}

// --- BFS tree construction -------------------------------------------------

func (nd *detectNode) onBFS(ctx *congest.Context, from int) {
	if nd.isRoot || nd.hasParent {
		nd.control(from, bfsReplyMsg{Accept: false})
		return
	}
	nd.hasParent = true
	nd.parentIdx = from
	nd.control(from, bfsReplyMsg{Accept: true})
	nd.repliesExpected = ctx.Degree() - 1
	for i := 0; i < ctx.Degree(); i++ {
		if i != from {
			nd.control(i, bfsMsg{})
		}
	}
	nd.checkBFSDone(ctx)
}

func (nd *detectNode) checkBFSDone(ctx *congest.Context) {
	if nd.bfsDoneSent || nd.treeReady {
		return
	}
	if !nd.isRoot && !nd.hasParent {
		return
	}
	if nd.repliesRecv != nd.repliesExpected || nd.doneChildren != len(nd.children) {
		return
	}
	if nd.isRoot {
		nd.treeReady = true
		nd.setupRounds = ctx.Round()
		nd.beginPhaseBroadcast(ctx, nd.k-1)
		return
	}
	nd.bfsDoneSent = true
	nd.control(nd.parentIdx, bfsDoneMsg{})
}

// --- Phase control ----------------------------------------------------------

// beginPhaseBroadcast forwards START(i) to the tree children and starts
// phase i locally (used by the root, and by onStart for interior nodes).
func (nd *detectNode) beginPhaseBroadcast(ctx *congest.Context, i int) {
	for _, c := range nd.children {
		nd.control(c, startMsg{Phase: i})
	}
	if nd.isRoot {
		nd.phaseStartRound[i] = ctx.Round()
	}
	nd.beginPhase(ctx, i)
}

func (nd *detectNode) onStart(ctx *congest.Context, i int) {
	if i != nd.phase-1 && !(nd.phase == nd.k && i == nd.k-1) {
		panic(fmt.Sprintf("core: node %d in phase %d got START(%d)", nd.id, nd.phase, i))
	}
	if nd.phase < nd.k {
		nd.harvestPhase()
	}
	for _, c := range nd.children {
		nd.control(c, startMsg{Phase: i})
	}
	nd.beginPhase(ctx, i)
}

func (nd *detectNode) beginPhase(ctx *congest.Context, i int) {
	nd.phase = i
	nd.started = true
	nd.srcs = make(map[int]*srcState)
	nd.selfComplete = nd.topLevel != i
	nd.completeChildren = 0
	nd.completeSent = false
	if nd.topLevel == i {
		st := &srcState{best: 0, parentNbr: -1}
		nd.srcs[nd.id] = st
		st.pendingEdges = nd.out.PushSourceAll(nd.id)
		nd.checkSrcComplete(ctx, nd.id, st) // degree-0 networks
	}
	if buf := nd.buffered[i]; len(buf) > 0 {
		delete(nd.buffered, i)
		for _, b := range buf {
			nd.onData(ctx, b.from, b.m)
		}
	}
	nd.checkPhaseComplete(ctx)
}

// harvestPhase folds the finished phase into the label (bunch entries,
// pivot chain, next threshold) with the bookkeeping tzNode uses.
func (nd *detectNode) harvestPhase() {
	for v, st := range nd.srcs {
		nd.record(nd.phase, v, st.best)
	}
	nd.closePhase(nd.phase)
	nd.srcs = nil
	nd.started = false
}

func (nd *detectNode) checkPhaseComplete(ctx *congest.Context) {
	if !nd.started || nd.completeSent || !nd.selfComplete {
		return
	}
	if nd.completeChildren != len(nd.children) {
		return
	}
	nd.completeSent = true
	if !nd.isRoot {
		nd.control(nd.parentIdx, completeMsg{Phase: nd.phase})
		return
	}
	// Root: the phase is globally complete.
	if nd.phase > 0 {
		next := nd.phase - 1
		nd.harvestPhase()
		nd.beginPhaseBroadcast(ctx, next)
		return
	}
	nd.finishRound = ctx.Round()
	nd.onFinish(ctx)
}

func (nd *detectNode) onFinish(ctx *congest.Context) {
	if nd.started {
		nd.harvestPhase()
	}
	for _, c := range nd.children {
		nd.control(c, finishMsg{})
	}
	nd.phase = -1
}

// --- Bellman–Ford with echoes ------------------------------------------------

func (nd *detectNode) onData(ctx *congest.Context, from int, m dataMsg) {
	d := graph.AddDist(m.Dist, ctx.WeightTo(from))
	st := nd.srcs[m.Src]
	cur := graph.Inf
	if st != nil {
		cur = st.best
	}
	if d >= nd.thresh || d >= cur {
		// Not useful: echo immediately (cases 1-2 of Section 3.3).
		nd.echo(from, m.Src, m.Dist)
		return
	}
	if st == nil {
		st = &srcState{best: graph.Inf, parentNbr: -1}
		nd.srcs[m.Src] = st
	}
	if st.owes {
		// The previously accepted message is superseded: release its
		// echo now (case 3 of Section 3.3).
		nd.echo(st.parentNbr, m.Src, st.parentVal)
	}
	st.best = d
	st.parentNbr = from
	st.parentVal = m.Dist
	st.owes = true
	st.pendingEdges += nd.out.PushSourceAll(m.Src)
}

func (nd *detectNode) onEcho(ctx *congest.Context, m echoMsg) {
	st := nd.srcs[m.Src]
	if st == nil {
		panic(fmt.Sprintf("core: node %d: echo for unknown source %d", nd.id, m.Src))
	}
	st.echoed++
	nd.checkSrcComplete(ctx, m.Src, st)
}

// checkSrcComplete fires when everything this node transmitted for src has
// been acknowledged and nothing remains queued: the node's entire outgoing
// activity for src has ceased, so it releases the echo owed to its parent
// (or, if it is the source itself, marks its cluster complete).
func (nd *detectNode) checkSrcComplete(ctx *congest.Context, src int, st *srcState) {
	if st.pendingEdges != 0 || st.sent != st.echoed {
		return
	}
	if st.owes {
		nd.echo(st.parentNbr, src, st.parentVal)
		st.owes = false
	}
	if src == nd.id && !nd.selfComplete {
		nd.selfComplete = true
		nd.checkPhaseComplete(ctx)
	}
}

// --- Transmission -------------------------------------------------------------

// control queues a BFS-tree or phase-control message on edge i.
func (nd *detectNode) control(i int, m congest.Message) {
	nd.controlSent++
	nd.out.Push(i, m)
}

// echo queues an ECHO for src's announcement of dist on edge i. It is
// counted in the phase that queues it, which is the phase that sends it:
// a phase completes only after every echo of it has been received.
func (nd *detectNode) echo(i, src int, dist graph.Dist) {
	nd.echoSent[nd.phase]++
	nd.out.Push(i, echoMsg{Phase: nd.phase, Src: src, Dist: dist})
}

// data builds src's announcement as it leaves on an edge, with the
// current best distance.
func (nd *detectNode) data(src int) congest.Message {
	st := nd.srcs[src]
	st.sent++
	st.pendingEdges--
	nd.dataSent[nd.phase]++
	return dataMsg{Phase: nd.phase, Src: src, Dist: st.best}
}
