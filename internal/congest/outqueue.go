package congest

// OutQueues is the per-edge FIFO send discipline within the CONGEST
// bandwidth budget: a node may queue any number of sends on an edge in a
// round, and Flush transmits exactly one message per non-empty edge per
// round. Only protocols that send different messages on different edges
// need it: the Section 3.3 BFS tree and echoes, label shipping down cell
// trees, and tree-routed sketch fetches. Floods send every announcement
// on every edge, so they keep one queue per node and Broadcast its head
// instead (internal/core's TZ, wave and warm-start nodes).
//
// Two entry kinds exist. A concrete entry carries a fixed message
// (control, echo, chunk). A source entry carries only a source ID whose
// message is built *at transmission time* from the node's current best
// distance. This realizes the paper's queue semantics in Algorithm 2: an
// announcement improved while queued is transmitted once, with the newer
// value (the "superseded" case of Section 3.3).
type OutQueues struct {
	edges []edgeQueue
}

type edgeQueue struct {
	fifo []queueEntry
	srcs map[int]bool // source IDs queued here; nil until one first lands
}

type queueEntry struct {
	msg Message // nil for source entries
	src int
}

// NewOutQueues returns empty queues for a node with the given degree.
func NewOutQueues(degree int) OutQueues {
	return OutQueues{edges: make([]edgeQueue, degree)}
}

// Push queues the concrete message m on edge i.
func (q *OutQueues) Push(i int, m Message) {
	q.edges[i].fifo = append(q.edges[i].fifo, queueEntry{msg: m})
}

// PushSourceAll queues a source entry for src on every edge where src is
// not queued already, and returns how many edges newly queued it.
func (q *OutQueues) PushSourceAll(src int) int {
	added := 0
	for i := range q.edges {
		e := &q.edges[i]
		if e.srcs[src] {
			continue
		}
		if e.srcs == nil {
			e.srcs = make(map[int]bool)
		}
		e.srcs[src] = true
		e.fifo = append(e.fifo, queueEntry{src: src})
		added++
	}
	return added
}

// Flush sends the head of every non-empty edge queue and asks for the
// next round while anything stays queued. A concrete entry is sent as
// queued; a source entry is sent as the message source(src) builds from
// current state. Queues that never hold source entries may pass a nil
// source.
func (q *OutQueues) Flush(ctx *Context, source func(src int) Message) {
	pending := false
	for i := range q.edges {
		e := &q.edges[i]
		if len(e.fifo) == 0 {
			continue
		}
		ent := e.fifo[0]
		// Shift; queues are short in practice (bounded by bunch or label
		// size), so the copy is cheap and keeps memory compact.
		copy(e.fifo, e.fifo[1:])
		e.fifo = e.fifo[:len(e.fifo)-1]
		msg := ent.msg
		if msg == nil {
			delete(e.srcs, ent.src)
			msg = source(ent.src)
		}
		ctx.Send(i, msg)
		pending = pending || len(e.fifo) > 0
	}
	if pending {
		ctx.WakeNextRound()
	}
}
