package core

import "distsketch/internal/congest"

// outQueues implements a per-edge FIFO send discipline within the CONGEST
// bandwidth budget: any number of logical sends may be enqueued in a
// round, and exactly one message per edge is transmitted per round. Only
// protocols that send different messages on different edges need it —
// detection's echoes and label shipping. The TZ and wave floods send
// every announcement on every edge, so they broadcast from one per-node
// queue (tzNode) or flag (waveNode) instead.
//
// Two entry kinds exist. A concrete entry carries a fixed message
// (control, echo). A source entry carries only a source ID whose current
// best distance is read *at transmission time* — this realizes the
// paper's queue semantics in Algorithm 2, where a queued announcement that
// is improved before being sent is transmitted only once, with the newer
// value (the "superseded" case of Section 3.3).
type outQueues struct {
	edges []edgeQueue
}

type edgeQueue struct {
	fifo    []qEntry
	srcHere map[int]bool // source IDs currently queued on this edge
}

type qEntry struct {
	msg congest.Message // nil for source entries
	src int
}

func newOutQueues(degree int) *outQueues {
	q := &outQueues{edges: make([]edgeQueue, degree)}
	for i := range q.edges {
		q.edges[i].srcHere = make(map[int]bool)
	}
	return q
}

// pushMsg enqueues a concrete message on edge i.
func (q *outQueues) pushMsg(i int, m congest.Message) {
	q.edges[i].fifo = append(q.edges[i].fifo, qEntry{msg: m})
}

// pushSrc enqueues a deferred-value announcement for src on edge i; it is
// a no-op if src is already queued there (the superseded-update collapse).
// Reports whether a new entry was added.
func (q *outQueues) pushSrc(i, src int) bool {
	e := &q.edges[i]
	if e.srcHere[src] {
		return false
	}
	e.srcHere[src] = true
	e.fifo = append(e.fifo, qEntry{msg: nil, src: src})
	return true
}

// pushSrcAll enqueues src on every edge and returns how many edges newly
// queued it.
func (q *outQueues) pushSrcAll(src int) int {
	added := 0
	for i := range q.edges {
		if q.pushSrc(i, src) {
			added++
		}
	}
	return added
}

// pending reports whether any edge has queued traffic.
func (q *outQueues) pending() bool {
	for i := range q.edges {
		if len(q.edges[i].fifo) > 0 {
			return true
		}
	}
	return false
}

// drain pops at most one entry per edge, calling send(i, entry). For
// source entries the callback builds the message from current state.
func (q *outQueues) drain(send func(edge int, e qEntry)) {
	for i := range q.edges {
		e := &q.edges[i]
		if len(e.fifo) == 0 {
			continue
		}
		ent := e.fifo[0]
		// Shift; queues are short in practice (bounded by bunch size),
		// so the copy is cheap and keeps memory compact.
		copy(e.fifo, e.fifo[1:])
		e.fifo = e.fifo[:len(e.fifo)-1]
		if ent.msg == nil {
			delete(e.srcHere, ent.src)
		}
		send(i, ent)
	}
}
