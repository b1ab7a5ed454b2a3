// Package congest implements a deterministic simulator for the standard
// synchronous CONGEST model of distributed computation (Peleg 2000), the
// model the paper's algorithms are stated in (Section 2.2 of the paper):
//
//   - Computation proceeds in synchronous rounds.
//   - In each round, every node may send one message of O(log n) bits
//     (a constant number of "words") through each incident edge.
//   - A message sent in round r arrives at the other endpoint at the
//     beginning of round r+1.
//   - Each node initially knows only its own ID, its neighbors' IDs, the
//     weights of its incident edges, and n.
//
// The simulator enforces the bandwidth constraint (at most one message per
// edge per direction per round, each at most MaxWords words) and accounts
// for rounds, messages, and words — exactly the quantities the paper's
// theorems bound.
//
// # Scheduling
//
// The paper's constructions are wave-based: in a typical round only a thin
// BFS/Bellman–Ford frontier of nodes is active. The engine therefore runs
// an event-driven active-set scheduler: it maintains an explicit list of
// nodes that have a delivery or a wake request pending, visits only those
// nodes in step, harvests outgoing messages only from nodes that ran, and
// answers Quiescent from O(1) counters. Per-round cost is proportional to
// the activity of the round, not to n. Every delivery carries the
// receiver's adjacency index of the edge it arrived on (Incoming.Edge),
// and a broadcast occupies one slot at the sender that collect expands
// across its edges, so neither side pays a search or a per-edge queue.
// Inboxes, like all per-edge state, are windows of flat arrays with one
// slot per arc, allocated once in NewEngine.
//
// Within a round all active nodes execute concurrently on worker
// goroutines that live for one run call: Init, RunRounds and
// RunUntilQuiescent start them on their first parallel round and stop
// them before returning, so an engine holds no resource between calls and
// needs no closing. Because interaction happens only through the
// round-boundary message buffers, the execution is deterministic
// regardless of goroutine schedule.
package congest

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync/atomic"

	"distsketch/internal/graph"
)

// Message is a payload sent along one edge in one round. Words reports the
// message size in O(log n)-bit words (a word fits a node ID or a distance;
// Section 2.2). The engine rejects messages wider than Config.MaxWords.
type Message interface {
	Words() int
}

// Incoming is a delivered message. Edge is the receiver's adjacency index
// of the edge the message arrived on: the sender is the receiver's
// Edge-th neighbor and ctx.WeightTo(Edge) is that edge's weight, so
// handlers need no NeighborIndex search.
type Incoming struct {
	Edge    int
	Payload Message
}

// Node is the algorithm state machine placed at each network node.
//
// Init is called once before round 1; sends made during Init are delivered
// at the beginning of round 1 (this is the paper's "in the first round").
// Round is called every subsequent round with the messages delivered this
// round. A node that wants to act in the next round even if it receives no
// messages must call Context.WakeNextRound.
type Node interface {
	Init(ctx *Context)
	Round(ctx *Context, inbox []Incoming)
}

// Config controls simulation limits and execution strategy.
type Config struct {
	// MaxWords is the maximum message size in words. The paper's messages
	// carry a (node ID, distance) pair plus a small type tag; the default
	// of 3 words accommodates that. Zero means the default.
	MaxWords int
	// MaxRounds caps the rounds an engine executes over its lifetime, over
	// all run calls together; a run that would exceed it returns
	// ErrMaxRounds (safety net against livelock in buggy protocols). Zero
	// means the default of 50 million.
	MaxRounds int
	// Sequential forces single-goroutine execution (useful under -race and
	// for the determinism tests). Default is parallel.
	Sequential bool
	// Seed seeds the delivery delays of asynchronous mode (MaxDelay).
	Seed uint64
	// MaxDelay enables asynchronous delivery, the paper's stated future
	// direction (Section 5): each message is independently delayed by a
	// uniform number of rounds in [1, MaxDelay] before arriving, with
	// FIFO order preserved per directed edge (delays never reorder a
	// link). 0 or 1 means synchronous delivery. The protocols in this
	// repository are self-stabilizing to the same fixed points under any
	// bounded delay, which the async tests verify.
	MaxDelay int
	// Trace records a per-round time series of sent messages/words
	// (Engine.Trace), used to regenerate wave-profile figures.
	Trace bool
	// Ctx, when non-nil, makes the run cancelable: the engine checks the
	// context before every round and aborts with a wrapped Ctx.Err() once
	// it is done. This is how the facade's BuildContext plumbs context
	// cancellation into the round loop. A nil or background context adds
	// no per-round cost.
	Ctx context.Context
	// OnRound, when non-nil, is invoked on the driver goroutine after
	// every completed round with the 1-based engine round number
	// (progress reporting for long builds).
	OnRound func(round int)
}

// RoundStat is one point of the per-round traffic time series.
type RoundStat struct {
	Round    int
	Messages int64
	Words    int64
}

const (
	defaultMaxWords  = 3
	defaultMaxRounds = 50_000_000
)

// Stats aggregates the cost measures bounded by the paper's theorems.
type Stats struct {
	Rounds   int   // synchronous rounds executed
	Messages int64 // total messages delivered
	Words    int64 // total words delivered (message size sum)
}

// Add returns componentwise s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{Rounds: s.Rounds + o.Rounds, Messages: s.Messages + o.Messages, Words: s.Words + o.Words}
}

// Sub returns componentwise s - o (for per-phase deltas).
func (s Stats) Sub(o Stats) Stats {
	return Stats{Rounds: s.Rounds - o.Rounds, Messages: s.Messages - o.Messages, Words: s.Words - o.Words}
}

func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d messages=%d words=%d", s.Rounds, s.Messages, s.Words)
}

// Engine drives one simulation over a fixed graph and node set. It keeps
// no copy of the topology: each Context reads its node's arcs from the
// graph, and per-edge state lives in flat arrays with one slot per arc,
// in the graph's arc order, of which each Context holds its node's range.
type Engine struct {
	g     *graph.Graph
	cfg   Config
	nodes []Node
	ctxs  []Context

	// inboxes[u] is u's deliveries for round inboxStamp[u], a window of
	// one flat array with a slot per arc in the graph's arc order: an edge
	// carries at most one message per direction and round, so u's degree
	// bounds its inbox. One array serves every round. Synchronous
	// deliveries for the next round are appended in collect, after every
	// node of this round has returned; asynchronous ones in deliverDue,
	// before any node of their round runs.
	inboxes [][]Incoming

	// Active-set scheduler state. pending holds the nodes scheduled for
	// the next step (receivers of in-flight messages plus wake requests);
	// step swaps it into active, sorts, and runs only those nodes.
	// inboxStamp[u] is the round for which inboxes[u]'s content is valid
	// (buffers are truncated lazily, so stale content may linger in a
	// slice that the stamp marks dead). wakeCount counts non-crashed
	// nodes with a pending wake, making Quiescent O(1).
	active     []int
	pending    []int
	pendingIn  []bool
	inboxStamp []int
	wakeCount  atomic.Int64

	pool workerPool // the current run call's workers

	// done caches Config.Ctx.Done(); nil when the run is not cancelable
	// (no context, or a context that can never be canceled), so the
	// per-round check is a single nil comparison in the common case.
	done <-chan struct{}

	stats     Stats
	initDone  bool
	delivered int64 // messages delivered in the most recent round
	crashes   int   // fail-stopped nodes; while 0, collect skips the receiver check

	// Asynchronous mode (MaxDelay > 1).
	async    bool
	delayRNG *rand.Rand
	future   futureHeap // deliveries scheduled for later rounds
	seq      int64

	trace []RoundStat
}

// Trace returns the per-round traffic series (Config.Trace must be set).
// Entry i covers round i+1's sends; Init's sends are attributed to round 0.
func (e *Engine) Trace() []RoundStat { return e.trace }

// NewEngine creates an engine for g. nodes[i] is placed at graph node i.
func NewEngine(g *graph.Graph, nodes []Node, cfg Config) *Engine {
	if len(nodes) != g.N() {
		panic(fmt.Sprintf("congest: %d nodes for graph with n=%d", len(nodes), g.N()))
	}
	if cfg.MaxWords == 0 {
		cfg.MaxWords = defaultMaxWords
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = defaultMaxRounds
	}
	e := &Engine{
		g:          g,
		cfg:        cfg,
		nodes:      nodes,
		ctxs:       make([]Context, g.N()),
		inboxes:    make([][]Incoming, g.N()),
		pendingIn:  make([]bool, g.N()),
		inboxStamp: make([]int, g.N()),
		async:      cfg.MaxDelay > 1,
	}
	if e.async {
		e.delayRNG = rand.New(rand.NewPCG(cfg.Seed^0xA57C, 0xDE1A7))
	}
	if cfg.Ctx != nil {
		e.done = cfg.Ctx.Done()
	}
	// rev[i] of u is u's index in the adjacency of its i-th neighbor v.
	// Adjacency lists are sorted and free of parallel arcs, so visiting u
	// in ascending order meets v's neighbors in v's own list order: u is
	// always the next unclaimed entry of v's list, cursor[v].
	arcs := 2 * g.M()
	out := make([]Message, arcs)
	rev := make([]int32, arcs)
	inbox := make([]Incoming, arcs)
	var lastDue []int
	if e.async {
		lastDue = make([]int, arcs)
	}
	cursor := make([]int32, g.N())
	lo := 0
	for u := range e.ctxs {
		adj := g.Adj(u)
		hi := lo + len(adj)
		for i, a := range adj {
			rev[lo+i] = cursor[a.To]
			cursor[a.To]++
		}
		ctx := &e.ctxs[u]
		*ctx = Context{
			maxWords:  cfg.MaxWords,
			wakeCount: &e.wakeCount,
			id:        u,
			n:         g.N(),
			adj:       adj,
			rev:       rev[lo:hi:hi],
			out:       out[lo:hi:hi],
		}
		if e.async {
			ctx.lastDue = lastDue[lo:hi:hi]
		}
		e.inboxes[u] = inbox[lo:lo:hi]
		lo = hi
	}
	return e
}

// Stats returns the accumulated cost counters.
func (e *Engine) Stats() Stats { return e.stats }

// Node returns the algorithm state machine at node u (for result harvest).
func (e *Engine) Node(u int) Node { return e.nodes[u] }

// Context is a node's handle to the network: identity, local topology
// knowledge, and the per-round send interface. A Context is only valid
// inside the Init/Round call it is passed to.
type Context struct {
	maxWords  int
	wakeCount *atomic.Int64 // &Engine.wakeCount
	id        int
	n         int
	adj       []graph.Arc // this node's arcs, sorted by To; owned by the graph
	rev       []int32     // rev[i] = this node's index in adj[i].To's adjacency

	round   int
	out     []Message // out[i] = message queued on adj[i] this round
	bcast   Message   // this round's broadcast; excludes every out[i]
	lastDue []int     // last scheduled delivery round per edge (FIFO); async engines only
	wake    bool
	crashed bool
	sent    int
}

// ID returns this node's identifier (0..n-1).
func (c *Context) ID() int { return c.id }

// N returns the number of nodes in the network (common knowledge; §2.2).
func (c *Context) N() int { return c.n }

// Round returns the current round number (Init is round 0).
func (c *Context) Round() int { return c.round }

// Degree returns the number of incident edges.
func (c *Context) Degree() int { return len(c.adj) }

// WeightTo returns the weight of the edge to neighbor index i.
func (c *Context) WeightTo(i int) graph.Dist { return c.adj[i].Weight }

// NeighborIndex returns the adjacency index of the given neighbor ID, or -1.
func (c *Context) NeighborIndex(id int) int {
	i := sort.Search(len(c.adj), func(i int) bool { return c.adj[i].To >= id })
	if i < len(c.adj) && c.adj[i].To == id {
		return i
	}
	return -1
}

// Send queues msg on the edge to neighbor index i. Each edge carries at
// most one message per direction per round and each message at most
// MaxWords words; violations panic, because they mean the algorithm does
// not fit the CONGEST model.
func (c *Context) Send(i int, msg Message) {
	c.check(msg)
	if c.out[i] != nil || c.bcast != nil {
		panic(fmt.Sprintf("congest: node %d sent twice to neighbor %d in round %d", c.id, c.adj[i].To, c.round))
	}
	c.out[i] = msg
	c.sent++
}

// check panics unless msg is a non-nil message within the word budget.
func (c *Context) check(msg Message) {
	if msg == nil {
		panic("congest: nil message")
	}
	if w := msg.Words(); w > c.maxWords {
		panic(fmt.Sprintf("congest: node %d message of %d words exceeds budget %d", c.id, w, c.maxWords))
	}
}

// Broadcast queues msg on every incident edge. It occupies the whole
// round's bandwidth, so it panics if the node already sent anything this
// round, and any later Send or Broadcast panics. The message is held in a
// single slot and checked once; collect copies it across the edges, and
// Stats count one message, and msg.Words() words, per delivered copy.
func (c *Context) Broadcast(msg Message) {
	c.check(msg)
	if c.sent != 0 || c.bcast != nil {
		panic(fmt.Sprintf("congest: node %d broadcast after sending in round %d", c.id, c.round))
	}
	c.bcast = msg
}

// WakeNextRound requests that this node's Round be invoked next round even
// if it receives no messages. Without a wake request and without incoming
// messages a node stays asleep (and an all-asleep network is quiescent).
// May be called concurrently from different nodes' Round hooks; the shared
// counter is atomic and the flag is node-owned.
func (c *Context) WakeNextRound() {
	if !c.wake {
		c.wake = true
		c.wakeCount.Add(1)
	}
}

// Wake schedules node u to run in the next round even if it receives no
// messages. It is the hook used by out-of-band coordinators — e.g. the
// omniscient phase synchronizer, which models "every node knows the phase
// length bound" (Section 3.2 of the paper) without in-band signalling.
// Waking a fail-stopped node is a no-op.
func (e *Engine) Wake(u int) {
	ctx := &e.ctxs[u]
	if ctx.crashed {
		return
	}
	if !ctx.wake {
		ctx.wake = true
		e.wakeCount.Add(1)
	}
	e.schedule(u)
}

// schedule puts u on the next step's active list (idempotent).
func (e *Engine) schedule(u int) {
	if !e.pendingIn[u] {
		e.pendingIn[u] = true
		e.pending = append(e.pending, u)
	}
}

// Crash fail-stops node u: from the next round on it executes nothing,
// sends nothing, and every message addressed to it is silently dropped.
// A pending wake request is consumed, so a crashed-but-woken node cannot
// keep the network non-quiescent. The paper's algorithms are not
// fault-tolerant (Section 5 leaves the failure-prone setting open); this
// hook exists so tests can demonstrate *how* they fail — e.g. a mid-phase
// crash permanently stalls the Section 3.3 COMPLETE convergecast rather
// than corrupting labels.
func (e *Engine) Crash(u int) {
	ctx := &e.ctxs[u]
	if ctx.crashed {
		return
	}
	ctx.crashed = true
	e.crashes++
	if ctx.wake {
		ctx.wake = false
		e.wakeCount.Add(-1)
	}
}

// Crashed reports whether u has been fail-stopped.
func (e *Engine) Crashed(u int) bool { return e.ctxs[u].crashed }

// ErrMaxRounds is returned (wrapped) when a run exceeds Config.MaxRounds.
var ErrMaxRounds = fmt.Errorf("congest: exceeded max rounds")

// Init runs every node's Init hook. It is called implicitly by the Run
// methods on first use; calling it explicitly is allowed (once).
func (e *Engine) Init() {
	defer e.pool.stop()
	if e.initDone {
		return
	}
	e.initDone = true
	before := e.stats
	initNode := func(u int) {
		ctx := &e.ctxs[u]
		ctx.round = 0
		e.nodes[u].Init(ctx)
	}
	e.pool.run(e.g.N(), initNode, e.cfg.Sequential)
	e.collect(nil)
	if e.cfg.Trace {
		e.trace = append(e.trace, RoundStat{
			Round:    0,
			Messages: e.stats.Messages - before.Messages,
			Words:    e.stats.Words - before.Words,
		})
	}
}

// RunRounds executes exactly r additional rounds (after Init).
func (e *Engine) RunRounds(r int) error {
	defer e.pool.stop()
	e.Init()
	for i := 0; i < r; i++ {
		if err := e.step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntilQuiescent executes rounds until no messages are in flight and no
// node has requested a wake-up, or until the engine would exceed
// Config.MaxRounds. Returns the number of rounds this call executed.
func (e *Engine) RunUntilQuiescent() (int, error) {
	defer e.pool.stop()
	e.Init()
	start := e.stats.Rounds
	for !e.Quiescent() {
		if err := e.step(); err != nil {
			return e.stats.Rounds - start, err
		}
	}
	return e.stats.Rounds - start, nil
}

// Quiescent reports whether nothing is pending: no deliveries (immediate
// or delayed) and no wakes. In asynchronous mode delivered messages are
// consumed within the same step, so only the future heap matters. The
// check is O(1): pending deliveries and wake requests are counted as they
// are produced and consumed.
func (e *Engine) Quiescent() bool {
	if e.async {
		if len(e.future) > 0 {
			return false
		}
	} else if e.delivered > 0 {
		return false
	}
	return e.wakeCount.Load() == 0
}

// step executes one synchronous round and services the engine-level
// hooks: context cancellation is checked before the round, Config.OnRound
// fires after it.
func (e *Engine) step() error {
	if e.done != nil {
		select {
		case <-e.done:
			return fmt.Errorf("congest: run canceled after %d rounds: %w", e.stats.Rounds, e.cfg.Ctx.Err())
		default:
		}
	}
	err := e.stepActive()
	if err == nil && e.cfg.OnRound != nil {
		e.cfg.OnRound(e.stats.Rounds)
	}
	return err
}

// stepActive executes one synchronous round on the active-set scheduler:
// deliver, run the active nodes, collect.
func (e *Engine) stepActive() error {
	if e.stats.Rounds >= e.cfg.MaxRounds {
		return fmt.Errorf("%w (%d)", ErrMaxRounds, e.cfg.MaxRounds)
	}
	e.stats.Rounds++
	round := e.stats.Rounds
	if e.async {
		e.deliverDue(round)
	}
	// The runnable set for this round is everything scheduled so far:
	// receivers of this round's deliveries plus wake requests. Ascending
	// node-ID order makes collect's harvest order — and therefore every
	// inbox's ordering — ascending by sender, as if all n nodes had been
	// scanned. On dense rounds the order comes from an O(n) scan of the
	// membership bitmap, which beats comparison-sorting a quarter of the
	// graph; on sparse rounds (the wave regime) a small sort wins.
	e.active, e.pending = e.pending, e.active[:0]
	if len(e.active)*4 >= e.g.N() {
		e.active = e.active[:0]
		for u, in := range e.pendingIn {
			if in {
				e.pendingIn[u] = false
				e.active = append(e.active, u)
			}
		}
	} else {
		for _, u := range e.active {
			e.pendingIn[u] = false
		}
		slices.Sort(e.active)
	}
	before := e.stats
	e.pool.run(len(e.active), func(i int) {
		u := e.active[i]
		ctx := &e.ctxs[u]
		if ctx.crashed {
			return // fail-stopped: executes nothing, deliveries are dropped
		}
		var inbox []Incoming
		if e.inboxStamp[u] == round {
			inbox = e.inboxes[u]
		}
		if len(inbox) == 0 && !ctx.wake {
			return // stale schedule entry: nothing to do
		}
		if ctx.wake {
			ctx.wake = false
			e.wakeCount.Add(-1)
		}
		ctx.round = round
		e.nodes[u].Round(ctx, inbox)
	}, e.cfg.Sequential)
	e.collect(e.active)
	if e.cfg.Trace {
		e.trace = append(e.trace, RoundStat{
			Round:    round,
			Messages: e.stats.Messages - before.Messages,
			Words:    e.stats.Words - before.Words,
		})
	}
	return nil
}

// collect moves queued outgoing messages toward their destinations,
// updates counters, and schedules the next round's active set. Only the
// nodes in ran can have queued sends or fresh wake requests, so only they
// are harvested (ran == nil means all nodes, used after Init). Harvesting
// runs serially and in (sender, adjacency) order, so every inbox is
// deterministically ordered. In synchronous mode messages land in the
// receivers' inboxes for the next round directly; in asynchronous mode
// each is scheduled heapwise with its sampled delay. Messages to
// fail-stopped nodes are dropped and not counted.
func (e *Engine) collect(ran []int) {
	if e.async {
		e.collectAsync(ran)
		return
	}
	var delivered, words int64
	stamp := e.stats.Rounds + 1 // the round the scratch buffers will serve
	crashes := e.crashes > 0
	harvest := func(u int) {
		ctx := &e.ctxs[u]
		if ctx.wake {
			e.schedule(u)
		}
		if msg := ctx.bcast; msg != nil {
			ctx.bcast = nil
			var copies int64
			for i, a := range ctx.adj {
				if crashes && e.ctxs[a.To].crashed {
					continue // dropped on the floor at a fail-stopped node
				}
				e.push(a.To, stamp, Incoming{Edge: int(ctx.rev[i]), Payload: msg})
				copies++
			}
			delivered += copies
			words += copies * int64(msg.Words())
			return
		}
		if ctx.sent == 0 {
			return
		}
		for i, msg := range ctx.out {
			if msg == nil {
				continue
			}
			ctx.out[i] = nil
			v := ctx.adj[i].To
			if crashes && e.ctxs[v].crashed {
				continue
			}
			e.push(v, stamp, Incoming{Edge: int(ctx.rev[i]), Payload: msg})
			delivered++
			words += int64(msg.Words())
		}
		ctx.sent = 0
	}
	if ran == nil {
		for u := 0; u < e.g.N(); u++ {
			harvest(u)
		}
	} else {
		for _, u := range ran {
			harvest(u)
		}
	}
	e.stats.Messages += delivered
	e.stats.Words += words
	e.delivered = delivered
}

// push appends in to v's inbox for round stamp. v's first delivery of the
// round truncates what an older round left (lazy per-receiver reset) and
// schedules v.
func (e *Engine) push(v, stamp int, in Incoming) {
	if e.inboxStamp[v] != stamp {
		e.inboxStamp[v] = stamp
		e.inboxes[v] = e.inboxes[v][:0]
		e.schedule(v)
	}
	e.inboxes[v] = append(e.inboxes[v], in)
}

// collectAsync schedules each queued message for a future round with a
// uniform delay in [1, MaxDelay], clamped so deliveries on one directed
// edge stay FIFO and respect the one-message-per-edge-per-round bandwidth
// on the receiving side. A broadcast is expanded edge by edge in
// adjacency order, so delays are drawn in (sender, adjacency) order. Wake
// requests still take effect next round, so they go straight onto the
// active list.
func (e *Engine) collectAsync(ran []int) {
	now := e.stats.Rounds
	var words int64
	var count int64
	harvest := func(u int) {
		ctx := &e.ctxs[u]
		if ctx.wake {
			e.schedule(u)
		}
		bcast := ctx.bcast
		if bcast == nil && ctx.sent == 0 {
			return
		}
		for i, a := range ctx.adj {
			msg := bcast
			if msg == nil {
				if msg = ctx.out[i]; msg == nil {
					continue
				}
				ctx.out[i] = nil
			}
			if e.crashes > 0 && e.ctxs[a.To].crashed {
				continue // dropped at a fail-stopped node
			}
			due := now + 1 + int(e.delayRNG.Int64N(int64(e.cfg.MaxDelay)))
			if due <= ctx.lastDue[i] {
				due = ctx.lastDue[i] + 1
			}
			ctx.lastDue[i] = due
			e.seq++
			heapPush(&e.future, futureDelivery{
				due: due, seq: e.seq, to: a.To,
				inc: Incoming{Edge: int(ctx.rev[i]), Payload: msg},
			})
			count++
			words += int64(msg.Words())
		}
		ctx.bcast, ctx.sent = nil, 0
	}
	if ran == nil {
		for u := 0; u < e.g.N(); u++ {
			harvest(u)
		}
	} else {
		for _, u := range ran {
			harvest(u)
		}
	}
	e.stats.Messages += count
	e.stats.Words += words
}

// deliverDue moves every message scheduled for the given round into its
// destination inbox and schedules the receivers to run.
func (e *Engine) deliverDue(round int) {
	var delivered int64
	for len(e.future) > 0 && e.future[0].due <= round {
		d := heapPop(&e.future)
		e.push(d.to, round, d.inc)
		delivered++
	}
	e.delivered = delivered
}
