package congest

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"distsketch/internal/graph"
)

// The active-set scheduler is checked against references that need no
// second engine: the BFS hop counts of the graph, the per-round traffic a
// synchronous flood must produce, and Stats recorded for the asynchronous
// flood — for every graph family, in sequential, parallel, and
// asynchronous execution.

func floodOutcome(t *testing.T, g *graph.Graph, cfg Config) (Stats, []int, []RoundStat) {
	t.Helper()
	nodes := make([]Node, g.N())
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	e := NewEngine(g, nodes, cfg)
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	dists := make([]int, g.N())
	for i := range dists {
		dists[i] = e.Node(i).(*floodNode).dist
	}
	return e.Stats(), dists, e.Trace()
}

// asyncFloodStats is the cost of floodOutcome on graph.Make(f, 160,
// UnitWeights, 9) with Config{MaxDelay: 4, Seed: 11}, recorded while the
// engine still carried its legacy full-scan loop and both loops agreed.
var asyncFloodStats = map[graph.Family]Stats{
	graph.FamilyER:         {Rounds: 16, Messages: 1537, Words: 3074},
	graph.FamilyGeometric:  {Rounds: 14, Messages: 6765, Words: 13530},
	graph.FamilyGrid:       {Rounds: 45, Messages: 692, Words: 1384},
	graph.FamilyRing:       {Rounds: 212, Messages: 326, Words: 652},
	graph.FamilyTree:       {Rounds: 27, Messages: 318, Words: 636},
	graph.FamilyBA:         {Rounds: 13, Messages: 1272, Words: 2544},
	graph.FamilySmallWorld: {Rounds: 34, Messages: 834, Words: 1668},
	graph.FamilyHyperCube:  {Rounds: 14, Messages: 973, Words: 1946},
	graph.FamilyInternet:   {Rounds: 14, Messages: 843, Words: 1686},
}

func TestFloodMatchesBFS(t *testing.T) {
	for _, f := range graph.AllFamilies() {
		g := graph.Make(f, 160, graph.UnitWeights(), 9)
		hops := graph.BFSHops(g, 0)
		assertBFS := func(name string, dists []int) {
			t.Helper()
			for v := range dists {
				if dists[v] != hops[v] {
					t.Fatalf("%s %s: node %d flood dist %d, BFS %d", f, name, v, dists[v], hops[v])
				}
			}
		}

		// Synchronous: a node broadcasts once, in the round its hop
		// count says, so trace entry r carries one 2-word message per
		// edge end at hop r.
		ecc := 0
		for _, h := range hops {
			ecc = max(ecc, h)
		}
		want := make([]RoundStat, ecc+2)
		for r := range want {
			want[r].Round = r
		}
		for v, h := range hops {
			if h >= 0 {
				want[h].Messages += int64(g.Degree(v))
				want[h].Words += 2 * int64(g.Degree(v))
			}
		}
		for _, cfg := range []Config{{Sequential: true, Trace: true}, {Trace: true}} {
			name := fmt.Sprintf("sequential=%v", cfg.Sequential)
			s, dists, tr := floodOutcome(t, g, cfg)
			assertBFS(name, dists)
			if len(tr) != len(want) || s.Rounds != ecc+1 {
				t.Fatalf("%s %s: %d rounds, %d trace entries; want %d and %d", f, name, s.Rounds, len(tr), ecc+1, len(want))
			}
			var total Stats
			for r := range tr {
				if tr[r] != want[r] {
					t.Fatalf("%s %s: trace entry %d = %+v, want %+v", f, name, r, tr[r], want[r])
				}
				total.Messages += tr[r].Messages
				total.Words += tr[r].Words
			}
			if s.Messages != total.Messages || s.Words != total.Words {
				t.Errorf("%s %s: stats %v, trace sums %v", f, name, s, total)
			}
		}

		// Asynchronous: the same fixed point, parallel equal to
		// sequential, and the recorded cost.
		sSeq, dSeq, trSeq := floodOutcome(t, g, Config{MaxDelay: 4, Seed: 11, Sequential: true, Trace: true})
		sPar, dPar, trPar := floodOutcome(t, g, Config{MaxDelay: 4, Seed: 11, Trace: true})
		assertBFS("async-seq", dSeq)
		assertBFS("async-par", dPar)
		if sSeq != asyncFloodStats[f] || sPar != sSeq {
			t.Errorf("%s async: stats seq %v par %v, recorded %v", f, sSeq, sPar, asyncFloodStats[f])
		}
		if !slices.Equal(trSeq, trPar) {
			t.Errorf("%s async: traces differ between sequential and parallel", f)
		}
	}
}

// inboxOrderProbe floods like floodNode and counts the inboxes it sees
// that are not in strictly ascending sender order.
type inboxOrderProbe struct {
	floodNode
	inboxes, multi, unordered int
}

func (p *inboxOrderProbe) Round(ctx *Context, inbox []Incoming) {
	p.inboxes++
	if len(inbox) > 1 {
		p.multi++
	}
	for i := 1; i < len(inbox); i++ {
		if ctx.adj[inbox[i-1].Edge].To >= ctx.adj[inbox[i].Edge].To {
			p.unordered++
			break
		}
	}
	p.floodNode.Round(ctx, inbox)
}

// TestInboxOrderAscendingFrom pins the synchronous delivery order that
// determinism rests on: collect harvests senders in ascending ID order, so
// every inbox lists its senders in ascending order, whatever the worker
// schedule.
func TestInboxOrderAscendingFrom(t *testing.T) {
	g := graph.Make(graph.FamilyER, 96, graph.UnitWeights(), 3)
	for _, sequential := range []bool{true, false} {
		nodes := make([]Node, g.N())
		probes := make([]*inboxOrderProbe, g.N())
		for i := range nodes {
			probes[i] = &inboxOrderProbe{}
			nodes[i] = probes[i]
		}
		e := NewEngine(g, nodes, Config{Sequential: sequential})
		if _, err := e.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		var multi int
		for v, p := range probes {
			if p.unordered > 0 {
				t.Errorf("sequential=%v: node %d saw %d of %d inboxes out of sender order", sequential, v, p.unordered, p.inboxes)
			}
			multi += p.multi
		}
		if multi == 0 {
			t.Fatalf("sequential=%v: no inbox held two messages; the check is vacuous", sequential)
		}
	}
}

// A node that is simultaneously woken and receives messages must run once
// with its full inbox (not twice, not with a stale inbox).
type wakeAndReceiveNode struct {
	floodNode
	runs      int
	badInbox  int
	wakeFirst bool
}

func (w *wakeAndReceiveNode) Init(ctx *Context) {
	w.floodNode.Init(ctx)
	if w.wakeFirst {
		ctx.WakeNextRound()
	}
}

func (w *wakeAndReceiveNode) Round(ctx *Context, inbox []Incoming) {
	w.runs++
	for _, in := range inbox {
		if _, ok := in.Payload.(floodMsg); !ok {
			w.badInbox++
		}
	}
	w.floodNode.Round(ctx, inbox)
}

func TestWakerAndReceiverRunsOnce(t *testing.T) {
	// Node 1 of a path wakes itself in Init AND receives node 0's flood in
	// round 1: exactly one Round call with one message.
	g := graph.Path(3, graph.UnitWeights(), 0)
	n1 := &wakeAndReceiveNode{wakeFirst: true}
	e := NewEngine(g, []Node{&floodNode{}, n1, &floodNode{}}, Config{})
	if err := e.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	if n1.runs != 1 {
		t.Errorf("node 1 ran %d times in round 1, want 1", n1.runs)
	}
	if n1.badInbox != 0 {
		t.Errorf("node 1 saw %d malformed deliveries", n1.badInbox)
	}
	if n1.dist != 1 {
		t.Errorf("node 1 dist = %d, want 1", n1.dist)
	}
}

// A woken node must see an EMPTY inbox even if its buffer held deliveries
// in an earlier round (lazily-reset buffers keep stale content around; the
// stamp must hide it).
type staleInboxProbe struct {
	phase    int
	stale    int
	sawEmpty bool
}

func (p *staleInboxProbe) Init(ctx *Context) {}

func (p *staleInboxProbe) Round(ctx *Context, inbox []Incoming) {
	switch p.phase {
	case 0: // received the flood: now request a pure wake
		p.phase = 1
		ctx.WakeNextRound()
	case 1: // wake-only round: inbox must be empty
		p.stale = len(inbox)
		p.sawEmpty = len(inbox) == 0
		p.phase = 2
	}
}

func TestWakeRoundSeesEmptyInboxAfterDelivery(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights(), 0)
	probe := &staleInboxProbe{}
	sender := &panicNode{f: func(ctx *Context) {
		if ctx.ID() == 0 {
			ctx.Broadcast(floodMsg{hops: 1})
		}
	}}
	e := NewEngine(g, []Node{sender, probe}, Config{})
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if !probe.sawEmpty {
		t.Errorf("wake-only round saw %d stale deliveries, want empty inbox", probe.stale)
	}
}

// Crash must consume a pending wake so Quiescent (now O(1) off a counter)
// cannot be held false forever by a crashed-but-woken node.
func TestCrashConsumesPendingWake(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights(), 0)
	e := NewEngine(g, []Node{&wakeNode{limit: 1 << 20}, &wakeNode{}}, Config{})
	if err := e.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	if e.Quiescent() {
		t.Fatal("waker still live, network must not be quiescent")
	}
	e.Crash(0)
	if !e.Quiescent() {
		t.Error("crashed node's pending wake still holds the network non-quiescent")
	}
	if got := e.wakeCount.Load(); got != 0 {
		t.Errorf("wakeCount = %d after crash, want 0", got)
	}
}

func TestWakeCrashedNodeIsNoop(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights(), 0)
	e := NewEngine(g, []Node{&wakeNode{}, &wakeNode{}}, Config{MaxRounds: 10})
	e.Init()
	e.Crash(0)
	e.Wake(0)
	if !e.Quiescent() {
		t.Error("waking a crashed node must not schedule it")
	}
	rounds, err := e.RunUntilQuiescent()
	if err != nil || rounds != 0 {
		t.Errorf("rounds=%d err=%v, want 0,nil", rounds, err)
	}
}

// Re-waking the engine after quiescence (the omniscient phase-sync driver
// pattern in core.BuildTZ) must reschedule nodes through the active set.
func TestWakeAfterQuiescenceReschedules(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), 0)
	nodes := make([]Node, 4)
	ws := make([]*wakeNode, 4)
	for i := range nodes {
		ws[i] = &wakeNode{}
		nodes[i] = ws[i]
	}
	e := NewEngine(g, nodes, Config{MaxRounds: 4 * 10})
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	for phase := 0; phase < 3; phase++ {
		ws[2].limit = ws[2].wakes + 1 // allow exactly one more wake-run
		e.Wake(2)
		rounds, err := e.RunUntilQuiescent()
		if err != nil {
			t.Fatal(err)
		}
		if rounds != 1 {
			t.Errorf("phase %d: rounds = %d, want 1", phase, rounds)
		}
	}
	if ws[2].wakes != 3 {
		t.Errorf("node 2 ran %d wake rounds, want 3", ws[2].wakes)
	}
}

// awaitGoroutines polls until the goroutine count drops to at most want.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d (pool workers leaked)", runtime.NumGoroutine(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunReleasesWorkers: the worker goroutines of a parallel run live
// for that call only. After each run call the goroutine count is back at
// its baseline while the engine is still reachable, and the next call
// starts new workers and finishes the flood.
func TestRunReleasesWorkers(t *testing.T) {
	g := graph.Make(graph.FamilyER, 512, graph.UnitWeights(), 1)
	nodes := make([]Node, g.N())
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	base := runtime.NumGoroutine()
	e := NewEngine(g, nodes, Config{})
	if err := e.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, base)
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, base)
	for v, h := range graph.BFSHops(g, 0) {
		if d := e.Node(v).(*floodNode).dist; d != h {
			t.Fatalf("node %d: flood dist %d, BFS %d", v, d, h)
		}
	}
}

// Duplicate external wakes and wake+message overlap must not double-run a
// node or corrupt the O(1) counters.
func TestDuplicateWakesCoalesce(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights(), 0)
	n0 := &wakeNode{limit: 1}
	e := NewEngine(g, []Node{n0, &wakeNode{}}, Config{MaxRounds: 10})
	e.Init()
	e.Wake(0)
	e.Wake(0)
	e.Wake(0)
	rounds, err := e.RunUntilQuiescent()
	if err != nil {
		t.Fatal(err)
	}
	if n0.wakes != 1 {
		t.Errorf("node 0 ran %d times, want 1", n0.wakes)
	}
	if rounds != 1 {
		t.Errorf("rounds = %d, want 1", rounds)
	}
}
