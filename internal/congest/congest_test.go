package congest

import (
	"errors"
	"fmt"
	"testing"

	"distsketch/internal/graph"
)

// floodMsg carries a hop count; used by the test protocol below.
type floodMsg struct{ hops int }

func (floodMsg) Words() int { return 2 }

// floodNode implements BFS flooding from node 0: on first contact it learns
// its hop distance and forwards hops+1 to all neighbors.
type floodNode struct {
	dist int
}

func (f *floodNode) Init(ctx *Context) {
	f.dist = -1
	if ctx.ID() == 0 {
		f.dist = 0
		ctx.Broadcast(floodMsg{hops: 1})
	}
}

func (f *floodNode) Round(ctx *Context, inbox []Incoming) {
	improved := false
	for _, in := range inbox {
		m := in.Payload.(floodMsg)
		if f.dist == -1 || m.hops < f.dist {
			f.dist = m.hops
			improved = true
		}
	}
	if improved {
		ctx.Broadcast(floodMsg{hops: f.dist + 1})
	}
}

func runFlood(t *testing.T, g *graph.Graph, cfg Config) (*Engine, []int) {
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
	return e, dists
}

func TestFloodComputesBFS(t *testing.T) {
	g := graph.Make(graph.FamilyGrid, 36, graph.UnitWeights(), 1)
	_, dists := runFlood(t, g, Config{})
	want := graph.BFSHops(g, 0)
	for v := range dists {
		if dists[v] != want[v] {
			t.Errorf("node %d: flood dist %d, want BFS %d", v, dists[v], want[v])
		}
	}
}

func TestFloodRoundsEqualEccentricity(t *testing.T) {
	// Flooding from node 0 on a path takes exactly ecc(0)+1 rounds to
	// quiesce (last delivery round n-1, then one empty check round is not
	// counted because quiescence is checked before stepping).
	g := graph.Path(10, graph.UnitWeights(), 0)
	e, _ := runFlood(t, g, Config{})
	// Deliveries happen in rounds 1..9; round 10 consumes the last
	// broadcast from node 9 (which has nowhere new to go but still sends).
	if e.Stats().Rounds < 9 || e.Stats().Rounds > 11 {
		t.Errorf("rounds = %d, want about 9-11", e.Stats().Rounds)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, f := range graph.AllFamilies() {
		g := graph.Make(f, 128, graph.UnitWeights(), 5)
		eSeq, dSeq := runFlood(t, g, Config{Sequential: true})
		ePar, dPar := runFlood(t, g, Config{Sequential: false})
		if eSeq.Stats() != ePar.Stats() {
			t.Errorf("%s: stats differ: seq %v par %v", f, eSeq.Stats(), ePar.Stats())
		}
		for v := range dSeq {
			if dSeq[v] != dPar[v] {
				t.Fatalf("%s: node %d differs: seq %d par %d", f, v, dSeq[v], dPar[v])
			}
		}
	}
}

func TestMessageAccounting(t *testing.T) {
	// On a star with n-1 leaves, flooding from the center: center sends
	// n-1 messages in Init; each leaf then broadcasts back 1 message.
	// Total = 2(n-1). Words = 2 per message.
	n := 17
	g := graph.Star(n, graph.UnitWeights(), 0)
	e, _ := runFlood(t, g, Config{})
	wantMsgs := int64(2 * (n - 1))
	if e.Stats().Messages != wantMsgs {
		t.Errorf("messages = %d, want %d", e.Stats().Messages, wantMsgs)
	}
	if e.Stats().Words != 2*wantMsgs {
		t.Errorf("words = %d, want %d", e.Stats().Words, 2*wantMsgs)
	}

	// With one leaf crashed, the center's broadcast reaches 15 leaves and
	// 15 answer: the copy dropped at the crashed leaf counts toward
	// neither messages nor words.
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	e = NewEngine(g, nodes, Config{})
	e.Crash(5)
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.Messages != 30 || got.Words != 60 {
		t.Errorf("crashed leaf: %v, want 30 messages and 60 words", got)
	}
}

// edgeProbe floods like floodNode, relaying with per-edge Sends at even
// IDs and with Broadcast at odd ones, and counts deliveries whose Edge
// does not name the sender the message carries.
type edgeProbe struct {
	dist      int
	seen, bad int
}

// probeMsg is edgeProbe's hop count together with its sender's ID.
type probeMsg struct{ hops, from int }

func (probeMsg) Words() int { return 2 }

func (p *edgeProbe) Init(ctx *Context) {
	p.dist = -1
	if ctx.ID() == 0 {
		p.dist = 0
		p.relay(ctx)
	}
}

func (p *edgeProbe) Round(ctx *Context, inbox []Incoming) {
	improved := false
	for _, in := range inbox {
		p.seen++
		m := in.Payload.(probeMsg)
		if in.Edge < 0 || in.Edge >= ctx.Degree() || ctx.adj[in.Edge].To != m.from {
			p.bad++
		}
		if p.dist == -1 || m.hops < p.dist {
			p.dist = m.hops
			improved = true
		}
	}
	if improved {
		p.relay(ctx)
	}
}

func (p *edgeProbe) relay(ctx *Context) {
	msg := probeMsg{hops: p.dist + 1, from: ctx.ID()}
	if ctx.ID()%2 == 1 {
		ctx.Broadcast(msg)
		return
	}
	for i := 0; i < ctx.Degree(); i++ {
		ctx.Send(i, msg)
	}
}

// TestIncomingEdge pins the engine's delivery contract: every delivered
// message names the receiver's adjacency index of its sender, in every
// execution mode and across a mid-run crash.
func TestIncomingEdge(t *testing.T) {
	g := graph.Make(graph.FamilyGeometric, 300, graph.UnitWeights(), 4)
	for _, cfg := range []Config{
		{Sequential: true},
		{},
		{MaxDelay: 4, Seed: 3, Sequential: true},
		{MaxDelay: 4, Seed: 3},
	} {
		nodes := make([]Node, g.N())
		probes := make([]*edgeProbe, g.N())
		for i := range nodes {
			probes[i] = &edgeProbe{}
			nodes[i] = probes[i]
		}
		e := NewEngine(g, nodes, cfg)
		if err := e.RunRounds(3); err != nil {
			t.Fatal(err)
		}
		e.Crash(g.N() / 2)
		if _, err := e.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		var seen, bad int
		for _, p := range probes {
			seen += p.seen
			bad += p.bad
		}
		if seen == 0 || bad != 0 {
			t.Errorf("%+v: %d of %d deliveries named the wrong edge", cfg, bad, seen)
		}
	}
}

type panicNode struct {
	f func(ctx *Context)
}

func (p *panicNode) Init(ctx *Context)                { p.f(ctx) }
func (p *panicNode) Round(ctx *Context, _ []Incoming) {}

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

type wideMsg struct{}

func (wideMsg) Words() int { return 99 }

func TestBandwidthEnforcement(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights(), 0)
	mk := func(f func(ctx *Context)) *Engine {
		return NewEngine(g, []Node{&panicNode{f: f}, &panicNode{f: func(*Context) {}}}, Config{})
	}
	expectPanic(t, "double send", func() {
		e := mk(func(ctx *Context) {
			ctx.Send(0, floodMsg{1})
			ctx.Send(0, floodMsg{2})
		})
		e.Init()
	})
	expectPanic(t, "oversized message", func() {
		e := mk(func(ctx *Context) { ctx.Send(0, wideMsg{}) })
		e.Init()
	})
	expectPanic(t, "nil message", func() {
		e := mk(func(ctx *Context) { ctx.Send(0, nil) })
		e.Init()
	})
	// A broadcast takes the round's whole bandwidth on every edge.
	for name, f := range map[string]func(ctx *Context){
		"broadcast then send": func(ctx *Context) {
			ctx.Broadcast(floodMsg{1})
			ctx.Send(0, floodMsg{2})
		},
		"send then broadcast": func(ctx *Context) {
			ctx.Send(0, floodMsg{1})
			ctx.Broadcast(floodMsg{2})
		},
		"double broadcast": func(ctx *Context) {
			ctx.Broadcast(floodMsg{1})
			ctx.Broadcast(floodMsg{2})
		},
		"oversized broadcast": func(ctx *Context) { ctx.Broadcast(wideMsg{}) },
		"nil broadcast":       func(ctx *Context) { ctx.Broadcast(nil) },
	} {
		expectPanic(t, name, func() { mk(f).Init() })
	}
}

// wakeNode counts how many times Round ran without any inbox, driven purely
// by WakeNextRound.
type wakeNode struct {
	wakes int
	limit int
}

func (w *wakeNode) Init(ctx *Context) {
	if w.limit > 0 {
		ctx.WakeNextRound()
	}
}

func (w *wakeNode) Round(ctx *Context, inbox []Incoming) {
	if len(inbox) != 0 {
		panic("unexpected inbox")
	}
	w.wakes++
	if w.wakes < w.limit {
		ctx.WakeNextRound()
	}
}

func TestWakeMechanism(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights(), 0)
	n0 := &wakeNode{limit: 5}
	e := NewEngine(g, []Node{n0, &wakeNode{}}, Config{MaxRounds: 100})
	rounds, err := e.RunUntilQuiescent()
	if err != nil {
		t.Fatal(err)
	}
	if n0.wakes != 5 {
		t.Errorf("wakes = %d, want 5", n0.wakes)
	}
	if rounds != 5 {
		t.Errorf("rounds = %d, want 5", rounds)
	}
	if e.Stats().Messages != 0 {
		t.Errorf("messages = %d, want 0", e.Stats().Messages)
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	g := graph.Path(2, graph.UnitWeights(), 0)
	e := NewEngine(g, []Node{&wakeNode{limit: 1 << 30}, &wakeNode{}}, Config{MaxRounds: 10})
	rounds, err := e.RunUntilQuiescent()
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	if rounds != 10 {
		t.Errorf("rounds = %d, want 10", rounds)
	}
	// The cap is a total over the engine's run calls.
	if err := e.RunRounds(1); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("RunRounds past the cap: err = %v, want ErrMaxRounds", err)
	}
}

func TestRunRoundsExact(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), 0)
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	e := NewEngine(g, nodes, Config{})
	if err := e.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Rounds != 2 {
		t.Errorf("rounds = %d, want 2", e.Stats().Rounds)
	}
	// After 2 rounds flood from 0 has reached node 2 but not node 3.
	if d := e.Node(2).(*floodNode).dist; d != 2 {
		t.Errorf("node 2 dist = %d, want 2", d)
	}
	if d := e.Node(3).(*floodNode).dist; d != -1 {
		t.Errorf("node 3 dist = %d, want -1 (unreached)", d)
	}
}

func TestContextTopologyView(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 4)
	b.AddEdge(0, 2, 9)
	g := b.MustFreeze()
	var got struct {
		deg  int
		nbrs []int
		w1   graph.Dist
		idx  int
	}
	probe := &panicNode{f: func(ctx *Context) {
		got.deg = ctx.Degree()
		for _, a := range ctx.adj {
			got.nbrs = append(got.nbrs, a.To)
		}
		got.w1 = ctx.WeightTo(ctx.NeighborIndex(2))
		got.idx = ctx.NeighborIndex(1)
	}}
	e := NewEngine(g, []Node{probe, &panicNode{f: func(*Context) {}}, &panicNode{f: func(*Context) {}}}, Config{})
	e.Init()
	if got.deg != 2 || len(got.nbrs) != 2 || got.nbrs[0] != 1 || got.nbrs[1] != 2 {
		t.Errorf("topology view wrong: %+v", got)
	}
	if got.w1 != 9 {
		t.Errorf("WeightTo(2) = %d, want 9", got.w1)
	}
	if got.idx != 0 {
		t.Errorf("NeighborIndex(1) = %d, want 0", got.idx)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{Rounds: 5, Messages: 10, Words: 20}
	b := Stats{Rounds: 2, Messages: 3, Words: 4}
	if got := a.Add(b); got != (Stats{7, 13, 24}) {
		t.Errorf("Add = %+v", got)
	}
	if got := a.Sub(b); got != (Stats{3, 7, 16}) {
		t.Errorf("Sub = %+v", got)
	}
	if s := a.String(); s != "rounds=5 messages=10 words=20" {
		t.Errorf("String = %q", s)
	}
}

func TestEngineNodeCountMismatchPanics(t *testing.T) {
	g := graph.Path(3, graph.UnitWeights(), 0)
	expectPanic(t, "node count", func() {
		NewEngine(g, []Node{&floodNode{}}, Config{})
	})
}

// TestNewEngineAllocs: an engine costs the same constant number of
// allocations on a graph 8 times larger, synchronous and asynchronous.
// The topology is read from the graph and every per-edge array is one
// allocation of 2m slots, so nothing is allocated per node.
func TestNewEngineAllocs(t *testing.T) {
	for _, cfg := range []Config{{}, {MaxDelay: 3}} {
		var got []float64
		for _, n := range []int{256, 2048} {
			g := graph.Make(graph.FamilyGeometric, n, graph.UniformWeights(1, 100), 7)
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = &floodNode{}
			}
			got = append(got, testing.AllocsPerRun(5, func() {
				NewEngine(g, nodes, cfg)
			}))
		}
		if got[0] != got[1] || got[1] > 16 {
			t.Errorf("MaxDelay %d: NewEngine allocations on 256 and 2048 nodes = %v, want one constant ≤ 16", cfg.MaxDelay, got)
		}
	}
}

func TestQuiescentBeforeInitRuns(t *testing.T) {
	// A network where nobody sends in Init and nobody wakes is quiescent
	// after 0 rounds.
	g := graph.Path(2, graph.UnitWeights(), 0)
	e := NewEngine(g, []Node{&wakeNode{}, &wakeNode{}}, Config{MaxRounds: 10})
	rounds, err := e.RunUntilQuiescent()
	if err != nil || rounds != 0 {
		t.Errorf("rounds=%d err=%v, want 0,nil", rounds, err)
	}
}

func BenchmarkFloodER512(b *testing.B) {
	g := graph.Make(graph.FamilyER, 512, graph.UnitWeights(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := make([]Node, g.N())
		for j := range nodes {
			nodes[j] = &floodNode{}
		}
		e := NewEngine(g, nodes, Config{})
		if _, err := e.RunUntilQuiescent(); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleEngine() {
	g := graph.Path(3, graph.UnitWeights(), 0)
	nodes := []Node{&floodNode{}, &floodNode{}, &floodNode{}}
	e := NewEngine(g, nodes, Config{})
	if _, err := e.RunUntilQuiescent(); err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		fmt.Println(e.Node(i).(*floodNode).dist)
	}
	// Output:
	// 0
	// 1
	// 2
}
