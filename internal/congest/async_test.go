package congest

import (
	"testing"

	"distsketch/internal/graph"
)

func TestAsyncFloodSameFixedPoint(t *testing.T) {
	// Under bounded random delays the flood still converges to BFS hop
	// distances (more rounds, same fixed point).
	for _, delay := range []int{2, 4, 8} {
		g := graph.Make(graph.FamilyGrid, 64, graph.UnitWeights(), 3)
		nodes := make([]Node, g.N())
		for i := range nodes {
			nodes[i] = &floodNode{}
		}
		e := NewEngine(g, nodes, Config{MaxDelay: delay, Seed: uint64(delay)})
		if _, err := e.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		want := graph.BFSHops(g, 0)
		for v := 0; v < g.N(); v++ {
			if got := e.Node(v).(*floodNode).dist; got != want[v] {
				t.Fatalf("delay=%d node %d: %d != %d", delay, v, got, want[v])
			}
		}
	}
}

func TestAsyncDeterministic(t *testing.T) {
	run := func(seed uint64) (Stats, []int) {
		g := graph.Make(graph.FamilyER, 48, graph.UnitWeights(), 7)
		nodes := make([]Node, g.N())
		for i := range nodes {
			nodes[i] = &floodNode{}
		}
		e := NewEngine(g, nodes, Config{MaxDelay: 3, Seed: seed, Sequential: true})
		if _, err := e.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		dists := make([]int, g.N())
		for i := range dists {
			dists[i] = e.Node(i).(*floodNode).dist
		}
		return e.Stats(), dists
	}
	s1, d1 := run(5)
	s2, d2 := run(5)
	if s1 != s2 {
		t.Errorf("same seed, different stats: %v vs %v", s1, s2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("same seed, node %d differs", i)
		}
	}
	s3, _ := run(6)
	if s1 == s3 {
		t.Log("different seeds produced identical stats (possible but unlikely)")
	}
}

func TestAsyncTakesMoreRounds(t *testing.T) {
	build := func(delay int) Stats {
		g := graph.Path(32, graph.UnitWeights(), 0)
		nodes := make([]Node, g.N())
		for i := range nodes {
			nodes[i] = &floodNode{}
		}
		e := NewEngine(g, nodes, Config{MaxDelay: delay, Seed: 1})
		if _, err := e.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	sync := build(0)
	async := build(6)
	if async.Rounds <= sync.Rounds {
		t.Errorf("async rounds %d should exceed sync %d on a path", async.Rounds, sync.Rounds)
	}
	// Delays cannot exceed MaxDelay per hop (path flood: one wave).
	if async.Rounds > 6*(sync.Rounds+2) {
		t.Errorf("async rounds %d exceed MaxDelay×sync bound", async.Rounds)
	}
}

func TestAsyncFIFOPerEdge(t *testing.T) {
	// A sender emits an increasing counter each round; the receiver must
	// see values strictly in order despite random delays.
	g := graph.Path(2, graph.UnitWeights(), 0)
	recv := &fifoCheckNode{}
	e := NewEngine(g, []Node{&counterNode{limit: 50}, recv}, Config{MaxDelay: 5, Seed: 9})
	if _, err := e.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if recv.violations > 0 {
		t.Errorf("%d FIFO violations", recv.violations)
	}
	if recv.seen != 50 {
		t.Errorf("received %d of 50 messages", recv.seen)
	}
	if recv.maxPerRound > 1 {
		t.Errorf("edge delivered %d messages in one round", recv.maxPerRound)
	}
}

type counterNode struct {
	sent  int
	limit int
}

func (c *counterNode) Init(ctx *Context) {
	ctx.WakeNextRound()
}

func (c *counterNode) Round(ctx *Context, _ []Incoming) {
	if c.sent < c.limit {
		c.sent++
		ctx.Broadcast(floodMsg{hops: c.sent})
		ctx.WakeNextRound()
	}
}

type fifoCheckNode struct {
	last        int
	seen        int
	violations  int
	maxPerRound int
}

func (f *fifoCheckNode) Init(ctx *Context) {}

func (f *fifoCheckNode) Round(ctx *Context, inbox []Incoming) {
	if len(inbox) > f.maxPerRound {
		f.maxPerRound = len(inbox)
	}
	for _, in := range inbox {
		v := in.Payload.(floodMsg).hops
		if v <= f.last {
			f.violations++
		}
		f.last = v
		f.seen++
	}
}
