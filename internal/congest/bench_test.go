package congest

import (
	"testing"

	"distsketch/internal/graph"
)

// Engine micro-benchmarks on wave-shaped workloads: a BFS flood where the
// per-round frontier is a thin ring (O(√n) on a torus) while n is large.
// This is the shape of every TZ/CDG/landmark phase, and the regime the
// active-set scheduler targets: a round costs in proportion to its
// frontier, not to n. Run with:
//
//	go test ./internal/congest -bench=BenchmarkEngine -benchtime=5x
//
// The CI smoke uses -benchtime=1x. README.md records what the active-set
// scheduler measured against the O(n)-per-round loop it replaced.

// pulseNode is a re-triggerable BFS flood: each engine Wake of the source
// launches one wave, so one engine can be pulsed repeatedly and the
// benchmark measures the round loop, not engine construction.
type pulseNode struct {
	dist int
	src  bool
}

func (p *pulseNode) Init(ctx *Context) { p.dist = -1 }

func (p *pulseNode) Round(ctx *Context, inbox []Incoming) {
	if len(inbox) == 0 {
		if p.src { // wake pulse: launch a wave
			p.dist = 0
			ctx.Broadcast(floodMsg{hops: 1})
		}
		return
	}
	improved := false
	for _, in := range inbox {
		m := in.Payload.(floodMsg)
		if p.dist == -1 || m.hops < p.dist {
			p.dist = m.hops
			improved = true
		}
	}
	if improved {
		ctx.Broadcast(floodMsg{hops: p.dist + 1})
	}
}

// benchWaves builds one engine and times b.N full flood waves over it.
func benchWaves(b *testing.B, g *graph.Graph, cfg Config) {
	b.Helper()
	nodes := make([]Node, g.N())
	pulses := make([]*pulseNode, g.N())
	for j := range nodes {
		pulses[j] = &pulseNode{src: j == 0}
		nodes[j] = pulses[j]
	}
	e := NewEngine(g, nodes, cfg)
	e.Init()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pulses {
			p.dist = -1
		}
		e.Wake(0)
		if _, err := e.RunUntilQuiescent(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	want := graph.BFSHops(g, 0)
	for v, p := range pulses {
		if p.dist != want[v] {
			b.Fatalf("node %d: dist %d, want %d", v, p.dist, want[v])
		}
	}
}

// benchBuildAndFlood times the end-to-end shape callers see: construct the
// engine and run one flood to quiescence.
func benchBuildAndFlood(b *testing.B, g *graph.Graph, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := make([]Node, g.N())
		for j := range nodes {
			nodes[j] = &floodNode{}
		}
		e := NewEngine(g, nodes, cfg)
		if _, err := e.RunUntilQuiescent(); err != nil {
			b.Fatal(err)
		}
	}
}

// torus50k is a 224×224 torus (n = 50176): flood frontier ≈ 4·√n ≪ n.
func torus50k() *graph.Graph {
	return graph.Torus(224, 224, graph.UnitWeights(), 1)
}

// geo20k is a 20k-node random geometric graph in the connectivity regime —
// the paper's wireless-network motivation; flood waves are annuli.
func geo20k() *graph.Graph {
	return graph.Make(graph.FamilyGeometric, 20_000, graph.UnitWeights(), 1)
}

// Pure round-loop cost on a 50k-node wave workload.
func BenchmarkEngineWaveTorus50k(b *testing.B) {
	g := torus50k()
	b.Run("seq", func(b *testing.B) { benchWaves(b, g, Config{Sequential: true}) })
	b.Run("par", func(b *testing.B) { benchWaves(b, g, Config{}) })
}

func BenchmarkEngineWaveGeometric20k(b *testing.B) {
	g := geo20k()
	b.Run("seq", func(b *testing.B) { benchWaves(b, g, Config{Sequential: true}) })
	b.Run("par", func(b *testing.B) { benchWaves(b, g, Config{}) })
}

// End-to-end including engine construction.
func BenchmarkEngineBuildFloodTorus50k(b *testing.B) {
	benchBuildAndFlood(b, torus50k(), Config{Sequential: true})
}

// BenchmarkEngineAsyncTorus exercises the async path: deliverDue feeds the
// active set from heap pops instead of clearing all n inboxes.
func BenchmarkEngineAsyncTorus(b *testing.B) {
	g := graph.Torus(128, 128, graph.UnitWeights(), 1)
	benchWaves(b, g, Config{MaxDelay: 4, Seed: 3, Sequential: true})
}

// BenchmarkEngineDenseFlood is the adversarial shape for the active set:
// a dense-activity workload where most nodes are active most rounds, so
// the scheduler's bookkeeping buys nothing.
func BenchmarkEngineDenseFlood(b *testing.B) {
	g := graph.Make(graph.FamilyER, 4096, graph.UnitWeights(), 1)
	benchWaves(b, g, Config{Sequential: true})
}
