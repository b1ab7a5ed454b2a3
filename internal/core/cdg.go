package core

import (
	"fmt"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
	"distsketch/internal/tz"
)

// Distributed constructions of the Section 4 slack sketches. These run
// under omniscient step synchronization: the runner starts each stage
// (density-net coin flips, super-node Bellman–Ford, net Thorup–Zwick,
// label shipping) when the previous one has quiesced, which corresponds
// to the paper's "every node knows S" assumption; Section 3.3-style
// detection could synchronize the stages in-band at the usual ≤2×
// overhead, which we measure separately for the TZ phases (E6).

// SlackOptions configures the landmark, CDG and graceful constructions.
type SlackOptions struct {
	// Eps is the slack parameter ε ∈ (0, 1].
	Eps float64
	// K is the hierarchy depth for CDG sketches (stretch 8K-1). Ignored
	// by BuildLandmark.
	K int
	// Seed drives all coins.
	Seed uint64
	// Instance selects the coin-stream salts (0 for standalone sketches;
	// the graceful construction uses 1..⌈log n⌉).
	Instance int
	// Congest tunes the simulator.
	Congest congest.Config
	// Progress, when non-nil, is invoked after every simulated round with
	// the name of the construction stage being executed and the
	// engine-local round number. It overrides Congest.OnRound.
	Progress func(phase string, round int)
}

// LandmarkResult is the outcome of the distributed Theorem 4.3
// construction.
type LandmarkResult struct {
	Labels []*sketch.LandmarkLabel
	Net    []int
	Cost   CostBreakdown
}

// Query estimates d(u,v) via the best common landmark (Theorem 4.3).
func (r *LandmarkResult) Query(u, v int) graph.Dist {
	return sketch.QueryLandmark(r.Labels[u], r.Labels[v])
}

// MaxLabelWords returns the largest landmark label in words.
func (r *LandmarkResult) MaxLabelWords() int {
	m := 0
	for _, l := range r.Labels {
		if s := l.SizeWords(); s > m {
			m = s
		}
	}
	return m
}

// BuildLandmark runs the distributed Theorem 4.3 construction: sample an
// ε-density net by local coin flips (Lemma 4.2: constant time), then run
// the |N|-source Bellman–Ford so every node learns its distance to every
// net node. This is exactly the k=1 subset-hierarchy Thorup–Zwick run
// (threshold ∞, sources = N), so it reuses Algorithm 2's machinery.
func BuildLandmark(g *graph.Graph, opt SlackOptions) (*LandmarkResult, error) {
	n := g.N()
	if opt.Eps <= 0 || opt.Eps > 1 {
		return nil, fmt.Errorf("core: eps must be in (0,1], got %g", opt.Eps)
	}
	netSalt, _ := tz.NetSalts(opt.Instance)
	levels := make([]int, n)
	for u := 0; u < n; u++ {
		levels[u] = -1
		if sketch.InDensityNet(opt.Seed, netSalt, u, n, opt.Eps) {
			levels[u] = 0
		}
	}
	var net []int
	for u, l := range levels {
		if l == 0 {
			net = append(net, u)
		}
	}
	if len(net) == 0 {
		return nil, fmt.Errorf("core: empty density net (n=%d eps=%g seed=%d)", n, opt.Eps, opt.Seed)
	}
	var prog func(string, int)
	if opt.Progress != nil {
		p := opt.Progress
		// The inner k=1 run's phase name is always "phase 0"; report the
		// construction's own name instead.
		prog = func(_ string, r int) { p("landmark", r) }
	}
	res, err := BuildTZ(g, TZOptions{
		K: 1, Seed: opt.Seed, Mode: SyncOmniscient, Levels: levels, Congest: opt.Congest,
		Progress: prog,
	})
	if err != nil {
		return nil, err
	}
	out := &LandmarkResult{Net: net, Cost: res.Cost}
	out.Labels = make([]*sketch.LandmarkLabel, n)
	for u := 0; u < n; u++ {
		// The harvested bunch is already canonical (sorted ascending,
		// unique), so the landmark entries come out sorted by a single
		// merge pass: copy the bunch, splicing the net node's own 0-entry
		// into its ID position (and dropping any stale self entry).
		bunch := res.Labels[u].Bunch
		entries := make([]sketch.Entry, 0, len(bunch)+1)
		selfDone := levels[u] != 0
		for _, it := range bunch {
			if !selfDone && u <= it.Node {
				entries = append(entries, sketch.Entry{Net: u, D: 0})
				selfDone = true
			}
			if it.Node == u {
				continue
			}
			entries = append(entries, sketch.Entry{Net: it.Node, D: it.Dist})
		}
		if !selfDone {
			entries = append(entries, sketch.Entry{Net: u, D: 0})
		}
		out.Labels[u] = sketch.NewLandmarkLabelFromEntries(u, entries)
	}
	return out, nil
}

// CDGResult is the outcome of the distributed Theorem 4.6 construction.
type CDGResult struct {
	Labels []*sketch.CDGLabel
	Net    []int
	Cost   CostBreakdown
	// Stage costs (rounds/messages per pipeline stage).
	WaveCost congest.Stats // super-node Bellman–Ford
	TZCost   congest.Stats // Thorup–Zwick over the net
	ShipCost congest.Stats // label shipping down the Voronoi forest
}

// Query estimates d(u,v) through the two nearest net nodes (Lemma 4.4).
func (r *CDGResult) Query(u, v int) graph.Dist {
	return sketch.QueryCDG(r.Labels[u], r.Labels[v])
}

// MaxLabelWords returns the largest CDG label in words.
func (r *CDGResult) MaxLabelWords() int {
	m := 0
	for _, l := range r.Labels {
		if s := l.SizeWords(); s > m {
			m = s
		}
	}
	return m
}

// BuildCDG runs the distributed (ε,k)-CDG construction of Lemma 4.5:
//
//  1. Every node joins the density net with probability 5·ln n/(εn)
//     (local coin; Lemma 4.2).
//  2. Super-node Bellman–Ford from the whole net: every node learns its
//     nearest net node u', d(u,u'), and its Voronoi-forest parent.
//  3. Thorup–Zwick (Algorithm 2) over the net hierarchy, sampled with
//     probability ((10/ε)·ln n)^{-1/k}: every net node learns its label.
//  4. Each net node ships its label down its Voronoi cell, giving every
//     node the label of its nearest net node.
func BuildCDG(g *graph.Graph, opt SlackOptions) (*CDGResult, error) {
	n := g.N()
	if opt.Eps <= 0 || opt.Eps > 1 {
		return nil, fmt.Errorf("core: eps must be in (0,1], got %g", opt.Eps)
	}
	if opt.K < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", opt.K)
	}
	netSalt, tzSalt := tz.NetSalts(opt.Instance)

	// Stage 1: local coins.
	isNet := make([]bool, n)
	var net []int
	for u := 0; u < n; u++ {
		if sketch.InDensityNet(opt.Seed, netSalt, u, n, opt.Eps) {
			isNet[u] = true
			net = append(net, u)
		}
	}
	if len(net) == 0 {
		return nil, fmt.Errorf("core: empty density net (n=%d eps=%g seed=%d)", n, opt.Eps, opt.Seed)
	}

	cfg := opt.Congest
	cfg.Seed = opt.Seed
	// stageCfg tags each stage's engine with a named progress hook.
	stageCfg := func(stage string) congest.Config {
		c := cfg
		if opt.Progress != nil {
			p := opt.Progress
			c.OnRound = func(r int) { p(stage, r) }
		}
		return c
	}

	// Stage 2: super-node wave.
	waves := make([]*waveNode, n)
	nodes := make([]congest.Node, n)
	for u := 0; u < n; u++ {
		waves[u] = newWaveNode(u, isNet[u])
		nodes[u] = waves[u]
	}
	eng := congest.NewEngine(g, nodes, stageCfg("cdg wave"))
	if _, err := eng.RunUntilQuiescent(); err != nil {
		return nil, fmt.Errorf("core: super-node wave: %w", err)
	}
	waveCost := eng.Stats()

	// Stage 2b: child discovery (one round, ≤ n messages).
	adopts := make([]*adoptNode, n)
	for u := 0; u < n; u++ {
		adopts[u] = &adoptNode{parentIdx: waves[u].parentIdx}
		nodes[u] = adopts[u]
	}
	eng = congest.NewEngine(g, nodes, stageCfg("cdg adopt"))
	if _, err := eng.RunUntilQuiescent(); err != nil {
		return nil, fmt.Errorf("core: adopt round: %w", err)
	}
	waveCost = waveCost.Add(eng.Stats())

	// Stage 3: Thorup–Zwick over the net.
	levels := make([]int, n)
	q := sketch.NetHierarchyProb(n, opt.Eps, opt.K)
	for u := 0; u < n; u++ {
		levels[u] = -1
		if isNet[u] {
			levels[u] = sketch.TopLevelFromRNG(sketch.NodeRNG(opt.Seed, tzSalt, u), opt.K, q)
		}
	}
	var tzProg func(string, int)
	if opt.Progress != nil {
		p := opt.Progress
		tzProg = func(phase string, r int) { p("cdg net-tz "+phase, r) }
	}
	tzRes, err := BuildTZ(g, TZOptions{
		K: opt.K, Seed: opt.Seed, Mode: SyncOmniscient, Levels: levels, Congest: cfg,
		Progress: tzProg,
	})
	if err != nil {
		return nil, fmt.Errorf("core: net Thorup–Zwick: %w", err)
	}

	// Stage 4: ship each net node's label down its cell tree. Chunks are
	// 5 words; raise the per-message budget accordingly (still O(log n)
	// bits).
	shipCfg := stageCfg("cdg ship")
	if shipCfg.MaxWords < 5 {
		shipCfg.MaxWords = 5
	}
	ships := make([]*shipNode, n)
	for u := 0; u < n; u++ {
		s := &shipNode{
			id:       u,
			k:        opt.K,
			owner:    waves[u].bestSrc,
			isNet:    isNet[u],
			children: adopts[u].children,
		}
		if isNet[u] {
			s.label = tzRes.Labels[u]
		}
		ships[u] = s
		nodes[u] = ships[u]
	}
	eng = congest.NewEngine(g, nodes, shipCfg)
	if _, err := eng.RunUntilQuiescent(); err != nil {
		return nil, fmt.Errorf("core: label shipping: %w", err)
	}
	shipCost := eng.Stats()
	for u := 0; u < n; u++ {
		if !ships[u].complete() {
			return nil, fmt.Errorf("core: node %d did not receive its net label", u)
		}
	}

	res := &CDGResult{
		Net:      net,
		WaveCost: waveCost,
		TZCost:   tzRes.Cost.Total,
		ShipCost: shipCost,
	}
	res.Cost.Total = waveCost.Add(tzRes.Cost.Total).Add(shipCost)
	res.Cost.PerPhase = tzRes.Cost.PerPhase
	res.Labels = make([]*sketch.CDGLabel, n)
	for u := 0; u < n; u++ {
		res.Labels[u] = &sketch.CDGLabel{
			Owner:    u,
			Eps:      opt.Eps,
			NetNode:  waves[u].bestSrc,
			NetDist:  waves[u].best,
			NetLabel: ships[u].label,
		}
	}
	return res, nil
}

// GracefulResult is the outcome of the distributed Theorem 4.8
// construction.
type GracefulResult struct {
	Labels []*sketch.GracefulLabel
	Cost   CostBreakdown
	// PerLevel[i] is the cost of the (ε=2^{-(i+1)}) CDG instance.
	PerLevel []congest.Stats
}

// Query returns the minimum estimate over the slack levels (Theorem 4.8).
func (r *GracefulResult) Query(u, v int) graph.Dist {
	return sketch.QueryGraceful(r.Labels[u], r.Labels[v])
}

// MaxLabelWords returns the largest graceful label in words.
func (r *GracefulResult) MaxLabelWords() int {
	m := 0
	for _, l := range r.Labels {
		if s := l.SizeWords(); s > m {
			m = s
		}
	}
	return m
}

// BuildGraceful runs the distributed gracefully degrading construction:
// the (ε_i, k_i)-CDG instances for ε_i = 2^{-i}, k_i = i, i = 1..⌈log n⌉,
// executed back to back (Theorem 4.8). Of opt only Seed, Congest and
// Progress are used; Eps, K and Instance are fixed per level by the
// construction itself.
func BuildGraceful(g *graph.Graph, opt SlackOptions) (*GracefulResult, error) {
	n := g.N()
	L := sketch.GracefulLevels(n)
	res := &GracefulResult{PerLevel: make([]congest.Stats, L)}
	res.Labels = make([]*sketch.GracefulLabel, n)
	for u := 0; u < n; u++ {
		res.Labels[u] = &sketch.GracefulLabel{Owner: u}
	}
	for i := 1; i <= L; i++ {
		eps := 1.0 / float64(int64(1)<<uint(i))
		var prog func(string, int)
		if opt.Progress != nil {
			p := opt.Progress
			level := i
			prog = func(stage string, r int) { p(fmt.Sprintf("level %d %s", level, stage), r) }
		}
		cdg, err := BuildCDG(g, SlackOptions{
			Eps: eps, K: sketch.GracefulK(i), Seed: opt.Seed, Instance: i, Congest: opt.Congest,
			Progress: prog,
		})
		if err != nil {
			return nil, fmt.Errorf("core: graceful level %d: %w", i, err)
		}
		res.PerLevel[i-1] = cdg.Cost.Total
		res.Cost.Total = res.Cost.Total.Add(cdg.Cost.Total)
		for u := 0; u < n; u++ {
			res.Labels[u].Levels = append(res.Labels[u].Levels, cdg.Labels[u])
		}
	}
	return res, nil
}
