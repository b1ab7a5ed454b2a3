package core

import (
	"fmt"
	"math"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// TZOptions configures the distributed Thorup–Zwick construction.
type TZOptions struct {
	// K is the hierarchy depth; stretch is 2K-1 (Theorem 1.1). Must be ≥ 1.
	K int
	// Seed drives all coin flips (hierarchy sampling and simulator RNG).
	Seed uint64
	// Mode selects phase synchronization (see SyncMode).
	Mode SyncMode
	// S is the shortest-path diameter, required for SyncAnalytic (the
	// paper's assumption that every node knows S; Section 3.2).
	S int
	// Levels optionally fixes the hierarchy (levels[u] = top level of u,
	// -1 for nodes outside A_0). When nil, the standard hierarchy is
	// sampled with probability n^{-1/k} from the shared coin streams.
	Levels []int
	// Batch enables the bandwidth-B generalization (Section 2.2's "if B
	// bits are allowed"): up to Batch announcements travel in one
	// message of 1+2·Batch words. 0 or 1 is the standard model.
	// Omniscient/analytic modes only.
	Batch int
	// Congest tunes the simulator (sequential mode, message budget).
	Congest congest.Config
	// Progress, when non-nil, is invoked after every simulated round with
	// the name of the construction phase being executed and the
	// engine-local round number. It overrides Congest.OnRound.
	Progress func(phase string, round int)
}

// TZResult is the outcome of a distributed sketch construction.
type TZResult struct {
	Labels []*sketch.TZLabel
	Levels []int
	Cost   CostBreakdown
	// Trace is the per-round traffic series (only when Congest.Trace).
	Trace []congest.RoundStat
}

// MaxLabelWords returns the largest label size in words.
func (r *TZResult) MaxLabelWords() int {
	m := 0
	for _, l := range r.Labels {
		if s := l.SizeWords(); s > m {
			m = s
		}
	}
	return m
}

// MeanLabelWords returns the average label size in words.
func (r *TZResult) MeanLabelWords() float64 {
	t := 0
	for _, l := range r.Labels {
		t += l.SizeWords()
	}
	return float64(t) / float64(len(r.Labels))
}

// Query estimates d(u,v) from the two labels (Lemma 3.2).
func (r *TZResult) Query(u, v int) graph.Dist {
	return sketch.QueryTZ(r.Labels[u], r.Labels[v])
}

// lemma36Const is the constant of Lemma 3.6: |B_i(u)| ≤ 3·n^{1/k}·ln n
// whp.
const lemma36Const = 3

// AnalyticPhaseBound returns the per-phase round bound from Theorem 3.8:
// lemma36Const · max(1, hierarchySize^{1/k}·ln(hierarchySize)) · S
// rounds, where hierarchySize is |A_0| (n for the standard construction;
// the net size for CDG). This is what a node that knows S would wait per
// phase.
func AnalyticPhaseBound(hierarchySize, k, s int) int {
	h := float64(hierarchySize)
	if h < 2 {
		h = 2
	}
	queueBound := math.Pow(h, 1/float64(k)) * math.Log(h)
	if queueBound < 1 {
		queueBound = 1
	}
	return int(math.Ceil(lemma36Const*queueBound*float64(s))) + 1
}

// BuildTZ runs the distributed Thorup–Zwick construction of Section 3 on
// g and returns every node's label along with the cost accounting.
func BuildTZ(g *graph.Graph, opt TZOptions) (*TZResult, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", opt.K)
	}
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	levels := opt.Levels
	if levels == nil {
		levels = sketch.SampleLevels(n, opt.K, sketch.HierarchyProb(n, opt.K), opt.Seed)
	}
	if len(levels) != n {
		return nil, fmt.Errorf("core: %d levels for n=%d", len(levels), n)
	}
	if opt.Mode == SyncDetection {
		if opt.Batch > 1 {
			return nil, fmt.Errorf("core: bandwidth batching is not implemented for detection mode")
		}
		return buildTZDetection(g, opt, levels)
	}
	return buildTZPhased(g, opt, levels)
}

// buildTZPhased runs phases k-1..0 with runner-driven (omniscient or
// analytic) synchronization.
func buildTZPhased(g *graph.Graph, opt TZOptions, levels []int) (*TZResult, error) {
	n := g.N()
	hierSize := 0
	for _, l := range levels {
		if l >= 0 {
			hierSize++
		}
	}
	nodes := make([]congest.Node, n)
	tzs := make([]*tzNode, n)
	for u := 0; u < n; u++ {
		tzs[u] = newTZNode(u, opt.K, levels[u], opt.Batch)
		nodes[u] = tzs[u]
	}
	cfg := opt.Congest
	cfg.Seed = opt.Seed
	if opt.Batch > 1 && cfg.MaxWords < 1+2*opt.Batch {
		cfg.MaxWords = 1 + 2*opt.Batch
	}
	var curPhase string
	if opt.Progress != nil {
		prog := opt.Progress
		cfg.OnRound = func(r int) { prog(curPhase, r) }
	}
	eng := congest.NewEngine(g, nodes, cfg)
	eng.Init()

	res := &TZResult{Levels: levels}
	res.Cost.PerPhase = make([]congest.Stats, opt.K)
	for phase := opt.K - 1; phase >= 0; phase-- {
		curPhase = fmt.Sprintf("phase %d", phase)
		before := eng.Stats()
		anySource := false
		for u := 0; u < n; u++ {
			tzs[u].startPhase(phase)
			if levels[u] == phase {
				eng.Wake(u)
				anySource = true
			}
		}
		if anySource {
			switch opt.Mode {
			case SyncOmniscient:
				if _, err := eng.RunUntilQuiescent(); err != nil {
					return nil, fmt.Errorf("core: phase %d: %w", phase, err)
				}
			case SyncAnalytic:
				if opt.S <= 0 {
					return nil, fmt.Errorf("core: analytic mode requires S > 0")
				}
				bound := AnalyticPhaseBound(hierSize, opt.K, opt.S)
				if err := eng.RunRounds(bound); err != nil {
					return nil, fmt.Errorf("core: phase %d: %w", phase, err)
				}
				if !eng.Quiescent() {
					return nil, fmt.Errorf("core: phase %d did not converge within analytic bound %d rounds — Lemma 3.6 constant too small for this instance", phase, bound)
				}
			default:
				return nil, fmt.Errorf("core: unsupported mode %v", opt.Mode)
			}
		}
		for u := 0; u < n; u++ {
			tzs[u].finishPhase()
		}
		res.Cost.PerPhase[phase] = eng.Stats().Sub(before)
	}
	res.Labels = make([]*sketch.TZLabel, n)
	for u := 0; u < n; u++ {
		// Phases accumulated bunch items in the order each phase first
		// accepted their sources; SetBunch establishes the sorted
		// representation invariant once per label.
		tzs[u].label.SetBunch(tzs[u].items)
		res.Labels[u] = tzs[u].label
	}
	res.Cost.Total = eng.Stats()
	res.Cost.DataMessages = eng.Stats().Messages
	res.Trace = eng.Trace()
	return res, nil
}
