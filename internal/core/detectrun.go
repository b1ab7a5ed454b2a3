package core

import (
	"fmt"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// buildTZDetection runs the construction with in-band Section 3.3
// termination detection: no runner intervention happens between Init and
// global quiescence; phase boundaries are driven entirely by the protocol.
func buildTZDetection(g *graph.Graph, opt TZOptions, levels []int) (*TZResult, error) {
	n := g.N()
	nodes := make([]congest.Node, n)
	dns := make([]*detectNode, n)
	for u := 0; u < n; u++ {
		dns[u] = newDetectNode(u, n, opt.K, levels[u])
		nodes[u] = dns[u]
	}
	cfg := opt.Congest
	cfg.Seed = opt.Seed
	if opt.Progress != nil {
		// Phase boundaries are in-band here, invisible to the runner.
		prog := opt.Progress
		cfg.OnRound = func(r int) { prog("detection", r) }
	}
	eng := congest.NewEngine(g, nodes, cfg)
	if _, err := eng.RunUntilQuiescent(); err != nil {
		return nil, fmt.Errorf("core: detection run: %w", err)
	}
	res := &TZResult{Levels: levels}
	res.Labels = make([]*sketch.TZLabel, n)
	res.Cost.PerPhase = make([]congest.Stats, opt.K)
	for u := 0; u < n; u++ {
		nd := dns[u]
		if nd.phase != -1 {
			return nil, fmt.Errorf("core: node %d stuck in phase %d at quiescence", u, nd.phase)
		}
		// harvestPhase accumulated bunch items in arbitrary per-phase
		// order; SetBunch establishes the sorted representation invariant
		// once per label.
		nd.label.SetBunch(nd.items)
		res.Labels[u] = nd.label
		for i := 0; i < opt.K; i++ {
			res.Cost.DataMessages += nd.dataSent[i]
			res.Cost.EchoMessages += nd.echoSent[i]
			res.Cost.PerPhase[i].Messages += nd.dataSent[i] + nd.echoSent[i]
		}
		res.Cost.ControlMessages += nd.controlSent
	}
	root := dns[n-1]
	res.Cost.SetupRounds = root.setupRounds
	// Phase i runs from the root's START(i) until its next transition.
	for i := opt.K - 1; i >= 0; i-- {
		end := root.finishRound
		if i > 0 {
			end = root.phaseStartRound[i-1]
		}
		res.Cost.PerPhase[i].Rounds = end - root.phaseStartRound[i]
	}
	res.Cost.Total = eng.Stats()
	res.Trace = eng.Trace()
	return res, nil
}
