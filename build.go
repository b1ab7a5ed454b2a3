package distsketch

import (
	"context"
	"fmt"

	"distsketch/internal/congest"
	"distsketch/internal/core"
)

// Build constructs distance sketches for every node of g in a simulated
// CONGEST network. It is BuildContext with a background context.
func Build(g *Graph, opts Options) (*SketchSet, error) {
	return BuildContext(context.Background(), g, opts)
}

// BuildContext is Build with cancellation: when ctx is canceled (or its
// deadline passes) the simulation stops at the next round boundary and
// the error wraps ctx.Err(). Combined with Options.Progress this makes
// long constructions observable and abortable.
func BuildContext(ctx context.Context, g *Graph, opts Options) (*SketchSet, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("distsketch: build canceled: %w", err)
	}
	cfg := congest.Config{Sequential: o.Sequential, MaxDelay: o.MaxDelay, Ctx: ctx}
	switch o.Kind {
	case KindTZ:
		mode := core.SyncOmniscient
		if o.Detection {
			mode = core.SyncDetection
		}
		res, err := core.BuildTZ(g, core.TZOptions{
			K: o.K, Seed: o.Seed, Mode: mode, Batch: o.BandwidthBatch, Congest: cfg,
			Progress: o.Progress,
		})
		if err != nil {
			return nil, err
		}
		set := &SketchSet{kind: KindTZ, labels: builtStore(KindTZ, res.Labels), cost: costOf(res.Cost)}
		// Execution order is phase k-1 down to 0.
		for phase := o.K - 1; phase >= 0; phase-- {
			set.cost.Phases = append(set.cost.Phases, PhaseCost{
				Name:  fmt.Sprintf("phase %d", phase),
				Stats: res.Cost.PerPhase[phase],
			})
		}
		return set, nil
	case KindLandmark:
		res, err := core.BuildLandmark(g, core.SlackOptions{
			Eps: o.Eps, Seed: o.Seed, Congest: cfg, Progress: o.Progress,
		})
		if err != nil {
			return nil, err
		}
		set := &SketchSet{kind: KindLandmark, labels: builtStore(KindLandmark, res.Labels), cost: costOf(res.Cost), net: res.Net}
		set.cost.Phases = []PhaseCost{{Name: "landmark", Stats: res.Cost.Total}}
		return set, nil
	case KindCDG:
		res, err := core.BuildCDG(g, core.SlackOptions{
			Eps: o.Eps, K: o.K, Seed: o.Seed, Congest: cfg, Progress: o.Progress,
		})
		if err != nil {
			return nil, err
		}
		set := &SketchSet{kind: KindCDG, labels: builtStore(KindCDG, res.Labels), cost: costOf(res.Cost)}
		set.cost.Phases = []PhaseCost{
			{Name: "wave", Stats: res.WaveCost},
			{Name: "net-tz", Stats: res.TZCost},
			{Name: "ship", Stats: res.ShipCost},
		}
		return set, nil
	case KindGraceful:
		res, err := core.BuildGraceful(g, core.SlackOptions{
			Seed: o.Seed, Congest: cfg, Progress: o.Progress,
		})
		if err != nil {
			return nil, err
		}
		set := &SketchSet{kind: KindGraceful, labels: builtStore(KindGraceful, res.Labels), cost: costOf(res.Cost)}
		for i, st := range res.PerLevel {
			set.cost.Phases = append(set.cost.Phases, PhaseCost{
				Name:  fmt.Sprintf("level %d", i+1),
				Stats: st,
			})
		}
		return set, nil
	default:
		return nil, fmt.Errorf("distsketch: unknown kind %q", o.Kind)
	}
}

// costOf converts the internal cost accounting to the public breakdown
// (phases are filled per kind by the caller).
func costOf(c core.CostBreakdown) CostBreakdown {
	return CostBreakdown{
		Total:           c.Total,
		DataMessages:    c.DataMessages,
		EchoMessages:    c.EchoMessages,
		ControlMessages: c.ControlMessages,
		SetupRounds:     c.SetupRounds,
	}
}
