package experiments

import "distsketch/internal/graph"

// Scale selects how large the sweeps are.
type Scale int

const (
	// Quick keeps every experiment under a couple of seconds (used by
	// tests and iterating developers).
	Quick Scale = iota
	// Full is the sweep of `sketchbench -scale full`: six families, n up
	// to 512, three seeds.
	Full
)

// Config parameterizes the sweeps shared by the experiments.
type Config struct {
	Families []graph.Family
	Sizes    []int
	Ks       []int
	Epsilons []float64
	Seeds    int
}

// NewConfig returns the sweep configuration for a scale.
func NewConfig(s Scale) Config {
	switch s {
	case Full:
		return Config{
			Families: []graph.Family{
				graph.FamilyER, graph.FamilyGeometric, graph.FamilyGrid,
				graph.FamilyBA, graph.FamilySmallWorld, graph.FamilyInternet,
			},
			Sizes:    []int{64, 128, 256, 512},
			Ks:       []int{2, 3, 4},
			Epsilons: []float64{0.5, 0.25, 0.125},
			Seeds:    3,
		}
	default:
		return Config{
			Families: []graph.Family{graph.FamilyER, graph.FamilyGrid},
			Sizes:    []int{64, 128},
			Ks:       []int{2, 3},
			Epsilons: []float64{0.5, 0.25},
			Seeds:    2,
		}
	}
}
