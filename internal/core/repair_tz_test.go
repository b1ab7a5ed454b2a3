package core

// Tests for the TZ repair's two paths: the decrease propagation that
// certified decrease-only batches take, and the endpoint search that
// every other batch keeps.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"distsketch/internal/graph"
	"distsketch/internal/sketch"
	"distsketch/internal/tz"
)

// reweigh returns a copy of g with the weights in repl applied; keys are
// (min, max) endpoint pairs.
func reweigh(t *testing.T, g *graph.Graph, repl map[[2]int]graph.Dist) *graph.Graph {
	t.Helper()
	edits := make([]graph.Edge, 0, len(repl))
	for key, w := range repl {
		edits = append(edits, graph.Edge{U: key[0], V: key[1], Weight: w})
	}
	ng, err := g.Reweighted(edits)
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// decreaseBatch draws size distinct edges of weight at least 2 (fewer if
// g has too few) and lowers each to a weight in [1, w−1], recording the
// old weight.
func decreaseBatch(r *rand.Rand, g *graph.Graph, size int) ([]EdgeChange, map[[2]int]graph.Dist) {
	edges := g.Edges()
	repl := map[[2]int]graph.Dist{}
	var changes []EdgeChange
	for tries := 0; len(changes) < size && tries < 100*size; tries++ {
		e := edges[r.IntN(len(edges))]
		key := [2]int{e.U, e.V}
		if _, dup := repl[key]; dup || e.Weight < 2 {
			continue
		}
		repl[key] = 1 + graph.Dist(r.Int64N(int64(e.Weight-1)))
		changes = append(changes, EdgeChange{U: e.U, V: e.V, PrevWeight: e.Weight})
	}
	return changes, repl
}

func asLabels(ls []*sketch.TZLabel) []sketch.Label {
	out := make([]sketch.Label, len(ls))
	for i, l := range ls {
		out[i] = l
	}
	return out
}

// requireRebuildBytes fails unless every repaired label serializes to the
// same bytes as the rebuild's.
func requireRebuildBytes(t *testing.T, context string, got []sketch.Label, want []*sketch.TZLabel) {
	t.Helper()
	for u := range want {
		if !bytes.Equal(sketch.Marshal(got[u]), sketch.MarshalTZ(want[u])) {
			t.Fatalf("%s: node %d's repaired label differs from the rebuild's", context, u)
		}
	}
}

// changedClusters marks every hierarchy member w whose cluster differs
// between two label sets: some node gains or loses w, or records it at a
// different distance.
func changedClusters(before, after []*sketch.TZLabel) []bool {
	changed := make([]bool, len(before))
	for u := range before {
		a, b := before[u].Bunch, after[u].Bunch
		i, j := 0, 0
		for i < len(a) || j < len(b) {
			switch {
			case j == len(b) || (i < len(a) && a[i].Node < b[j].Node):
				changed[a[i].Node] = true
				i++
			case i == len(a) || b[j].Node < a[i].Node:
				changed[b[j].Node] = true
				j++
			default:
				if a[i].Dist != b[j].Dist {
					changed[a[i].Node] = true
				}
				i++
				j++
			}
		}
	}
	return changed
}

// TestLabelSuspectsComplete checks the label test's completeness
// (repair_tz.go) directly: under strictly decreasing batches, every
// column a rebuild changes is seeded or holds a dart's dropped entry,
// every seeded column does change, and the repair equals the rebuild
// byte for byte. Weights 1–8 make equal-length paths common, so ties in
// distances and thresholds are exercised; each family and k runs a chain
// of batches, each repaired from the previous repair.
func TestLabelSuspectsComplete(t *testing.T) {
	r := rand.New(rand.NewPCG(101, 7))
	for _, f := range graph.AllFamilies() {
		for k := 1; k <= 4; k++ {
			g := graph.Make(f, 96, graph.UniformWeights(1, 8), 101)
			o, err := tz.Build(g, k, 101)
			if err != nil {
				t.Fatal(err)
			}
			labels := o.Labels
			for batch := 0; batch < 5; batch++ {
				changes, repl := decreaseBatch(r, g, 1+r.IntN(6))
				ng := reweigh(t, g, repl)
				rebuilt, err := tz.BuildHierarchy(ng, k, o.Levels)
				if err != nil {
					t.Fatal(err)
				}
				pairs, err := requireDecreases(ng, changes, "tz")
				if err != nil {
					t.Fatal(err)
				}
				pivotDist := tz.LevelDistances(ng, k, o.Levels)
				seeded := make([]bool, len(labels))
				for _, s := range decreaseSeeds(ng, o.Levels, labels, pivotDist, pairs) {
					seeded[s.w] = true
				}
				dropped := make([]bool, len(labels))
				for x, lab := range labels {
					for _, it := range lab.Bunch {
						if it.Dist >= pivotDist[it.Level+1][x] {
							dropped[it.Node] = true
						}
					}
				}
				for w, changed := range changedClusters(labels, rebuilt.Labels) {
					if changed && !seeded[w] && !dropped[w] {
						t.Fatalf("%s k=%d batch %d %v: member %d's cluster changed but it is neither seeded nor dropped by a dart", f, k, batch, changes, w)
					}
					if seeded[w] && !changed {
						t.Fatalf("%s k=%d batch %d %v: member %d is seeded but its cluster did not change", f, k, batch, changes, w)
					}
				}
				res, err := Repair(ng, asLabels(labels), nil, changes, congestDefault())
				if err != nil {
					t.Fatalf("%s k=%d batch %d: %v", f, k, batch, err)
				}
				requireRebuildBytes(t, string(f), res.Labels, rebuilt.Labels)
				for u, l := range res.Labels {
					labels[u] = l.(*sketch.TZLabel)
				}
				g = ng
			}
		}
	}
}

// TestRepairTZUncertifiedTakesEndpointSearch: a batch with one change of
// unknown direction (PrevWeight 0) and a batch with one increase are not
// certified decrease-only, so they keep the endpoint search and end as it
// does: with the endpoint search's labels and regrowth count when those
// verify (then equal to the rebuild), or with ErrUnsound. Both endings
// occur over the trials.
func TestRepairTZUncertifiedTakesEndpointSearch(t *testing.T) {
	r := rand.New(rand.NewPCG(102, 7))
	repaired, rejected := 0, 0
	for _, f := range graph.AllFamilies() {
		for trial := 0; trial < 6; trial++ {
			k := 2 + trial%2
			g := graph.Make(f, 48, graph.UniformWeights(2, 20), uint64(102+trial))
			o, err := tz.Build(g, k, 102)
			if err != nil {
				t.Fatal(err)
			}
			changes, repl := decreaseBatch(r, g, 1+r.IntN(4))
			name := "unknown direction"
			if trial < 3 {
				changes[0].PrevWeight = 0
			} else {
				name = "increase"
				repl[[2]int{changes[0].U, changes[0].V}] = 20 * changes[0].PrevWeight
			}
			ng := reweigh(t, g, repl)

			want, err := repairHierarchy(ng, k, o.Levels, o.Labels, endpointSearch(ng, endpointPairs(changes)), false)
			if err != nil {
				t.Fatal(err)
			}
			verr := verifyHierarchyExact(ng, o.Levels, want.labels, want.pivotDist)
			res, err := Repair(ng, asLabels(o.Labels), nil, changes, congestDefault())
			if verr != nil {
				if !errors.Is(err, ErrUnsound) {
					t.Fatalf("%s trial %d (%s): endpoint search fails verification (%v), Repair returned %v, want ErrUnsound", f, trial, name, verr, err)
				}
				rejected++
				continue
			}
			if err != nil {
				t.Fatalf("%s trial %d (%s): endpoint search verifies, Repair failed: %v", f, trial, name, err)
			}
			if res.ClustersRegrown != want.regrown {
				t.Errorf("%s trial %d (%s): regrew %d clusters, the endpoint search regrows %d", f, trial, name, res.ClustersRegrown, want.regrown)
			}
			rebuilt, err := tz.BuildHierarchy(ng, k, o.Levels)
			if err != nil {
				t.Fatal(err)
			}
			requireRebuildBytes(t, name, res.Labels, rebuilt.Labels)
			repaired++
		}
	}
	if repaired == 0 || rejected == 0 {
		t.Errorf("uncertified batches: %d repaired, %d rejected; want both endings exercised", repaired, rejected)
	}
}

// TestRepairTZLabelTestRegrowsFewer: on one fixed geometric decrease
// batch, the certified batch (label test) regrows strictly fewer clusters
// than the same batch with PrevWeight unknown (endpoint search), and both
// equal the rebuild.
func TestRepairTZLabelTestRegrowsFewer(t *testing.T) {
	const k = 3
	g := graph.Make(graph.FamilyGeometric, 256, graph.UniformWeights(1, 100), 103)
	o, err := tz.Build(g, k, 103)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(103, 7))
	changes, repl := decreaseBatch(r, g, 16)
	ng := reweigh(t, g, repl)
	rebuilt, err := tz.BuildHierarchy(ng, k, o.Levels)
	if err != nil {
		t.Fatal(err)
	}
	certified, err := Repair(ng, asLabels(o.Labels), nil, changes, congestDefault())
	if err != nil {
		t.Fatal(err)
	}
	requireRebuildBytes(t, "certified", certified.Labels, rebuilt.Labels)
	unknown := append([]EdgeChange(nil), changes...)
	for i := range unknown {
		unknown[i].PrevWeight = 0
	}
	endpoint, err := Repair(ng, asLabels(o.Labels), nil, unknown, congestDefault())
	if err != nil {
		t.Fatal(err)
	}
	requireRebuildBytes(t, "unknown direction", endpoint.Labels, rebuilt.Labels)
	if certified.ClustersRegrown >= endpoint.ClustersRegrown {
		t.Errorf("label test regrew %d clusters, endpoint search %d; want strictly fewer", certified.ClustersRegrown, endpoint.ClustersRegrown)
	}
	t.Logf("clusters regrown: label test %d, endpoint search %d", certified.ClustersRegrown, endpoint.ClustersRegrown)
}

// TestRepairTZLocalCheckMatchesFull runs chains of batches through the
// graph the repair keeps, as SketchSet.UpdateEdges does: every graph
// family, k = 1..4, weights 1–8 and 1–100, every other batch holding one
// increase. Every repair of a decrease-only batch verifies and equals the
// rebuild byte for byte, and so does every repair of an increase batch
// that the whole-graph check accepts. On each candidate result, and on
// the result with one label corrupted at a changed edge's endpoint and at
// a node elsewhere, the local check reaches the whole-graph check's
// verdict.
func TestRepairTZLocalCheckMatchesFull(t *testing.T) {
	r := rand.New(rand.NewPCG(104, 7))
	ran, rejected, local := map[string]int{}, 0, 0
	for _, f := range graph.AllFamilies() {
		for k := 1; k <= 4; k++ {
			for _, maxW := range []graph.Dist{8, 100} {
				base := graph.Make(f, 96, graph.UniformWeights(1, maxW), uint64(104+k))
				o, err := tz.Build(base, k, 104)
				if err != nil {
					t.Fatal(err)
				}
				labels := slices.Clone(o.Labels)
				for batch := 0; batch < 4; batch++ {
					name := fmt.Sprintf("%s k=%d w≤%d batch %d", f, k, maxW, batch)
					changes, repl := decreaseBatch(r, base, 1+r.IntN(6))
					increase := batch%2 == 1
					if increase {
						c := changes[r.IntN(len(changes))]
						repl[[2]int{c.U, c.V}] = c.PrevWeight + 1 + graph.Dist(r.IntN(int(2*c.PrevWeight)))
					}
					ng := reweigh(t, base, repl)
					rebuilt, err := tz.BuildHierarchy(ng, k, o.Levels)
					if err != nil {
						t.Fatal(err)
					}
					hr, err := repairTZHierarchy(ng, k, o.Levels, labels, changes)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					verdicts := func(what string, cand []*sketch.TZLabel) error {
						t.Helper()
						full := verifyHierarchyExact(ng, o.Levels, cand, hr.pivotDist)
						loc := verifyHierarchyLocal(ng, o.Levels, labels, cand, hr.pivotDist, changes)
						if (full == nil) != (loc == nil) {
							t.Fatalf("%s, %s: whole-graph check says %v, local check says %v", name, what, full, loc)
						}
						return full
					}
					full := verdicts("repair", hr.labels)
					if full != nil && !increase {
						t.Fatalf("%s: decrease-only repair failed verification: %v", name, full)
					}

					endpoint := changes[r.IntN(len(changes))].V
					elsewhere := r.IntN(len(labels))
					for _, c := range localCorruptions {
						for _, at := range []struct {
							where string
							u     int
						}{{"endpoint", endpoint}, {"elsewhere", elsewhere}} {
							cand := slices.Clone(hr.labels)
							if cand[at.u] = c.apply(r, labels[at.u], cand[at.u]); cand[at.u] == nil {
								continue // nothing to corrupt here
							}
							ran[c.name+" at "+at.where]++
							if verdicts(fmt.Sprintf("%s at %s %d", c.name, at.where, at.u), cand) != nil {
								rejected++
							}
						}
					}

					res, err := Repair(ng, asLabels(labels), &Prior{Graph: base}, changes, congestDefault())
					if full != nil {
						if !errors.Is(err, ErrUnsound) {
							t.Fatalf("%s: candidate fails verification (%v), Repair returned %v, want ErrUnsound", name, full, err)
						}
						labels = rebuilt.Labels // what a caller's rebuild yields
					} else {
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !res.LocalCheck {
							t.Fatalf("%s: repair through the kept graph took the whole-graph check", name)
						}
						local++
						requireRebuildBytes(t, name, res.Labels, rebuilt.Labels)
						for u, l := range res.Labels {
							labels[u] = l.(*sketch.TZLabel)
						}
					}
					base = ng
				}
			}
		}
	}
	for _, c := range localCorruptions {
		for _, where := range []string{"endpoint", "elsewhere"} {
			if ran[c.name+" at "+where] < 20 {
				t.Errorf("corruption %q at %s applied %d times, want ≥ 20", c.name, where, ran[c.name+" at "+where])
			}
		}
	}
	t.Logf("corruptions applied %v; %d rejected; %d repairs checked locally", ran, rejected, local)
	if rejected == 0 || local == 0 {
		t.Errorf("%d corrupted results rejected, %d repairs checked locally; want both", rejected, local)
	}
}

// localCorruptions rewrite one node's repaired label. apply returns nil
// when the node offers no target.
var localCorruptions = []struct {
	name  string
	apply func(r *rand.Rand, old, repaired *sketch.TZLabel) *sketch.TZLabel
}{
	{"entry raised", func(r *rand.Rand, _, l *sketch.TZLabel) *sketch.TZLabel {
		return editBunch(r, l, func(b []sketch.BunchItem, i int) []sketch.BunchItem { b[i].Dist++; return b })
	}},
	{"entry lowered", func(r *rand.Rand, _, l *sketch.TZLabel) *sketch.TZLabel {
		return editBunch(r, l, func(b []sketch.BunchItem, i int) []sketch.BunchItem { b[i].Dist--; return b })
	}},
	{"entry removed", func(r *rand.Rand, _, l *sketch.TZLabel) *sketch.TZLabel {
		return editBunch(r, l, func(b []sketch.BunchItem, i int) []sketch.BunchItem { return slices.Delete(b, i, i+1) })
	}},
	// The node's repair undone: its label is the old one again, so only
	// the checks at endpoints, at darts and around changed entries see it.
	{"repair undone", func(_ *rand.Rand, old, l *sketch.TZLabel) *sketch.TZLabel {
		if old == l {
			return nil
		}
		return old
	}},
}

// editBunch returns a copy of l whose bunch edit rewrote at a random
// entry, or nil when the bunch is empty.
func editBunch(r *rand.Rand, l *sketch.TZLabel, edit func(b []sketch.BunchItem, i int) []sketch.BunchItem) *sketch.TZLabel {
	if len(l.Bunch) == 0 {
		return nil
	}
	return &sketch.TZLabel{Owner: l.Owner, K: l.K, Pivots: l.Pivots, Bunch: edit(slices.Clone(l.Bunch), r.IntN(len(l.Bunch)))}
}
