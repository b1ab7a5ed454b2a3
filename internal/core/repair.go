package core

import (
	"errors"
	"fmt"

	"distsketch/internal/congest"
	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// Batched repair: the one code path behind SketchSet.UpdateEdges. All
// four sketch kinds flow through Repair, which dispatches on the label
// type, repairs the whole batch in one pass, verifies the result where a
// complete check exists, and shares unchanged labels pointer-identically
// with the input.
//
// Soundness is per kind:
//
//   - Landmark: the warm-start wave of UpdateLandmark plus the exact
//     Bellman–Ford fixed-point check of VerifyLandmarkExact. Arbitrary
//     weight changes are accepted; a batch whose result is not exact
//     (an effective increase) reports ErrUnsound.
//   - TZ: the decrease propagation of propagateDecreases for certified
//     decrease-only batches, the suspect-cluster repair of
//     repairHierarchy for every other batch, and then the exact
//     truncated-cluster fixed-point check of verifyHierarchyExact — or
//     its local form, verifyHierarchyLocal, when the caller's graph is
//     the one the labels were last verified on except at the changed
//     edges. Arbitrary weight changes are accepted on the same terms.
//   - CDG and graceful: the same suspect-cluster repair, applied to the
//     Thorup–Zwick hierarchy that lives on the density net. These labels
//     cover only net members, so no complete post-hoc verification is
//     possible from the sketch set alone; soundness instead comes from
//     the decrease-only suspect theorem (see repair_tz.go), which
//     requires certifying the change direction — every EdgeChange must
//     carry its PrevWeight, and any increase reports ErrUnsound.
//
// Repair derives all structure (hierarchy levels, density-net
// membership, k) from the labels themselves rather than re-flipping
// coins: the coin streams are weight-independent, so a rebuild on the
// mutated graph samples the identical structure, and a repair that keeps
// the structure while recomputing exact distances reproduces the rebuild
// byte for byte. That derivation trusts labels produced by Build or a
// valid envelope; adversarially inconsistent labels are rejected with an
// error when detected, but the byte-identity guarantee only covers
// well-formed input.

// EdgeChange identifies one edge of the new topology whose weight
// changed. PrevWeight is the edge's weight before the change when the
// caller knows it (a serving layer holding the pre-change graph does),
// or 0 for unknown. Landmark repairs never consult it. TZ repairs use it
// only for speed: a batch certified decrease-only (every change carries
// it, none increased) takes the decrease propagation of repair_tz.go
// instead of regrowing clusters found by a Dijkstra per endpoint, and
// either way the result is verified against the new graph. CDG and
// graceful repairs require it to certify the batch was decrease-only.
type EdgeChange struct {
	U, V       int
	PrevWeight graph.Dist
}

// ErrUnsound reports that a batch repair cannot be certified to
// reproduce exact (rebuild-identical) labels — typically because an edge
// weight increased. The input labels are untouched; the caller must
// rebuild. The facade wraps this in distsketch.ErrRebuildRequired.
var ErrUnsound = errors.New("core: repair cannot be verified exact; rebuild required")

// RepairResult is the outcome of a successful batch repair.
type RepairResult struct {
	// Labels has one repaired label per node. Labels the repair did not
	// change are shared pointer-identically with the input.
	Labels []sketch.Label
	// Cost is the CONGEST message cost of the repair. Only the landmark
	// repair simulates messages (its warm-start wave); the hierarchy
	// repairs are centralized control-plane operations and report zero.
	Cost congest.Stats
	// Replaced and Shared count result labels that were rebuilt vs
	// pointer-shared with the input; they sum to len(Labels).
	Replaced, Shared int
	// ClustersRegrown counts the truncated-Dijkstra cluster regrowths the
	// hierarchy repairs performed, or on the TZ decrease path the columns
	// it propagated (0 for landmark). It is the dominant cost term a
	// rebuild would pay once per hierarchy member.
	ClustersRegrown int
	// LocalCheck reports that a TZ result was verified by the local check
	// (verifyHierarchyLocal) rather than over the whole graph.
	LocalCheck bool
}

// Prior is what a caller knows about the labels a repair starts from,
// besides the labels themselves. A nil *Prior knows nothing.
type Prior struct {
	// Graph is the graph the labels were last verified exact on, or nil
	// when unknown (a set just built or loaded). A TZ repair whose graph
	// equals it everywhere except at the changed edges verifies its result
	// with the local check.
	Graph *graph.Graph
	// Net is the landmark density net; other kinds derive theirs from the
	// labels.
	Net []int
}

// Repair applies a batch of edge weight changes to a full label set in
// one clone-repair-verify step. g must be the new topology (same node
// set and edge set as the graph the labels were built on, with the
// changed weights). prev is read-only and never mutated; prior is what
// the caller knows about it (nil for nothing). Changes naming the same
// undirected edge twice collapse to one. An error wrapping ErrUnsound
// means the labels cannot be repaired and a rebuild is required; any
// error leaves prev untouched.
func Repair(g *graph.Graph, prev []sketch.Label, prior *Prior, edges []EdgeChange, cfg congest.Config) (*RepairResult, error) {
	n := g.N()
	if len(prev) != n || n == 0 {
		return nil, fmt.Errorf("core: %d labels for n=%d", len(prev), n)
	}
	// Both fixed-point verifications (and the support-chain argument
	// behind them) are unsound with zero-weight cycles, so non-positive
	// weights are refused before any repair work is paid.
	for _, e := range g.Edges() {
		if e.Weight <= 0 {
			return nil, fmt.Errorf("core: graph has non-positive edge (%d,%d); repair requires strictly positive weights", e.U, e.V)
		}
	}
	changes, err := normalizeChanges(g, n, edges)
	if err != nil {
		return nil, err
	}
	if len(changes) == 0 {
		return &RepairResult{Labels: append([]sketch.Label(nil), prev...), Shared: n}, nil
	}
	if prior == nil {
		prior = &Prior{}
	}
	switch prev[0].(type) {
	case *sketch.LandmarkLabel:
		return repairLandmarkSet(g, prev, prior.Net, changes, cfg)
	case *sketch.TZLabel:
		return repairTZSet(g, prev, prior.Graph, changes)
	case *sketch.CDGLabel:
		return repairCDGSet(g, prev, changes)
	case *sketch.GracefulLabel:
		return repairGracefulSet(g, prev, changes)
	default:
		return nil, fmt.Errorf("core: unsupported label type %T", prev[0])
	}
}

// normalizeChanges validates every change against the new topology and
// collapses duplicates of the same undirected edge (first PrevWeight
// wins), normalizing endpoints to U < V.
func normalizeChanges(g *graph.Graph, n int, edges []EdgeChange) ([]EdgeChange, error) {
	seen := make(map[[2]int]bool, len(edges))
	out := make([]EdgeChange, 0, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("core: edge (%d,%d) endpoint outside [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("core: self-loop (%d,%d) is not a repairable change", e.U, e.V)
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if _, ok := g.EdgeWeight(u, v); !ok {
			return nil, fmt.Errorf("core: edge (%d,%d) not in graph", e.U, e.V)
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		out = append(out, EdgeChange{U: u, V: v, PrevWeight: e.PrevWeight})
	}
	return out, nil
}

func errMixedLabels(u int, first, got sketch.Label) error {
	return fmt.Errorf("core: mixed label types: node %d is %T, node 0 is %T", u, got, first)
}

// repairLandmarkSet runs the batched warm-start wave and verifies the
// result is the exact new distances before returning it.
func repairLandmarkSet(g *graph.Graph, prev []sketch.Label, net []int, changes []EdgeChange, cfg congest.Config) (*RepairResult, error) {
	labels := make([]*sketch.LandmarkLabel, len(prev))
	for u, l := range prev {
		ll, ok := l.(*sketch.LandmarkLabel)
		if !ok {
			return nil, errMixedLabels(u, prev[0], l)
		}
		labels[u] = ll
	}
	upd, err := UpdateLandmark(g, &LandmarkResult{Labels: labels, Net: net}, changes, cfg)
	if err != nil {
		return nil, err
	}
	if verr := VerifyLandmarkExact(g, upd.Labels, net); verr != nil {
		return nil, fmt.Errorf("core: landmark repair did not converge to exact labels (%v); a weight likely increased, which warm-start repair cannot handle: %w", verr, ErrUnsound)
	}
	out := &RepairResult{Labels: make([]sketch.Label, len(prev)), Cost: upd.Cost.Total}
	for u := range labels {
		out.Labels[u] = upd.Labels[u]
		if upd.Labels[u] == labels[u] {
			out.Shared++
		} else {
			out.Replaced++
		}
	}
	return out, nil
}

// repairTZSet repairs full-graph Thorup–Zwick labels: derive the
// hierarchy from the labels, repair it (by the decrease propagation for
// certified decrease-only batches, by regrowing the endpoint search's
// suspect clusters otherwise), then verify the result with the exact
// truncated-cluster fixed-point check — which makes the repair sound
// under arbitrary weight changes, increases included (an unrepairable
// batch fails verification). The check is local when base, the graph the
// labels were last verified on, equals g except at the changed edges,
// and whole-graph otherwise.
func repairTZSet(g *graph.Graph, prev []sketch.Label, base *graph.Graph, changes []EdgeChange) (*RepairResult, error) {
	n := g.N()
	old := make([]*sketch.TZLabel, n)
	for u, l := range prev {
		tl, ok := l.(*sketch.TZLabel)
		if !ok {
			return nil, errMixedLabels(u, prev[0], l)
		}
		old[u] = tl
	}
	k := old[0].K
	levels := make([]int, n)
	for u, l := range old {
		if l.K != k || len(l.Pivots) != k {
			return nil, fmt.Errorf("core: node %d label has k=%d (%d pivots), node 0 has k=%d", u, l.K, len(l.Pivots), k)
		}
		lv := deriveTopLevel(l)
		if lv < 0 {
			return nil, fmt.Errorf("core: node %d label does not encode its hierarchy level (no zero-distance self pivot); repair requires labels produced by Build", u)
		}
		levels[u] = lv
	}
	hr, err := repairTZHierarchy(g, k, levels, old, changes)
	if err != nil {
		return nil, err
	}
	local := sameExcept(g, base, changes)
	var verr error
	if local {
		verr = verifyHierarchyLocal(g, levels, old, hr.labels, hr.pivotDist, changes)
	} else {
		verr = verifyHierarchyExact(g, levels, hr.labels, hr.pivotDist)
	}
	if verr != nil {
		return nil, fmt.Errorf("core: tz repair left inexact clusters (%v); a weight likely increased beyond what the suspect set covers: %w", verr, ErrUnsound)
	}
	out := &RepairResult{Labels: make([]sketch.Label, n), ClustersRegrown: hr.regrown, LocalCheck: local}
	for u := 0; u < n; u++ {
		out.Labels[u] = hr.labels[u]
		if hr.labels[u] == old[u] {
			out.Shared++
		} else {
			out.Replaced++
		}
	}
	return out, nil
}

// repairTZHierarchy repairs a full-graph hierarchy without verifying it:
// the decrease propagation when the batch is certified decrease-only,
// the suspect-cluster repair with the endpoint search otherwise.
func repairTZHierarchy(g *graph.Graph, k int, levels []int, old []*sketch.TZLabel, changes []EdgeChange) (*hierarchyRepair, error) {
	if dec, err := requireDecreases(g, changes, "tz"); err == nil {
		return propagateDecreases(g, k, levels, old, dec)
	}
	return repairHierarchy(g, k, levels, old, endpointSearch(g, endpointPairs(changes)), false)
}

// requireDecreases certifies the batch for the kinds with no complete
// post-hoc verification: every change must carry its pre-change weight
// and none may be an increase. Returns the endpoint pairs of the changes
// that actually decreased (same-weight no-ops are dropped).
func requireDecreases(g *graph.Graph, changes []EdgeChange, kind string) ([][2]int, error) {
	var pairs [][2]int
	for _, c := range changes {
		w, _ := g.EdgeWeight(c.U, c.V) // validated by normalizeChanges
		if c.PrevWeight <= 0 {
			return nil, fmt.Errorf("core: %s repair of edge (%d,%d) needs the pre-change weight (EdgeChange.PrevWeight): the labels cover only the density net, so exactness cannot be verified after the fact and soundness requires certified decreases: %w", kind, c.U, c.V, ErrUnsound)
		}
		if w > c.PrevWeight {
			return nil, fmt.Errorf("core: %s repair of edge (%d,%d) covers a weight increase %d → %d, which can invalidate kept clusters undetectably: %w", kind, c.U, c.V, c.PrevWeight, w, ErrUnsound)
		}
		if w < c.PrevWeight {
			pairs = append(pairs, [2]int{c.U, c.V})
		}
	}
	return pairs, nil
}

func endpointPairs(changes []EdgeChange) [][2]int {
	pairs := make([][2]int, len(changes))
	for i, c := range changes {
		pairs[i] = [2]int{c.U, c.V}
	}
	return pairs
}

// repairCDGSet repairs (ε,k)-CDG labels: the net and its hierarchy are
// derived from the labels, the net hierarchy is repaired with the
// decrease-only suspect theorem, and the nearest-net assignment is
// recomputed exactly (same multi-source Dijkstra tie-breaks as the
// build's wave).
func repairCDGSet(g *graph.Graph, prev []sketch.Label, changes []EdgeChange) (*RepairResult, error) {
	n := g.N()
	cds := make([]*sketch.CDGLabel, n)
	for u, l := range prev {
		cl, ok := l.(*sketch.CDGLabel)
		if !ok {
			return nil, errMixedLabels(u, prev[0], l)
		}
		cds[u] = cl
	}
	pairs, err := requireDecreases(g, changes, "cdg")
	if err != nil {
		return nil, err
	}
	out, regrown, err := repairCDGLabels(g, cds, endpointSearch(g, pairs))
	if err != nil {
		return nil, err
	}
	res := &RepairResult{Labels: make([]sketch.Label, n), ClustersRegrown: regrown}
	for u := 0; u < n; u++ {
		res.Labels[u] = out[u]
		if out[u] == cds[u] {
			res.Shared++
		} else {
			res.Replaced++
		}
	}
	return res, nil
}

// repairCDGLabels is the per-instance CDG repair shared by the cdg and
// graceful arms; rows are the batch's endpoint search (see
// repairHierarchy).
func repairCDGLabels(g *graph.Graph, prev []*sketch.CDGLabel, rows *endpointRows) ([]*sketch.CDGLabel, int, error) {
	n := g.N()
	// Derive the net: under strictly positive weights, a node is its own
	// nearest net node exactly when it is a net member.
	var net []int
	for u, l := range prev {
		if l == nil {
			return nil, 0, fmt.Errorf("core: node %d has no cdg label", u)
		}
		if l.NetNode < 0 || l.NetNode >= n {
			return nil, 0, fmt.Errorf("core: node %d's nearest net node %d is outside [0,%d); repair requires labels produced by Build", u, l.NetNode, n)
		}
		if l.NetNode == u {
			net = append(net, u)
		}
	}
	if len(net) == 0 {
		return nil, 0, fmt.Errorf("core: labels derive an empty density net (no node is its own nearest net node)")
	}
	k := 0
	old := make([]*sketch.TZLabel, n)
	levels := make([]int, n)
	for u := range levels {
		levels[u] = -1
	}
	for _, w := range net {
		nl := prev[w].NetLabel
		if nl == nil {
			return nil, 0, fmt.Errorf("core: net member %d carries no TZ label; repair requires labels produced by Build", w)
		}
		if k == 0 {
			k = nl.K
		}
		if nl.K != k || len(nl.Pivots) != k {
			return nil, 0, fmt.Errorf("core: net member %d label has k=%d (%d pivots), expected k=%d", w, nl.K, len(nl.Pivots), k)
		}
		lv := deriveTopLevel(nl)
		if lv < 0 {
			return nil, 0, fmt.Errorf("core: net member %d label does not encode its hierarchy level; repair requires labels produced by Build", w)
		}
		old[w] = nl
		levels[w] = lv
	}
	hr, err := repairHierarchy(g, k, levels, old, rows, true)
	if err != nil {
		return nil, 0, err
	}
	// Nearest-net assignment, recomputed exactly. The multi-source
	// Dijkstra's tie-break (smaller source ID wins at equal distance)
	// matches the build's adoption wave, so NetNode/NetDist are
	// byte-identical to a rebuild's.
	dist, nearest := graph.MultiSourceDijkstra(g, net)
	out := make([]*sketch.CDGLabel, n)
	for u := 0; u < n; u++ {
		nn := nearest[u]
		if nn < 0 {
			return nil, 0, fmt.Errorf("core: node %d is unreachable from the density net; repair requires the connected graphs the builders require", u)
		}
		p := prev[u]
		// Share when nothing about this node's view changed. The net-label
		// comparison is against the *net member's* previous label: on a
		// freshly built set p.NetLabel is that same pointer, and on a
		// lazily loaded set it is a content-identical decoded copy, so
		// sharing p preserves rebuild content either way.
		if nn == p.NetNode && dist[u] == p.NetDist && hr.labels[nn] == old[nn] {
			out[u] = p
			continue
		}
		out[u] = &sketch.CDGLabel{Owner: u, Eps: p.Eps, NetNode: nn, NetDist: dist[u], NetLabel: hr.labels[nn]}
	}
	return out, hr.regrown, nil
}

// repairGracefulSet repairs gracefully degrading labels: one CDG repair
// per slack level, sharing a node's whole label when no level changed.
// The endpoint search's Dijkstras depend on the graph and the batch only,
// so they run once and every level reads the same rows.
func repairGracefulSet(g *graph.Graph, prev []sketch.Label, changes []EdgeChange) (*RepairResult, error) {
	n := g.N()
	gls := make([]*sketch.GracefulLabel, n)
	for u, l := range prev {
		gl, ok := l.(*sketch.GracefulLabel)
		if !ok {
			return nil, errMixedLabels(u, prev[0], l)
		}
		gls[u] = gl
	}
	pairs, err := requireDecreases(g, changes, "graceful")
	if err != nil {
		return nil, err
	}
	depth := len(gls[0].Levels)
	for u, gl := range gls {
		if len(gl.Levels) != depth {
			return nil, fmt.Errorf("core: node %d has %d slack levels, node 0 has %d", u, len(gl.Levels), depth)
		}
	}
	rows := endpointSearch(g, pairs)
	newLevels := make([][]*sketch.CDGLabel, depth)
	regrown := 0
	for j := 0; j < depth; j++ {
		lv := make([]*sketch.CDGLabel, n)
		for u, gl := range gls {
			lv[u] = gl.Levels[j]
		}
		out, reg, err := repairCDGLabels(g, lv, rows)
		if err != nil {
			return nil, fmt.Errorf("core: graceful level %d: %w", j+1, err)
		}
		newLevels[j] = out
		regrown += reg
	}
	res := &RepairResult{Labels: make([]sketch.Label, n), ClustersRegrown: regrown}
	for u := 0; u < n; u++ {
		changed := false
		for j := 0; j < depth; j++ {
			if newLevels[j][u] != gls[u].Levels[j] {
				changed = true
				break
			}
		}
		if !changed {
			res.Labels[u] = gls[u]
			res.Shared++
			continue
		}
		lvls := make([]*sketch.CDGLabel, depth)
		for j := 0; j < depth; j++ {
			lvls[j] = newLevels[j][u]
		}
		res.Labels[u] = &sketch.GracefulLabel{Owner: u, Levels: lvls}
		res.Replaced++
	}
	return res, nil
}
