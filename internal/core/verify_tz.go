package core

import (
	"cmp"
	"fmt"
	"slices"

	"distsketch/internal/graph"
	"distsketch/internal/sketch"
)

// verifyHierarchyExact checks that full-graph Thorup–Zwick labels are
// exactly what a rebuild on g would produce, given the hierarchy levels
// and *fresh* per-level pivot distances (d(·, A_i) computed on g — the
// caller's hierarchy repair already holds them). It is the hierarchy
// analogue of VerifyLandmarkExact: a Bellman–Ford-style fixed-point
// check over the truncated clusters, written sparsely so it costs
// O(m · avg-bunch) instead of one Dijkstra per hierarchy member.
//
// Write ℓ_u(w) for u's recorded distance to bunch member w (∞ when
// absent, 0 implicitly when u = w) and T_u(w) = d(u, A_{level(w)+1}) for
// the fresh truncation threshold. The labels pass iff for every node u:
//
//	validity: every entry has ℓ_u(w) < T_u(w), w ≠ u, and w's recorded
//	          level matches the hierarchy;
//	closure:  for every edge (u,v) and member w with ℓ_v(w) finite,
//	          if ℓ_v(w) + wt(u,v) < T_u(w) then ℓ_u(w) ≤ ℓ_v(w) + wt;
//	support:  every entry ℓ_u(w) (u ≠ w) has a neighbor v with
//	          ℓ_u(w) = ℓ_v(w) + wt(u,v).
//
// Soundness and completeness (strictly positive weights): exact labels
// satisfy all three — validity is the cluster membership condition,
// closure is the triangle inequality on true distances plus the cluster
// prefix property (a relaxation that beats T_u(w) stays inside C(w)),
// and support takes v as the predecessor on a shortest u–w path, in C(w)
// by the same prefix property. Conversely, support chains strictly
// decrease ℓ along positive-weight edges, so by induction on ℓ every
// recorded value is ≥ the true distance; closure applied along shortest
// paths (whose prefixes stay in the cluster) forces ℓ_u(w) ≤ d(u, w)
// for every u ∈ C_new(w) — walking from w outward, each hop's through
// value equals the true distance, which is < T by membership — so
// recorded values on true members are exact and no member is missing;
// validity then kills any entry outside the new cluster, since its
// exact-by-induction value could not beat the fresh threshold. Hence
// labels ≡ rebuild. The check never consults the old graph, which is
// what makes the TZ repair sound under arbitrary weight changes.
//
// Requires a label at every node (full-graph hierarchies only — the
// net-restricted labels of CDG sketches cannot be verified this way,
// because closure across non-member nodes has no recorded ℓ to check).
func verifyHierarchyExact(g *graph.Graph, levels []int, labels []*sketch.TZLabel, pivotDist [][]graph.Dist) error {
	c, err := newHierarchyCheck(g, levels, labels, pivotDist)
	if err != nil {
		return err
	}
	// Validity first, at every node, so the walk below may index by any
	// neighbour's entries.
	for u := range labels {
		if err := c.valid(u); err != nil {
			return err
		}
	}
	for u := range labels {
		if err := c.node(u); err != nil {
			return err
		}
	}
	return nil
}

// verifyHierarchyLocal reaches verifyHierarchyExact's verdict on labels
// repaired from old by evaluating only the conditions whose inputs the
// batch changed. It requires that old was exact on a graph equal to g
// everywhere except at the changed edges (sameExcept); the TZ repair
// takes it only then.
//
// Claim (local ≡ full): under that requirement the two checks accept the
// same labels. Every condition of the full check is an instance at a node
// u and a member w (w's column), and its inputs are ℓ_u(w), u's threshold
// T_u(w), and — for closure and support — ℓ_v(w) and wt(u,v) over u's
// arcs. On the old graph, the old labels and their thresholds (the stored
// pivot distances, by exactness), every instance holds, because exact
// labels pass the full check. So an instance whose inputs are unchanged
// holds now too. The inputs that can change are
//
//   - wt(u,v), only when u is an endpoint of a changed edge;
//   - T_u, only when u is a dart: a node whose fresh distance to some
//     level differs from its stored pivot distance;
//   - ℓ_x(w), only for an entry that differs between old[x] and
//     labels[x] (present in one and not the other, or with another
//     distance or level). Such an entry is an input of the instances of
//     column w at x and at x's neighbours, and nowhere else.
//
// The local check evaluates every instance at endpoints and darts (the
// full check's per-node walk), and every instance of column w at x and at
// each neighbour of x for each differing entry (x, w). It evaluates
// nothing the full check does not, so the verdicts agree.
//
// The cost is proportional to the change: O(deg · avg-bunch) per endpoint
// and dart, and O(deg²) per differing entry (each node's entry is looked
// up once per column), plus one O(n·k) scan for the darts.
func verifyHierarchyLocal(g *graph.Graph, levels []int, old, labels []*sketch.TZLabel, pivotDist [][]graph.Dist, changes []EdgeChange) error {
	c, err := newHierarchyCheck(g, levels, labels, pivotDist)
	if err != nil {
		return err
	}
	n := g.N()
	if len(old) != n {
		return fmt.Errorf("core: %d old labels for n=%d", len(old), n)
	}
	// Validity at every replaced label first, so the walks below may index
	// by any neighbour's entries (the other labels are old, and exact).
	type entry struct{ w, x int }
	var differ []entry
	for x, lab := range labels {
		if lab == old[x] {
			continue
		}
		if err := c.valid(x); err != nil {
			return err
		}
		forEachDiffer(old[x].Bunch, lab.Bunch, func(w int) { differ = append(differ, entry{w, x}) })
	}

	// Endpoints and darts: the full per-node check.
	whole := make([]bool, n)
	for _, ch := range changes {
		whole[ch.U], whole[ch.V] = true, true
	}
	for x, lab := range old {
		for i, p := range lab.Pivots {
			if p.Dist != pivotDist[i][x] {
				whole[x] = true
			}
		}
	}
	for u, ok := range whole {
		if !ok {
			continue
		}
		if err := c.valid(u); err != nil {
			return err
		}
		if err := c.node(u); err != nil {
			return err
		}
	}

	// Differing entries: column w at x and at x's neighbours, each node
	// once per column (checked[y] = w+1 once y's column w is checked).
	// Sorted by column, so column's entry cache serves a whole column.
	slices.SortFunc(differ, func(a, b entry) int { return cmp.Or(cmp.Compare(a.w, b.w), cmp.Compare(a.x, b.x)) })
	checked := make([]int, n)
	c.atColumn, c.atDist = make([]int, n), make([]graph.Dist, n)
	check := func(y, w int) error {
		if checked[y] == w+1 {
			return nil
		}
		checked[y] = w + 1
		return c.column(y, w)
	}
	for _, e := range differ {
		if err := check(e.x, e.w); err != nil {
			return err
		}
		for _, a := range g.Adj(e.x) {
			if err := check(a.To, e.w); err != nil {
				return err
			}
		}
	}
	return nil
}

// forEachDiffer calls f(w) for every member w whose entry differs between
// two canonical bunches: present in one only, or with another distance or
// level.
func forEachDiffer(a, b []sketch.BunchItem, f func(w int)) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i].Node < b[j].Node):
			f(a[i].Node)
			i++
		case i == len(a) || b[j].Node < a[i].Node:
			f(b[j].Node)
			j++
		default:
			if a[i] != b[j] {
				f(a[i].Node)
			}
			i++
			j++
		}
	}
}

// sameExcept reports whether g equals base everywhere except at the
// changed edges: the same nodes and edges, and the same weight on every
// edge the batch does not list.
func sameExcept(g, base *graph.Graph, changes []EdgeChange) bool {
	if base == nil || base.N() != g.N() || base.M() != g.M() {
		return false
	}
	be := base.Edges()
	for i, e := range g.Edges() {
		b := be[i]
		if e.U != b.U || e.V != b.V {
			return false
		}
		if e.Weight != b.Weight && !slices.ContainsFunc(changes, func(c EdgeChange) bool { return c.U == e.U && c.V == e.V }) {
			return false
		}
	}
	return true
}

// hierarchyCheck evaluates verifyHierarchyExact's conditions at chosen
// nodes and columns.
type hierarchyCheck struct {
	g         *graph.Graph
	levels    []int
	labels    []*sketch.TZLabel
	pivotDist [][]graph.Dist
	// Scratch of node: pos[w] is 1 + w's index in B(u) while u is walked
	// (0 when absent), thresh holds T_u for every level, supported marks
	// the entries of B(u) some neighbour supports.
	pos       []int32
	thresh    []graph.Dist
	supported []bool
	// Entry cache of column: atDist[v] is ℓ_v(w) while atColumn[v] = w+1.
	atColumn []int
	atDist   []graph.Dist
}

func newHierarchyCheck(g *graph.Graph, levels []int, labels []*sketch.TZLabel, pivotDist [][]graph.Dist) (*hierarchyCheck, error) {
	n := g.N()
	if len(labels) != n {
		return nil, fmt.Errorf("core: %d labels for n=%d", len(labels), n)
	}
	for u, lab := range labels {
		if lab == nil {
			return nil, fmt.Errorf("core: node %d has no label", u)
		}
	}
	return &hierarchyCheck{g: g, levels: levels, labels: labels, pivotDist: pivotDist,
		pos: make([]int32, n), thresh: make([]graph.Dist, len(pivotDist))}, nil
}

// valid checks validity at u: every entry of B(u) names another node of
// the hierarchy at its level, below u's fresh threshold.
func (c *hierarchyCheck) valid(u int) error {
	n, pd := len(c.labels), c.pivotDist
	for _, it := range c.labels[u].Bunch {
		if it.Node == u {
			return fmt.Errorf("core: node %d lists itself in its bunch", u)
		}
		if it.Node < 0 || it.Node >= n || it.Level < 0 || it.Level >= len(pd)-1 || c.levels[it.Node] != it.Level {
			return fmt.Errorf("core: node %d bunch entry (%d, level %d) does not match the hierarchy", u, it.Node, it.Level)
		}
		if it.Dist >= pd[it.Level+1][u] {
			return fmt.Errorf("core: node %d keeps member %d at distance %d ≥ threshold %d (stale membership)", u, it.Node, it.Dist, pd[it.Level+1][u])
		}
	}
	return nil
}

// node checks closure across every arc of u and support of every entry
// of B(u), in every column. It requires validity at u and its neighbours.
// u's bunch is scattered into pos, so each neighbour entry finds u's in
// O(1). Both arc directions appear in the adjacency lists, so walking
// every node relaxes each unordered edge both ways.
func (c *hierarchyCheck) node(u int) error {
	bu := c.labels[u].Bunch
	for i, it := range bu {
		c.pos[it.Node] = int32(i + 1)
	}
	err := c.walk(u, bu)
	for _, it := range bu {
		c.pos[it.Node] = 0
	}
	return err
}

// walk is node's body, run while B(u) = bu is scattered into pos.
func (c *hierarchyCheck) walk(u int, bu []sketch.BunchItem) error {
	levels, pos, thresh := c.levels, c.pos, c.thresh
	for l := range thresh {
		thresh[l] = c.pivotDist[l][u]
	}
	c.supported = append(c.supported[:0], make([]bool, len(bu))...)
	supported := c.supported
	for _, a := range c.g.Adj(u) {
		v, wt := a.To, a.Weight

		// The neighbor itself as member w = v (ℓ_v(v) = 0 implicit).
		if lv := levels[v]; lv >= 0 {
			if p := pos[v]; p == 0 {
				if wt < thresh[lv+1] {
					return fmt.Errorf("core: node %d is missing hierarchy neighbor %d (reachable at %d < threshold %d)", u, v, wt, thresh[lv+1])
				}
			} else {
				if d := bu[p-1].Dist; d > wt {
					return fmt.Errorf("core: node %d records member %d at %d but the direct edge costs %d", u, v, d, wt)
				} else if d == wt {
					supported[p-1] = true
				}
			}
		}

		// Members seen through v's bunch.
		for _, e := range c.labels[v].Bunch {
			w := e.Node
			if w == u || w == v {
				continue
			}
			through := graph.AddDist(e.Dist, wt)
			if p := pos[w]; p != 0 {
				d := bu[p-1].Dist
				if d > through && through < thresh[e.Level+1] {
					return fmt.Errorf("core: node %d records member %d at %d but neighbor %d offers %d", u, w, d, v, through)
				}
				if d == through {
					supported[p-1] = true
				}
			} else if through < thresh[e.Level+1] {
				return fmt.Errorf("core: node %d is missing member %d (reachable through %d at %d < threshold %d)", u, w, v, through, thresh[e.Level+1])
			}
		}
	}

	// Every recorded entry must be supported, or it is a stale value no
	// relaxation on the new graph reproduces.
	for i, ok := range supported {
		if !ok {
			return fmt.Errorf("core: node %d's entry for member %d (distance %d) has no supporting neighbor", u, bu[i].Node, bu[i].Dist)
		}
	}
	return nil
}

// column checks validity, closure and support at u for member w alone.
// It requires validity at every replaced label. ℓ_w(w) = 0 is implicit,
// and a self entry fails valid, so column(w, w) has nothing to check.
func (c *hierarchyCheck) column(u, w int) error {
	if u == w {
		return nil
	}
	t := c.pivotDist[c.levels[w]+1][u]
	d := c.at(u, w)
	present := d != graph.Inf // a valid entry lies below its threshold
	if present && d >= t {
		return fmt.Errorf("core: node %d keeps member %d at distance %d ≥ threshold %d (stale membership)", u, w, d, t)
	}
	supported := !present
	for _, a := range c.g.Adj(u) {
		dv := c.at(a.To, w)
		if dv == graph.Inf {
			continue
		}
		through := graph.AddDist(dv, a.Weight)
		if through < t && through < d {
			if present {
				return fmt.Errorf("core: node %d records member %d at %d but neighbor %d offers %d", u, w, d, a.To, through)
			}
			return fmt.Errorf("core: node %d is missing member %d (reachable through %d at %d < threshold %d)", u, w, a.To, through, t)
		}
		if through == d {
			supported = true
		}
	}
	if !supported {
		return fmt.Errorf("core: node %d's entry for member %d (distance %d) has no supporting neighbor", u, w, d)
	}
	return nil
}

// at returns ℓ_v(w): 0 for v = w, Inf when v records no entry for w.
// Neighbouring nodes share neighbours, so the checks of one column look
// each node's entry up once, from the cache.
func (c *hierarchyCheck) at(v, w int) graph.Dist {
	if c.atColumn[v] != w+1 {
		c.atColumn[v] = w + 1
		c.atDist[v], _ = c.labels[v].DistTo(w)
	}
	return c.atDist[v]
}
