package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Generators for the network families exercised by the benchmark harness.
// All generators are deterministic given the seed, and all of them return
// connected graphs (generators that can produce disconnected samples
// augment the sample minimally, as noted per generator).

func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// WeightFn assigns a weight to edge {u,v}. Generators take one so the same
// topology can be used unweighted (all-1) or with random weights.
type WeightFn func(r *rand.Rand, u, v int) Dist

// UnitWeights assigns weight 1 to every edge (unweighted network; S = D).
func UnitWeights() WeightFn {
	return func(_ *rand.Rand, _, _ int) Dist { return 1 }
}

// UniformWeights assigns integer weights uniformly in [lo, hi].
func UniformWeights(lo, hi Dist) WeightFn {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("graph: bad weight range [%d,%d]", lo, hi))
	}
	return func(r *rand.Rand, _, _ int) Dist {
		return lo + Dist(r.Int64N(int64(hi-lo+1)))
	}
}

// SkewedWeights returns weights 1 or heavy with probability pHeavy for the
// heavy value. Creates networks where the shortest-path diameter S is much
// larger than the hop diameter D (the regime motivating sketches; §2.1).
func SkewedWeights(heavy Dist, pHeavy float64) WeightFn {
	return func(r *rand.Rand, _, _ int) Dist {
		if r.Float64() < pHeavy {
			return heavy
		}
		return 1
	}
}

// Path returns the path 0-1-...-n-1.
func Path(n int, w WeightFn, seed uint64) *Graph {
	r := rng(seed)
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, w(r, i, i+1))
	}
	return b.MustFreeze()
}

// Ring returns the cycle on n nodes (n >= 3).
func Ring(n int, w WeightFn, seed uint64) *Graph {
	if n < 3 {
		panic("graph: Ring needs n >= 3")
	}
	r := rng(seed)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		b.AddEdge(i, j, w(r, i, j))
	}
	return b.MustFreeze()
}

// Star returns the star with center 0 and leaves 1..n-1.
func Star(n int, w WeightFn, seed uint64) *Graph {
	r := rng(seed)
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i, w(r, 0, i))
	}
	return b.MustFreeze()
}

// Grid returns the rows x cols grid; node (i,j) has ID i*cols+j.
func Grid(rows, cols int, w WeightFn, seed uint64) *Graph {
	r := rng(seed)
	n := rows * cols
	b := NewBuilder(n)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				b.AddEdge(id(i, j), id(i, j+1), w(r, id(i, j), id(i, j+1)))
			}
			if i+1 < rows {
				b.AddEdge(id(i, j), id(i+1, j), w(r, id(i, j), id(i+1, j)))
			}
		}
	}
	return b.MustFreeze()
}

// Torus is Grid with wraparound edges (rows, cols >= 3).
func Torus(rows, cols int, w WeightFn, seed uint64) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus needs rows, cols >= 3")
	}
	r := rng(seed)
	b := NewBuilder(rows * cols)
	id := func(i, j int) int { return (i%rows)*cols + (j % cols) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			b.AddEdge(id(i, j), id(i, j+1), w(r, id(i, j), id(i, j+1)))
			b.AddEdge(id(i, j), id(i+1, j), w(r, id(i, j), id(i+1, j)))
		}
	}
	return b.MustFreeze()
}

// HyperCube returns the d-dimensional hypercube on 2^d nodes.
func HyperCube(d int, w WeightFn, seed uint64) *Graph {
	if d < 1 || d > 20 {
		panic("graph: HyperCube needs 1 <= d <= 20")
	}
	r := rng(seed)
	n := 1 << d
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << bit)
			if u < v {
				b.AddEdge(u, v, w(r, u, v))
			}
		}
	}
	return b.MustFreeze()
}

// RandomTree returns a uniformly random labeled tree (via a random Prüfer-
// like attachment: node i attaches to a uniform node in [0,i)).
func RandomTree(n int, w WeightFn, seed uint64) *Graph {
	r := rng(seed)
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		p := int(r.Int64N(int64(i)))
		b.AddEdge(p, i, w(r, p, i))
	}
	return b.MustFreeze()
}

// Caterpillar returns a path of length spine with leg leaves hanging off
// each spine node. Worst-case-ish family for shortest-path diameter.
func Caterpillar(spine, legs int, w WeightFn, seed uint64) *Graph {
	r := rng(seed)
	n := spine * (legs + 1)
	b := NewBuilder(n)
	for i := 0; i+1 < spine; i++ {
		b.AddEdge(i, i+1, w(r, i, i+1))
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(i, next, w(r, i, next))
			next++
		}
	}
	return b.MustFreeze()
}

// ErdosRenyi returns G(n,p) conditioned on connectivity: the sample is
// augmented with a uniformly random spanning-tree skeleton so that every
// sample is connected (edges of the skeleton get weights from w too). This
// mirrors common practice in distributed-algorithms simulations and keeps
// the degree/expansion character of G(n,p) for p above the threshold.
func ErdosRenyi(n int, p float64, w WeightFn, seed uint64) *Graph {
	if p < 0 || p > 1 {
		panic("graph: ErdosRenyi needs p in [0,1]")
	}
	r := rng(seed)
	b := NewBuilder(n)
	// Random connected skeleton: random permutation chain attachment.
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		u, v := perm[int(r.Int64N(int64(i)))], perm[i]
		b.AddEdge(u, v, w(r, u, v))
	}
	// Geometric skipping to sample G(n,p) in O(m) expected time.
	if p > 0 {
		logq := math.Log1p(-p)
		u, v := 0, 0
		for u < n {
			var skip int
			if p >= 1 {
				skip = 1
			} else {
				skip = 1 + int(math.Log(1-r.Float64())/logq)
			}
			v += skip
			for v >= n && u < n {
				v -= n - (u + 1)
				u++
				v += u + 1
			}
			if u < n && v < n && u != v {
				b.AddEdge(u, v, w(r, u, v))
			}
		}
	}
	return b.MustFreeze()
}

// RandomGeometric places n points uniformly in the unit square and connects
// points within Euclidean distance radius. Weight defaults to the scaled
// Euclidean distance (scale 1000, rounded up, min 1) unless w != nil.
// A nearest-neighbor chain over the x-sorted order is added to guarantee
// connectivity.
func RandomGeometric(n int, radius float64, w WeightFn, seed uint64) *Graph {
	r := rng(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	dist := func(i, j int) float64 {
		dx, dy := xs[i]-xs[j], ys[i]-ys[j]
		return math.Sqrt(dx*dx + dy*dy)
	}
	weight := func(i, j int) Dist {
		if w != nil {
			return w(r, i, j)
		}
		d := Dist(math.Ceil(dist(i, j) * 1000))
		if d < 1 {
			d = 1
		}
		return d
	}
	b := NewBuilder(n)
	// Grid bucketing for O(n) expected neighbor scan.
	cell := radius
	if cell <= 0 {
		cell = 1
	}
	cols := int(1/cell) + 1
	buckets := make(map[[2]int][]int)
	key := func(i int) [2]int {
		return [2]int{int(xs[i] / cell), int(ys[i] / cell)}
	}
	for i := 0; i < n; i++ {
		buckets[key(i)] = append(buckets[key(i)], i)
	}
	_ = cols
	for i := 0; i < n; i++ {
		k := key(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[[2]int{k[0] + dx, k[1] + dy}] {
					if j > i && dist(i, j) <= radius {
						b.AddEdge(i, j, weight(i, j))
					}
				}
			}
		}
	}
	// Connectivity chain over x-sorted order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort by x; n is small in our runs
		j := i
		for j > 0 && xs[order[j-1]] > xs[order[j]] {
			order[j-1], order[j] = order[j], order[j-1]
			j--
		}
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(order[i], order[i+1], weight(order[i], order[i+1]))
	}
	return b.MustFreeze()
}

// BarabasiAlbert returns a preferential-attachment graph: starts from a
// clique on m+1 nodes, then each new node attaches to m distinct existing
// nodes chosen proportionally to degree. Models P2P/web-like topologies.
func BarabasiAlbert(n, m int, w WeightFn, seed uint64) *Graph {
	if m < 1 || n < m+1 {
		panic("graph: BarabasiAlbert needs 1 <= m and n >= m+1")
	}
	r := rng(seed)
	b := NewBuilder(n)
	// Repeated-endpoints trick: targets chosen uniformly from the endpoint
	// multiset gives degree-proportional sampling.
	var endpoints []int
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			b.AddEdge(i, j, w(r, i, j))
			endpoints = append(endpoints, i, j)
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := make(map[int]bool, m)
		for len(chosen) < m {
			t := endpoints[r.Int64N(int64(len(endpoints)))]
			if t != v {
				chosen[t] = true
			}
		}
		targets := make([]int, 0, m)
		for t := range chosen {
			targets = append(targets, t)
		}
		sort.Ints(targets) // deterministic edge order for the weight RNG
		for _, t := range targets {
			b.AddEdge(v, t, w(r, v, t))
			endpoints = append(endpoints, v, t)
		}
	}
	return b.MustFreeze()
}

// WattsStrogatz returns a small-world graph: ring lattice where each node
// connects to its k/2 nearest neighbors on each side, with each lattice
// edge rewired with probability beta. The base ring is kept (only chords
// are rewired) so the result is always connected.
func WattsStrogatz(n, k int, beta float64, w WeightFn, seed uint64) *Graph {
	if k < 2 || k%2 != 0 || k >= n {
		panic("graph: WattsStrogatz needs even k with 2 <= k < n")
	}
	r := rng(seed)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for d := 1; d <= k/2; d++ {
			j := (i + d) % n
			if d > 1 && r.Float64() < beta {
				// Rewire chord to a uniform non-self target.
				for {
					t := int(r.Int64N(int64(n)))
					if t != i {
						j = t
						break
					}
				}
			}
			if i != j {
				b.AddEdge(i, j, w(r, i, j))
			}
		}
	}
	return b.MustFreeze()
}

// InternetLike returns a three-tier hierarchical topology modeled on
// AS-level structure, the setting of the paper's Internet motivation: a
// small densely meshed core, a middle tier where each node multi-homes to
// 2 core nodes and peers with some siblings, and stub leaves single- or
// dual-homed to the middle tier. Core links are fast (weight 1), middle
// links moderate, stub links slow — so shortest paths climb the hierarchy
// and the weighted distances are latency-like.
func InternetLike(n int, w WeightFn, seed uint64) *Graph {
	if n < 8 {
		panic("graph: InternetLike needs n >= 8")
	}
	r := rng(seed)
	coreN := n / 16
	if coreN < 3 {
		coreN = 3
	}
	midN := n / 4
	if midN < coreN {
		midN = coreN
	}
	b := NewBuilder(n)
	weight := func(u, v int, def Dist) Dist {
		if w != nil {
			return w(r, u, v)
		}
		return def
	}
	// Core: full mesh, weight 1.
	for i := 0; i < coreN; i++ {
		for j := i + 1; j < coreN; j++ {
			b.AddEdge(i, j, weight(i, j, 1))
		}
	}
	// Middle tier: nodes coreN..coreN+midN-1, each homed to 2 core nodes
	// and peered with one random sibling.
	midStart, midEnd := coreN, coreN+midN
	if midEnd > n {
		midEnd = n
	}
	for v := midStart; v < midEnd; v++ {
		c1 := int(r.Int64N(int64(coreN)))
		c2 := (c1 + 1 + int(r.Int64N(int64(coreN-1)))) % coreN
		b.AddEdge(v, c1, weight(v, c1, 3))
		b.AddEdge(v, c2, weight(v, c2, 3))
		if v > midStart {
			p := midStart + int(r.Int64N(int64(v-midStart)))
			b.AddEdge(v, p, weight(v, p, 2))
		}
	}
	// Stubs: the rest, each homed to 1-2 middle-tier nodes.
	for v := midEnd; v < n; v++ {
		m1 := midStart + int(r.Int64N(int64(midEnd-midStart)))
		b.AddEdge(v, m1, weight(v, m1, 8))
		if r.Float64() < 0.3 {
			m2 := midStart + int(r.Int64N(int64(midEnd-midStart)))
			if m2 != m1 {
				b.AddEdge(v, m2, weight(v, m2, 8))
			}
		}
	}
	return b.MustFreeze()
}

// LollipopPath returns a clique on cliqueN nodes with a path of pathN nodes
// attached — a classic high-S family when the path is heavy.
func LollipopPath(cliqueN, pathN int, w WeightFn, seed uint64) *Graph {
	r := rng(seed)
	n := cliqueN + pathN
	b := NewBuilder(n)
	for i := 0; i < cliqueN; i++ {
		for j := i + 1; j < cliqueN; j++ {
			b.AddEdge(i, j, w(r, i, j))
		}
	}
	prev := 0
	for i := cliqueN; i < n; i++ {
		b.AddEdge(prev, i, w(r, prev, i))
		prev = i
	}
	return b.MustFreeze()
}

// Family identifies a generator for table-driven experiments.
type Family string

// Families used throughout the benchmark harness.
const (
	FamilyER         Family = "erdos-renyi"
	FamilyGeometric  Family = "geometric"
	FamilyGrid       Family = "grid"
	FamilyRing       Family = "ring"
	FamilyTree       Family = "tree"
	FamilyBA         Family = "barabasi-albert"
	FamilySmallWorld Family = "small-world"
	FamilyHyperCube  Family = "hypercube"
	FamilyInternet   Family = "internet"
)

// Make generates a connected n-node graph of the given family with sensible
// default parameters, used by the experiment harness. Unknown families
// panic (experiment tables are static).
func Make(f Family, n int, w WeightFn, seed uint64) *Graph {
	if w == nil {
		w = UnitWeights()
	}
	switch f {
	case FamilyER:
		p := 2 * math.Log(float64(n)) / float64(n)
		return ErdosRenyi(n, p, w, seed)
	case FamilyGeometric:
		radius := 1.5 * math.Sqrt(math.Log(float64(n))/float64(n))
		return RandomGeometric(n, radius, w, seed)
	case FamilyGrid:
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 2 {
			side = 2
		}
		return Grid(side, (n+side-1)/side, w, seed)
	case FamilyRing:
		return Ring(n, w, seed)
	case FamilyTree:
		return RandomTree(n, w, seed)
	case FamilyBA:
		m := 3
		if n <= m {
			m = 1
		}
		return BarabasiAlbert(n, m, w, seed)
	case FamilySmallWorld:
		k := 4
		if n <= k {
			k = 2
		}
		return WattsStrogatz(n, k, 0.1, w, seed)
	case FamilyHyperCube:
		d := int(math.Round(math.Log2(float64(n))))
		if d < 1 {
			d = 1
		}
		return HyperCube(d, w, seed)
	case FamilyInternet:
		if n < 8 {
			n = 8
		}
		return InternetLike(n, nil, seed) // tiered default weights
	default:
		panic(fmt.Sprintf("graph: unknown family %q", f))
	}
}

// AllFamilies lists the families in canonical harness order.
func AllFamilies() []Family {
	return []Family{
		FamilyER, FamilyGeometric, FamilyGrid, FamilyRing,
		FamilyTree, FamilyBA, FamilySmallWorld, FamilyHyperCube,
		FamilyInternet,
	}
}
