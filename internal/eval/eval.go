// Package eval measures the quality of distance sketches against exact
// shortest-path distances: stretch statistics over all (or sampled) pairs,
// ε-slack coverage (Section 4 of the paper), and average stretch
// (Section 4.1). It computes the stretch columns of cmd/sketchbench's
// tables.
package eval

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"distsketch/internal/graph"
)

// QueryFunc produces a distance estimate for an ordered pair of nodes.
type QueryFunc func(u, v int) graph.Dist

// Querier answers distance queries from built sketches. The facade's
// SketchSet and the core construction results all satisfy it, so callers
// can hand the result object straight to EvaluateQuerier instead of
// plucking a method value.
type Querier interface {
	Query(u, v int) graph.Dist
}

// EvaluateQuerier is Evaluate over a Querier.
func EvaluateQuerier(apsp [][]graph.Dist, q Querier, pairs []Pair) Report {
	return Evaluate(apsp, q.Query, pairs)
}

// Report summarizes estimate quality over a pair set.
type Report struct {
	Pairs         int     // pairs evaluated (finite true distance, u != v)
	Violations    int     // estimates below the true distance (must be 0)
	Unreachable   int     // estimate = Inf on a connected pair (must be 0)
	MaxStretch    float64 // max over pairs of estimate/true
	AvgStretch    float64 // mean over pairs of estimate/true
	P50, P90, P99 float64 // stretch percentiles
}

func (r Report) String() string {
	return fmt.Sprintf("pairs=%d viol=%d unreach=%d max=%.3f avg=%.3f p50=%.3f p90=%.3f p99=%.3f",
		r.Pairs, r.Violations, r.Unreachable, r.MaxStretch, r.AvgStretch, r.P50, r.P90, r.P99)
}

// Pair is an ordered node pair.
type Pair struct{ U, V int }

// AllPairs returns all ordered pairs u != v. Quadratic; use for n ≲ 512.
func AllPairs(n int) []Pair {
	out := make([]Pair, 0, n*(n-1))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				out = append(out, Pair{u, v})
			}
		}
	}
	return out
}

// SamplePairs returns count ordered pairs drawn uniformly (u != v).
func SamplePairs(n, count int, seed uint64) []Pair {
	r := rand.New(rand.NewPCG(seed, 0xfeed))
	out := make([]Pair, 0, count)
	for len(out) < count {
		u := int(r.Int64N(int64(n)))
		v := int(r.Int64N(int64(n)))
		if u != v {
			out = append(out, Pair{u, v})
		}
	}
	return out
}

// Evaluate computes stretch statistics of q against the exact distances
// over the given pairs. Pairs with true distance 0 or Inf are skipped
// (stretch is undefined there); Inf estimates on finite pairs are counted
// in Unreachable and excluded from the stretch aggregates.
func Evaluate(apsp [][]graph.Dist, q QueryFunc, pairs []Pair) Report {
	var rep Report
	stretches := make([]float64, 0, len(pairs))
	var sum float64
	for _, p := range pairs {
		d := apsp[p.U][p.V]
		if d == 0 || d == graph.Inf {
			continue
		}
		rep.Pairs++
		est := q(p.U, p.V)
		if est == graph.Inf {
			rep.Unreachable++
			continue
		}
		if est < d {
			rep.Violations++
			continue
		}
		s := float64(est) / float64(d)
		stretches = append(stretches, s)
		sum += s
		if s > rep.MaxStretch {
			rep.MaxStretch = s
		}
	}
	if len(stretches) > 0 {
		rep.AvgStretch = sum / float64(len(stretches))
		sort.Float64s(stretches)
		rep.P50 = percentile(stretches, 0.50)
		rep.P90 = percentile(stretches, 0.90)
		rep.P99 = percentile(stretches, 0.99)
	}
	return rep
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// FarClassifier precomputes, for every node u, the rank of every node in
// u's distance order, enabling O(1) ε-far tests: v is ε-far from u iff at
// least ε·n nodes w (including u itself) precede v in that order
// (Section 4). Ties are broken by node ID — the paper assumes distinct
// distances WLOG "by breaking ties consistently through processor IDs",
// and lexicographic (distance, ID) rank realizes exactly that: every node
// then has a unique rank, so the ε-far pairs are exactly a (1-ε) fraction,
// and rank(v) ≥ ε·n still implies R(u,ε) ≤ d(u,v) (the ball of radius
// d(u,v) contains all lex-preceding nodes), which is all the slack stretch
// proofs use.
type FarClassifier struct {
	n    int
	rank [][]int32 // rank[u][v] = |{w : (d(u,w), w) <lex (d(u,v), v)}|
	apsp [][]graph.Dist
}

// NewFarClassifier builds the classifier from an APSP matrix.
func NewFarClassifier(apsp [][]graph.Dist) *FarClassifier {
	n := len(apsp)
	fc := &FarClassifier{n: n, apsp: apsp, rank: make([][]int32, n)}
	order := make([]int, n)
	for u := 0; u < n; u++ {
		for i := range order {
			order[i] = i
		}
		row := apsp[u]
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if row[a] != row[b] {
				return row[a] < row[b]
			}
			return a < b
		})
		ranks := make([]int32, n)
		for pos, v := range order {
			ranks[v] = int32(pos)
		}
		fc.rank[u] = ranks
	}
	return fc
}

// CloserCount returns the lex rank of v in u's distance order, i.e. the
// number of nodes (including u itself) that precede v.
func (fc *FarClassifier) CloserCount(u, v int) int {
	return int(fc.rank[u][v])
}

// IsFar reports whether v is ε-far from u.
func (fc *FarClassifier) IsFar(u, v int, eps float64) bool {
	return float64(fc.CloserCount(u, v)) >= eps*float64(fc.n)
}

// SlackReport extends Report with ε-slack coverage accounting.
type SlackReport struct {
	Eps     float64
	Far     Report  // statistics over ε-far pairs only (the guaranteed set)
	Near    Report  // statistics over the remaining pairs (no guarantee)
	FarFrac float64 // fraction of evaluated pairs that are ε-far (≥ 1-ε)
}

// EvaluateSlack computes stretch statistics split by the ε-far predicate.
func EvaluateSlack(apsp [][]graph.Dist, q QueryFunc, pairs []Pair, eps float64) SlackReport {
	fc := NewFarClassifier(apsp)
	return EvaluateSlackWith(fc, apsp, q, pairs, eps)
}

// EvaluateSlackWith is EvaluateSlack with a pre-built classifier (reuse
// across several ε values).
func EvaluateSlackWith(fc *FarClassifier, apsp [][]graph.Dist, q QueryFunc, pairs []Pair, eps float64) SlackReport {
	var far, near []Pair
	for _, p := range pairs {
		d := apsp[p.U][p.V]
		if d == 0 || d == graph.Inf {
			continue
		}
		if fc.IsFar(p.U, p.V, eps) {
			far = append(far, p)
		} else {
			near = append(near, p)
		}
	}
	rep := SlackReport{
		Eps:  eps,
		Far:  Evaluate(apsp, q, far),
		Near: Evaluate(apsp, q, near),
	}
	if tot := len(far) + len(near); tot > 0 {
		rep.FarFrac = float64(len(far)) / float64(tot)
	}
	return rep
}

// AvgStretchAllPairs computes the paper's average-stretch quantity
// (Section 4.1): the mean of estimate/true over all unordered pairs with
// finite nonzero distance. Estimates of Inf contribute stretch = the worst
// finite stretch observed (they should not occur for the constructions in
// this repository; the fallback keeps the statistic defined).
func AvgStretchAllPairs(apsp [][]graph.Dist, q QueryFunc) float64 {
	n := len(apsp)
	var sum float64
	var count int
	var worst float64 = 1
	var infs int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := apsp[u][v]
			if d == 0 || d == graph.Inf {
				continue
			}
			est := q(u, v)
			count++
			if est == graph.Inf {
				infs++
				continue
			}
			s := float64(est) / float64(d)
			if s > worst {
				worst = s
			}
			sum += s
		}
	}
	if count == 0 {
		return 0
	}
	sum += float64(infs) * worst
	return sum / float64(count)
}
