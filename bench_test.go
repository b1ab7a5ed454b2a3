package distsketch

// Benchmarks of the facade: the asynchronous-delivery overhead, builds per
// kind, the query hot path and set startup. The paper's own quantities
// (rounds, messages, words and stretch against each theorem's bound) are
// the E-series in internal/experiments: cmd/sketchbench prints them and
// TestAllExperimentsQuick requires every bound to hold.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"distsketch/internal/congest"
	"distsketch/internal/core"
	"distsketch/internal/graph"
)

// BenchmarkAsyncOverhead — the asynchronous-delivery extension: same
// labels, round count grows with the delay bound.
func BenchmarkAsyncOverhead(b *testing.B) {
	const k, seed = 3, 1
	g := graph.Make(graph.FamilyGrid, 256, graph.UniformWeights(1, 10), seed)
	sync, err := core.BuildTZ(g, core.TZOptions{K: k, Seed: seed, Mode: core.SyncOmniscient})
	if err != nil {
		b.Fatal(err)
	}
	var async *core.TZResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		async, err = core.BuildTZ(g, core.TZOptions{
			K: k, Seed: seed, Mode: core.SyncOmniscient,
			Congest: congest.Config{MaxDelay: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(async.Cost.Total.Rounds)/float64(sync.Cost.Total.Rounds), "round-overhead")
}

// BenchmarkBuildPublicAPI measures end-to-end facade builds per kind.
func BenchmarkBuildPublicAPI(b *testing.B) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 128, 1, 50, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []Kind{KindTZ, KindLandmark, KindCDG, KindGraceful} {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, Options{Kind: kind, K: 2, Eps: 0.25, Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryPath compares the decode-once query path (Sketch.Estimate
// over pre-parsed sketches) against the byte-level Estimate that
// re-unmarshals both sketches on every call, for every sketch kind. The
// decoded ns/op is the serving hot path's per-query latency — for
// landmark sketches it is the two-pointer merge-intersection over the
// sorted entry slices (zero allocations; formerly an O(|N|) map probe
// and the single visible serving bottleneck).
func BenchmarkQueryPath(b *testing.B) {
	g, err := NewRandomWeightedGraph(FamilyER, 128, 1, 50, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	for _, kind := range []Kind{KindTZ, KindLandmark, KindCDG, KindGraceful} {
		b.Run(string(kind), func(b *testing.B) {
			set, err := Build(g, Options{Kind: kind, K: 3, Eps: 0.25, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			blobs := make([][]byte, n)
			parsed := make([]*Sketch, n)
			for u := 0; u < n; u++ {
				blobs[u] = set.SketchBytes(u)
				parsed[u], err = ParseSketch(blobs[u])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.Run("decoded", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := parsed[i%n].Estimate(parsed[(i*37+11)%n]); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("bytes", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Estimate(blobs[i%n], blobs[(i*37+11)%n]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// TestQueryPathZeroAlloc pins BenchmarkQueryPath's alloc column as a
// hard assertion: the decoded query path must stay allocation-free for
// every kind — on freshly parsed sketches and on a warmed lazily loaded
// set — so an accidental allocation on the serving hot path fails tests
// instead of silently showing up in the next BENCH_*.json.
func TestQueryPathZeroAlloc(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyER, 128, 1, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for _, kind := range []Kind{KindTZ, KindLandmark, KindCDG, KindGraceful} {
		t.Run(string(kind), func(t *testing.T) {
			set, err := Build(g, Options{Kind: kind, K: 3, Eps: 0.25, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			parsed := make([]*Sketch, n)
			for u := 0; u < n; u++ {
				if parsed[u], err = ParseSketch(set.SketchBytes(u)); err != nil {
					t.Fatal(err)
				}
			}
			q := 0
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := parsed[q%n].Estimate(parsed[(q*37+11)%n]); err != nil {
					t.Fatal(err)
				}
				q++
			}); allocs != 0 {
				t.Errorf("decoded Estimate allocates %.1f objects per query, want 0", allocs)
			}

			var buf bytes.Buffer
			if _, err := set.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			lazy, err := ReadSketchSet(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := lazy.Materialize(); err != nil { // warm every label
				t.Fatal(err)
			}
			q = 0
			if allocs := testing.AllocsPerRun(100, func() {
				lazy.Query(q%n, (q*37+11)%n)
				q++
			}); allocs != 0 {
				t.Errorf("warmed lazy Query allocates %.1f objects per query, want 0", allocs)
			}
		})
	}
}

// BenchmarkLoadSketchSet measures set startup from the saved envelope of
// every kind (256-node geometric graph): "heap" copies the payload with
// ReadSketchSet, "mmap" maps the file with OpenSketchSet. Both scan the
// O(n) directory and decode a label on first touch, so the mmap row
// allocates near nothing per label. Run it with -benchmem.
func BenchmarkLoadSketchSet(b *testing.B) {
	const n = 256
	g, err := NewRandomWeightedGraph(FamilyGeometric, n, 1, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	for _, kind := range []Kind{KindTZ, KindLandmark, KindCDG, KindGraceful} {
		set, err := Build(g, Options{Kind: kind, K: 3, Eps: 0.25, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var env bytes.Buffer
		if _, err := set.WriteTo(&env); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, string(kind)+".dsk")
		if err := os.WriteFile(path, env.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		loads := []struct {
			backing string
			load    func() (*SketchSet, error)
		}{
			{"heap", func() (*SketchSet, error) { return ReadSketchSet(bytes.NewReader(env.Bytes())) }},
			{"mmap", func() (*SketchSet, error) { return OpenSketchSet(path) }},
		}
		for _, l := range loads {
			b.Run(string(kind)+"/"+l.backing, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					loaded, err := l.load()
					if err != nil {
						b.Fatal(err)
					}
					if loaded.N() != n {
						b.Fatalf("loaded %d nodes, want %d", loaded.N(), n)
					}
					loaded.Close()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/label")
			})
		}
	}
}
