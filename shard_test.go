package distsketch

// Node-range sharding coverage: slicing produces byte-identical blobs
// under a version-3 envelope, a loaded shard answers its range exactly
// like the full set and redirects the rest, and the read-only contract
// holds.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func buildShardSet(t *testing.T) *SketchSet {
	t.Helper()
	g, err := NewRandomWeightedGraph(FamilyGeometric, 100, 10, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(g, Options{Kind: KindLandmark, Eps: 0.25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestEvenShardRanges(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{10, 1}, {10, 3}, {100, 4}, {7, 7}} {
		ranges := EvenShardRanges(tc.n, tc.shards)
		if len(ranges) != tc.shards {
			t.Fatalf("EvenShardRanges(%d,%d): %d ranges", tc.n, tc.shards, len(ranges))
		}
		want := 0
		for _, r := range ranges {
			if r.Lo != want || r.Hi <= r.Lo {
				t.Fatalf("EvenShardRanges(%d,%d): bad tiling %v", tc.n, tc.shards, ranges)
			}
			if size := r.Hi - r.Lo; size < tc.n/tc.shards || size > tc.n/tc.shards+1 {
				t.Fatalf("EvenShardRanges(%d,%d): uneven range %s", tc.n, tc.shards, r)
			}
			want = r.Hi
		}
		if want != tc.n {
			t.Fatalf("EvenShardRanges(%d,%d): ends at %d", tc.n, tc.shards, want)
		}
	}
	for _, bad := range []struct{ n, shards int }{{10, 0}, {10, 11}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EvenShardRanges(%d,%d) did not panic", bad.n, bad.shards)
				}
			}()
			EvenShardRanges(bad.n, bad.shards)
		}()
	}
}

// TestShardRoundTrip is the core slicing contract: SaveShards slices a
// set into envelopes whose blobs are byte-identical to the full set's,
// and each loaded shard answers its global ids with exactly the full
// set's estimates.
func TestShardRoundTrip(t *testing.T) {
	set := buildShardSet(t)
	dir := t.TempDir()
	ranges := EvenShardRanges(set.N(), 4)
	paths, err := SaveShards(dir, set, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("SaveShards wrote %d envelopes, want 4", len(paths))
	}
	for i, path := range paths {
		shard, err := LoadSketchSet(path)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !shard.Sharded() {
			t.Fatalf("shard %d does not report Sharded", i)
		}
		if shard.EnvelopeVersion() != SetVersion3 {
			t.Fatalf("shard %d: envelope v%d, want v%d", i, shard.EnvelopeVersion(), SetVersion3)
		}
		lo, hi := shard.NodeRange()
		if lo != ranges[i].Lo || hi != ranges[i].Hi {
			t.Fatalf("shard %d: range [%d,%d), want %s", i, lo, hi, ranges[i])
		}
		if shard.TotalNodes() != set.N() {
			t.Fatalf("shard %d: total %d, want %d", i, shard.TotalNodes(), set.N())
		}
		if shard.Kind() != set.Kind() {
			t.Fatalf("shard %d: kind %s", i, shard.Kind())
		}
		for u := lo; u < hi; u++ {
			if !bytes.Equal(shard.SketchBytes(u), set.SketchBytes(u)) {
				t.Fatalf("shard %d node %d: wire bytes differ from the full set", i, u)
			}
			for v := lo; v < hi; v += 7 {
				if got, want := shard.Query(u, v), set.Query(u, v); got != want {
					t.Fatalf("shard %d (%d,%d): %d != full set's %d", i, u, v, got, want)
				}
			}
		}
	}
}

// TestShardOpenMmap: a shard envelope opens zero-copy like any other
// lazy envelope and keeps its global addressing.
func TestShardOpenMmap(t *testing.T) {
	set := buildShardSet(t)
	dir := t.TempDir()
	ranges := EvenShardRanges(set.N(), 3)
	paths, err := SaveShards(dir, set, ranges)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := OpenSketchSet(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	lo, hi := shard.NodeRange()
	if lo != ranges[1].Lo || hi != ranges[1].Hi {
		t.Fatalf("mmap shard range [%d,%d), want %s", lo, hi, ranges[1])
	}
	for u := lo; u < hi; u += 3 {
		if got, want := shard.Query(u, u), set.Query(u, u); got != want {
			t.Fatalf("(%d,%d): %d != %d", u, u, got, want)
		}
	}
}

// TestShardRangeErrors separates the two misses: an id owned by another
// shard wraps ErrShardRange (redirectable), an id outside the whole
// space wraps ErrNodeRange (nonexistent).
func TestShardRangeErrors(t *testing.T) {
	set := buildShardSet(t)
	dir := t.TempDir()
	ranges := EvenShardRanges(set.N(), 4)
	paths, err := SaveShards(dir, set, ranges)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := LoadSketchSet(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := shard.NodeRange()
	otherShard := ranges[0].Lo // exists, owned by shard 0
	_, err = shard.QueryChecked(otherShard, lo)
	if !errors.Is(err, ErrShardRange) {
		t.Fatalf("query for other shard's id: %v, want ErrShardRange", err)
	}
	if errors.Is(err, ErrNodeRange) {
		t.Fatal("shard miss must not also match ErrNodeRange")
	}
	if !strings.Contains(err.Error(), "outside shard") {
		t.Fatalf("shard miss message lacks context: %v", err)
	}
	_, err = shard.QueryChecked(set.N()+5, lo)
	if !errors.Is(err, ErrNodeRange) {
		t.Fatalf("query beyond the id space: %v, want ErrNodeRange", err)
	}
	if errors.Is(err, ErrShardRange) {
		t.Fatal("nonexistent id must not match ErrShardRange")
	}
	if _, err := shard.SketchBytesChecked(otherShard); !errors.Is(err, ErrShardRange) {
		t.Fatalf("SketchBytesChecked for other shard's id: %v, want ErrShardRange", err)
	}
	if _, err := shard.SketchBytesChecked(hi); lo > 0 && !errors.Is(err, ErrShardRange) {
		t.Fatalf("SketchBytesChecked just past the shard: %v, want ErrShardRange", err)
	}
}

// TestShardCorruptLabelNamesGlobalNode: a corrupt label of a shard that
// does not start at node 0 is reported under its global id, not its
// shard-local slot, by the query path and by Materialize alike.
func TestShardCorruptLabelNamesGlobalNode(t *testing.T) {
	var buf bytes.Buffer
	if _, err := goldenEnvelopeSet().WriteShard(&buf, ShardRange{Lo: 1, Hi: 2}); err != nil {
		t.Fatal(err)
	}
	// The shard holds node 1 alone; byte 35 is its directory word count
	// (payload from byte 8: kind, n, lo, total, cost, phases, net, then
	// the directory's blob length and words). Claim 7 words, not 2.
	bad := bytes.Clone(buf.Bytes())
	if bad[35] != 2 {
		t.Fatalf("byte 35 = %d, want node 1's word count 2: the shard layout moved", bad[35])
	}
	bad[35] = 7
	shard, err := ReadSketchSet(bytes.NewReader(reCRC(t, bad)))
	if err != nil {
		t.Fatalf("crafted shard rejected at load: %v", err)
	}
	var cl *ErrCorruptLabel
	if _, err := shard.QueryChecked(1, 1); !errors.As(err, &cl) || cl.Node != 1 {
		t.Fatalf("QueryChecked(1, 1) = %v, want *ErrCorruptLabel naming node 1", err)
	}
	if err := shard.Materialize(); !errors.As(err, &cl) || cl.Node != 1 {
		t.Fatalf("Materialize = %v, want *ErrCorruptLabel naming node 1", err)
	}
}

// TestShardReadOnly pins the repair contract: shards reject repairs,
// can only serialize as version 3, and cannot be re-split.
func TestShardReadOnly(t *testing.T) {
	set := buildShardSet(t)
	dir := t.TempDir()
	paths, err := SaveShards(dir, set, EvenShardRanges(set.N(), 2))
	if err != nil {
		t.Fatal(err)
	}
	shard, err := LoadSketchSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewRandomWeightedGraph(FamilyGeometric, set.N(), 10, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.UpdateEdges(g, []EdgeChange{{U: 0, V: 1}}); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("UpdateEdges on a shard: %v, want read-only rejection", err)
	}
	// A version mismatch is refused before the filesystem is touched.
	badPath := filepath.Join(dir, "bad.dsk")
	if err := SaveSketchSet(badPath, shard, SetVersion2); err == nil {
		t.Fatal("SaveSketchSet(v2) on a shard must fail (no shard range in v2)")
	}
	var buf bytes.Buffer
	if _, err := shard.WriteShard(&buf, ShardRange{Lo: 0, Hi: 10}); err == nil {
		t.Fatal("re-splitting a shard must fail")
	}
	// WriteTo on a shard picks version 3 and round-trips.
	buf.Reset()
	if _, err := shard.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := ReadSketchSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := shard.NodeRange()
	if rlo, rhi := re.NodeRange(); rlo != lo || rhi != hi || re.TotalNodes() != shard.TotalNodes() {
		t.Fatalf("shard WriteTo round trip: [%d,%d)/%d, want [%d,%d)/%d",
			rlo, rhi, re.TotalNodes(), lo, hi, shard.TotalNodes())
	}
	// An unsharded set cannot masquerade as a shard.
	if err := SaveSketchSet(badPath, set, SetVersion3); err == nil {
		t.Fatal("SaveSketchSet(v3) on an unsharded set must fail")
	}
	if _, err := os.Stat(badPath); !errors.Is(err, os.ErrNotExist) {
		t.Error("refused save left a file behind")
	}
}

// TestWriteShardsValidation: ranges that do not exactly tile [0, N())
// are refused before any bytes are written.
func TestWriteShardsValidation(t *testing.T) {
	set := buildShardSet(t)
	n := set.N()
	bad := [][]ShardRange{
		{},                                    // no ranges
		{{Lo: 0, Hi: n - 1}},                  // short of n
		{{Lo: 1, Hi: n}},                      // missing node 0
		{{Lo: 0, Hi: 50}, {Lo: 60, Hi: n}},    // gap
		{{Lo: 0, Hi: 60}, {Lo: 50, Hi: n}},    // overlap
		{{Lo: 0, Hi: 50}, {Lo: 50, Hi: 50}},   // empty range
		{{Lo: 50, Hi: n}, {Lo: 0, Hi: 50}},    // out of order
		{{Lo: 0, Hi: n}, {Lo: n, Hi: n + 10}}, // past the end
	}
	for i, ranges := range bad {
		bufs := make([]bytes.Buffer, len(ranges))
		ws := make([]io.Writer, len(ranges))
		for j := range bufs {
			ws[j] = &bufs[j]
		}
		if err := set.WriteShards(ws, ranges); err == nil {
			t.Errorf("case %d: WriteShards accepted bad ranges %v", i, ranges)
		}
	}
	if _, err := SaveShards(t.TempDir(), set, []ShardRange{{Lo: 0, Hi: n - 1}}); err == nil {
		t.Error("SaveShards accepted ranges short of n")
	}
}
