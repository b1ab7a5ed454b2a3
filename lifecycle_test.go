package distsketch

// Tests for the build-once / decode-once / query-millions lifecycle: the
// first-class Sketch value, the persistable SketchSet, context-aware
// builds, and in-place incremental repair.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

var allKinds = []Kind{KindTZ, KindLandmark, KindCDG, KindGraceful}

// TestSketchSetRoundTrip: a set written to an envelope and reloaded must
// answer byte-identical estimates and carry the same cost accounting,
// for every kind.
func TestSketchSetRoundTrip(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 64, 1, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			set, err := Build(g, Options{Kind: kind, K: 2, Eps: 0.25, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			wrote, err := set.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if wrote != int64(buf.Len()) {
				t.Errorf("WriteTo reported %d bytes, wrote %d", wrote, buf.Len())
			}
			got, err := ReadSketchSet(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind() != kind || got.N() != set.N() {
				t.Fatalf("reloaded header kind=%s n=%d", got.Kind(), got.N())
			}
			if got.Cost().Total != set.Cost().Total {
				t.Errorf("cost total changed: %+v != %+v", got.Cost().Total, set.Cost().Total)
			}
			if len(got.Cost().Phases) != len(set.Cost().Phases) {
				t.Errorf("phase count changed: %d != %d", len(got.Cost().Phases), len(set.Cost().Phases))
			}
			for u := 0; u < set.N(); u++ {
				if !bytes.Equal(got.SketchBytes(u), set.SketchBytes(u)) {
					t.Fatalf("node %d: sketch bytes differ after reload", u)
				}
			}
			for u := 0; u < set.N(); u += 7 {
				for v := 0; v < set.N(); v += 5 {
					if got.Query(u, v) != set.Query(u, v) {
						t.Fatalf("(%d,%d): reloaded estimate differs", u, v)
					}
				}
			}
		})
	}
}

// TestSketchSetEnvelopeByteStable: serializing a reloaded set must
// reproduce the envelope byte for byte, for every kind. This is the
// compatibility guarantee behind keeping the envelope at version 1
// across the landmark sorted-slice refactor: the wire encoder emits
// entries in the same ascending-ID order the map-backed seed encoder
// produced, so persisted sets decode unchanged and round-trip to a
// fixed point.
func TestSketchSetEnvelopeByteStable(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 64, 1, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			set, err := Build(g, Options{Kind: kind, K: 2, Eps: 0.25, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			var first bytes.Buffer
			if _, err := set.WriteTo(&first); err != nil {
				t.Fatal(err)
			}
			reloaded, err := ReadSketchSet(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if _, err := reloaded.WriteTo(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatal("envelope is not byte-stable across a write/read/write cycle")
			}
		})
	}
}

// TestReadSketchSetRejectsCorrupt: the envelope must fail loudly, not
// decode garbage.
func TestReadSketchSetRejectsCorrupt(t *testing.T) {
	g, _ := NewRandomGraph(FamilyRing, 16, 1)
	set, err := Build(g, Options{Kind: KindTZ, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := set.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	if _, err := ReadSketchSet(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	bad := append([]byte("NOTSET"), blob[6:]...)
	if _, err := ReadSketchSet(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	bad = bytes.Clone(blob)
	bad[6] = 99 // version byte
	if _, err := ReadSketchSet(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: got %v", err)
	}
	bad = bytes.Clone(blob)
	bad[len(bad)/2] ^= 0x40 // payload corruption -> checksum mismatch
	if _, err := ReadSketchSet(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt payload accepted")
	}
	if _, err := ReadSketchSet(bytes.NewReader(blob[:len(blob)-3])); err == nil {
		t.Error("truncated input accepted")
	}
}

// TestBuildContextCancel: a canceled context aborts the construction
// promptly with an error wrapping ctx.Err(), both before the build and
// mid-build.
func TestBuildContextCancel(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 128, 1, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, g, Options{Kind: KindTZ, Seed: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled build: got %v, want context.Canceled", err)
	}

	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			rounds := 0
			opts := Options{Kind: kind, K: 2, Eps: 0.25, Seed: 3, Progress: func(phase string, round int) {
				rounds++
				if rounds == 3 {
					cancel() // mid-build, from the driver goroutine
				}
			}}
			_, err := BuildContext(ctx, g, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-build cancel: got %v, want context.Canceled", err)
			}
			// The engine checks before every round: cancellation at round
			// 3 must stop within one more round.
			if rounds > 4 {
				t.Errorf("build ran %d rounds after cancellation", rounds-3)
			}
		})
	}
}

// TestBuildContextProgress: the Progress hook sees every phase of the
// construction.
func TestBuildContextProgress(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 48, 1, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	_, err = BuildContext(context.Background(), g, Options{Kind: KindTZ, K: 3, Seed: 5,
		Progress: func(phase string, round int) {
			if round <= 0 {
				t.Errorf("non-positive round %d in phase %q", round, phase)
			}
			phases[phase]++
		}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"phase 2", "phase 1", "phase 0"} {
		if phases[want] == 0 {
			t.Errorf("phase %q never reported (saw %v)", want, phases)
		}
	}
}

// TestOptionsValidation: zero keeps its default meaning; invalid values
// are errors, not silent rewrites.
func TestOptionsValidation(t *testing.T) {
	g, _ := NewRandomGraph(FamilyRing, 12, 1)
	if set, err := Build(g, Options{Seed: 1}); err != nil || set.Kind() != KindTZ {
		t.Fatalf("zero options should default: %v", err)
	}
	for name, opts := range map[string]Options{
		"negative K":     {K: -2},
		"Eps = 1":        {Kind: KindLandmark, Eps: 1},
		"Eps > 1":        {Kind: KindCDG, Eps: 1.5},
		"negative Eps":   {Kind: KindLandmark, Eps: -0.25},
		"negative batch": {BandwidthBatch: -1},
		"negative delay": {MaxDelay: -3},
		"unknown kind":   {Kind: "bogus"},
	} {
		if _, err := Build(g, opts); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestUpdateEdgePublic: the facade repair path must reproduce a fresh
// rebuild exactly, keep working after a save/load cycle, and reject
// kinds without repair support.
func TestUpdateEdgePublic(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 80, 5, 50, 13)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(g, Options{Kind: KindLandmark, Eps: 0.25, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}

	// Persist before repairing: a reloaded set must still support repair
	// (the density net travels in the envelope).
	var buf bytes.Buffer
	if _, err := set.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSketchSet(&buf)
	if err != nil {
		t.Fatal(err)
	}

	e := g.Edges()[g.M()/2]
	ng, err := g.Reweighted([]Edge{{U: e.U, V: e.V, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}

	// A failed repair (edge not in the graph) must leave the set
	// exactly as it was.
	snapshot := set.Query(0, 79)
	if _, err := set.UpdateEdges(ng, []EdgeChange{{U: 0, V: 0}}); err == nil {
		t.Error("repair of a non-edge accepted")
	}
	if got := set.Query(0, 79); got != snapshot {
		t.Errorf("failed repair changed the set: %d != %d", got, snapshot)
	}

	beforeMsgs := set.Messages()
	repair, err := set.UpdateEdges(ng, []EdgeChange{{U: e.U, V: e.V}})
	if err != nil {
		t.Fatal(err)
	}
	if repair.Messages <= 0 {
		t.Errorf("repair reported %d messages", repair.Messages)
	}
	if set.Messages() != beforeMsgs+repair.Messages {
		t.Errorf("repair cost not accumulated into Cost().Total")
	}
	if _, err := loaded.UpdateEdges(ng, []EdgeChange{{U: e.U, V: e.V}}); err != nil {
		t.Fatalf("reloaded set repair: %v", err)
	}

	rebuilt, err := Build(ng, Options{Kind: KindLandmark, Eps: 0.25, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u += 3 {
		for v := 0; v < g.N(); v += 7 {
			want := rebuilt.Query(u, v)
			if got := set.Query(u, v); got != want {
				t.Fatalf("(%d,%d): repaired %d != rebuilt %d", u, v, got, want)
			}
			if got := loaded.Query(u, v); got != want {
				t.Fatalf("(%d,%d): reloaded+repaired %d != rebuilt %d", u, v, got, want)
			}
		}
	}

	// TZ sets repair through the same path now; CDG sets cannot certify a
	// single-edge change without a previous weight and must say so with
	// the rebuild sentinel.
	tzSet, err := Build(g, Options{Kind: KindTZ, K: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tzSet.UpdateEdges(ng, []EdgeChange{{U: e.U, V: e.V}}); err != nil {
		t.Errorf("UpdateEdges on a TZ set: %v", err)
	}
	cdgSet, err := Build(g, Options{Kind: KindCDG, K: 2, Eps: 0.25, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cdgSet.UpdateEdges(ng, []EdgeChange{{U: e.U, V: e.V}}); !errors.Is(err, ErrRebuildRequired) {
		t.Errorf("UpdateEdges on a CDG set without PrevWeight: got %v, want ErrRebuildRequired", err)
	}
}

// TestParseSketchErrors: the public decode path rejects malformed input
// with errors, never panics.
func TestParseSketchErrors(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":       nil,
		"unknown tag": {42, 1, 2, 3},
		"truncated":   {1, 2},
		"huge k":      {1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, // k ≫ input length
	} {
		if _, err := ParseSketch(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	g, _ := NewRandomGraph(FamilyRing, 8, 1)
	a, _ := Build(g, Options{Kind: KindTZ, K: 1, Seed: 1})
	b, _ := Build(g, Options{Kind: KindLandmark, Eps: 0.25, Seed: 1})
	sa, err := ParseSketch(a.SketchBytes(0))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ParseSketch(b.SketchBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Estimate(sb); err == nil {
		t.Error("cross-kind Estimate accepted")
	}
	if _, err := sa.Estimate(nil); err == nil {
		t.Error("nil Estimate accepted")
	}
}

// TestSketchAccessors: the decoded value exposes what the wire blob
// carried.
func TestSketchAccessors(t *testing.T) {
	g, _ := NewRandomGraph(FamilyGrid, 25, 2)
	set, err := Build(g, Options{Kind: KindTZ, K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < set.N(); u += 6 {
		blob := set.SketchBytes(u)
		sk, err := ParseSketch(blob)
		if err != nil {
			t.Fatal(err)
		}
		if sk.Kind() != KindTZ || sk.Owner() != u || sk.Words() != set.SketchWords(u) {
			t.Errorf("node %d: kind=%s owner=%d words=%d", u, sk.Kind(), sk.Owner(), sk.Words())
		}
		out, err := sk.MarshalBinary()
		if err != nil || !bytes.Equal(out, blob) {
			t.Errorf("node %d: MarshalBinary does not round-trip", u)
		}
	}
}
