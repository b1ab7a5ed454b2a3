package distsketch

// Fuzz targets for the public entry points that face untrusted bytes:
// ParseSketch and Estimate accept data received from arbitrary peers
// (Section 2.1's "ask for its sketch") and must never panic, whatever
// arrives. The internal codecs have their own fuzzers; these exercise
// the facade's dispatch and wrapping on top of them.

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns one serialized sketch per kind from a small build.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	g, err := NewRandomWeightedGraph(FamilyGeometric, 24, 1, 9, 7)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, kind := range []Kind{KindTZ, KindLandmark, KindCDG, KindGraceful} {
		set, err := Build(g, Options{Kind: kind, K: 2, Eps: 0.25, Seed: 7})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, set.SketchBytes(0), set.SketchBytes(23))
	}
	return seeds
}

func FuzzParseSketch(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{5, 1, 2, 3})
	// Envelope headers (versions 1 and 2) fed to the label parser:
	// ParseSketch must reject container bytes as cleanly as corrupt labels.
	f.Add([]byte{0x44, 0x53, 0x4b, 0x53, 0x45, 0x54, 0x1, 0x24, 0x2, 0x2})
	f.Add([]byte{0x44, 0x53, 0x4b, 0x53, 0x45, 0x54, 0x2, 0x26, 0x2, 0x2})
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := ParseSketch(data)
		if err != nil {
			return
		}
		if sk == nil {
			t.Fatal("nil sketch without error")
		}
		if sk.Kind() == "" {
			t.Fatal("decoded sketch with empty kind")
		}
		// Accepted input must round-trip through the wire format.
		out, err := sk.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		again, err := ParseSketch(out)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		out2, _ := again.MarshalBinary()
		if !bytes.Equal(out, out2) {
			t.Fatal("marshal/parse/marshal not a fixed point")
		}
	})
}

// FuzzReadSketchSet hammers the envelope reader with full-set (version
// 2) and shard (version 3) envelopes, truncated directories, and
// arbitrary mutations. Whatever arrives, it must never panic; what it
// accepts must materialize cleanly or fail with an error, and a
// materialized set must round-trip through WriteTo.
func FuzzReadSketchSet(f *testing.F) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 16, 1, 9, 7)
	if err != nil {
		f.Fatal(err)
	}
	for _, kind := range []Kind{KindTZ, KindLandmark, KindCDG, KindGraceful} {
		set, err := Build(g, Options{Kind: kind, K: 2, Eps: 0.25, Seed: 7})
		if err != nil {
			f.Fatal(err)
		}
		var full, shard bytes.Buffer
		if _, err := set.WriteTo(&full); err != nil {
			f.Fatal(err)
		}
		if _, err := set.WriteShard(&shard, ShardRange{Lo: 4, Hi: 12}); err != nil {
			f.Fatal(err)
		}
		for _, env := range [][]byte{full.Bytes(), shard.Bytes()} {
			f.Add(bytes.Clone(env))
			f.Add(bytes.Clone(env[:len(env)/2])) // truncated mid-payload
			f.Add(bytes.Clone(env[:len(env)-2])) // truncated checksum
		}
	}
	f.Add([]byte("DSKSET"))
	f.Add([]byte{0x44, 0x53, 0x4b, 0x53, 0x45, 0x54, 0x2, 0x0})
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := ReadSketchSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		if set.N() == 0 || set.Kind() == "" {
			t.Fatal("accepted envelope with no sketches or kind")
		}
		if err := set.Materialize(); err != nil {
			return // lazily discovered corruption is an error, never a panic
		}
		var buf bytes.Buffer
		if _, err := set.WriteTo(&buf); err != nil {
			t.Fatalf("re-write of materialized set: %v", err)
		}
		again, err := ReadSketchSet(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of re-written set: %v", err)
		}
		if again.N() != set.N() || again.Kind() != set.Kind() {
			t.Fatal("round trip changed the set header")
		}
	})
}

func FuzzEstimate(f *testing.F) {
	seeds := fuzzSeeds(f)
	for i := 0; i+1 < len(seeds); i += 2 {
		f.Add(seeds[i], seeds[i+1])
	}
	f.Add([]byte{1}, []byte{2})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		d, err := Estimate(a, b)
		if err != nil {
			return
		}
		if d < 0 && d != Inf {
			t.Fatalf("negative estimate %d", d)
		}
	})
}
