package distsketch

// Envelope format tests: golden bytes pinning version 2, rejection of
// the retired version 1, the lazy-loading contract (zero up-front label
// decodes, byte-identical query results), and rejection of crafted
// version-2 envelopes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distsketch/internal/sketch"
)

// goldenEnvelopeSet is a hand-built two-node landmark set with fixed
// cost accounting, small enough that its envelope bytes can be pinned
// literally in the golden tests below.
func goldenEnvelopeSet() *SketchSet {
	l0 := &sketch.LandmarkLabel{Owner: 0, Entries: []sketch.Entry{{Net: 1, D: 3}}}
	l1 := &sketch.LandmarkLabel{Owner: 1, Entries: []sketch.Entry{{Net: 1, D: 0}}}
	return &SketchSet{
		kind:   KindLandmark,
		labels: builtStore(KindLandmark, []*sketch.LandmarkLabel{l0, l1}),
		cost: CostBreakdown{
			Total:        Stats{Rounds: 2, Messages: 5, Words: 7},
			DataMessages: 5,
			Phases:       []PhaseCost{{Name: "landmark", Stats: Stats{Rounds: 2, Messages: 5, Words: 7}}},
		},
		net: []int{1},
	}
}

// goldenV1 and goldenV2 are the envelope bytes of goldenEnvelopeSet:
// magic, version, payload length, payload (kind tag, node count, cost,
// phases, net, sketches), crc32. goldenV2 is what WriteTo emits, with
// the per-node length+words directory ahead of the blobs; goldenV1 is
// the retired eager layout (length-prefixed blobs), kept as the input
// every loader must reject.
var goldenV1 = []byte{
	0x44, 0x53, 0x4b, 0x53, 0x45, 0x54, 0x1, 0x24, 0x2, 0x2, 0x2, 0x5, 0x7, 0x5, 0x0, 0x0,
	0x0, 0x1, 0x8, 0x6c, 0x61, 0x6e, 0x64, 0x6d, 0x61, 0x72, 0x6b, 0x2, 0x5, 0x7, 0x1, 0x1,
	0x5, 0x2, 0x0, 0x2, 0x2, 0x6, 0x5, 0x2, 0x2, 0x2, 0x2, 0x0, 0xf4, 0x62, 0xd3, 0x20,
}

var goldenV2 = []byte{
	0x44, 0x53, 0x4b, 0x53, 0x45, 0x54, 0x2, 0x26, 0x2, 0x2, 0x2, 0x5, 0x7, 0x5, 0x0, 0x0,
	0x0, 0x1, 0x8, 0x6c, 0x61, 0x6e, 0x64, 0x6d, 0x61, 0x72, 0x6b, 0x2, 0x5, 0x7, 0x1, 0x1,
	0x5, 0x2, 0x5, 0x2, 0x2, 0x0, 0x2, 0x2, 0x6, 0x2, 0x2, 0x2, 0x2, 0x0, 0x98, 0xe5, 0xea, 0xd9,
}

// TestEnvelopeV1Rejected: version 1 is no longer read. Every loader
// rejects it as an unsupported version — a typed corruption error at
// the version byte naming the supported range — and the file loaders
// quarantine it like any other envelope they cannot trust.
func TestEnvelopeV1Rejected(t *testing.T) {
	check := func(what string, err error) *ErrCorruptEnvelope {
		t.Helper()
		var ce *ErrCorruptEnvelope
		if !errors.As(err, &ce) {
			t.Fatalf("%s: %v, want *ErrCorruptEnvelope", what, err)
		}
		if ce.Offset != int64(len(setMagic)) {
			t.Errorf("%s: offset %d, want %d (the version byte)", what, ce.Offset, len(setMagic))
		}
		if msg := ce.Error(); !strings.Contains(msg, "version 1 ") || !strings.Contains(msg, "versions 2 through 3") {
			t.Errorf("%s: message %q does not name version 1 and the supported range", what, msg)
		}
		return ce
	}
	_, err := ReadSketchSet(bytes.NewReader(goldenV1))
	check("ReadSketchSet", err)

	for name, load := range map[string]func(string) (*SketchSet, error){
		"LoadSketchSet": LoadSketchSet,
		"OpenSketchSet": OpenSketchSet,
	} {
		path := filepath.Join(t.TempDir(), "v1.dsk")
		if err := os.WriteFile(path, goldenV1, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := load(path)
		if ce := check(name, err); ce.Path != path || ce.Quarantined != path+".corrupt" {
			t.Errorf("%s: quarantine metadata %+v", name, ce)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Errorf("%s: quarantined file missing: %v", name, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: v1 file still in place: %v", name, err)
		}
	}
}

// TestGoldenEnvelopeV2 pins the version-2 envelope — directory layout
// included — byte for byte.
func TestGoldenEnvelopeV2(t *testing.T) {
	var buf bytes.Buffer
	if _, err := goldenEnvelopeSet().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), goldenV2) {
		t.Fatalf("v2 envelope bytes drifted:\n got %#v\nwant %#v", buf.Bytes(), goldenV2)
	}
	set, err := ReadSketchSet(bytes.NewReader(goldenV2))
	if err != nil {
		t.Fatal(err)
	}
	if set.EnvelopeVersion() != SetVersion2 || set.N() != 2 || set.Kind() != KindLandmark {
		t.Fatalf("decoded golden v2: version=%d n=%d kind=%s", set.EnvelopeVersion(), set.N(), set.Kind())
	}
	if got := set.DecodedSketches(); got != 0 {
		t.Errorf("v2 load decoded %d labels up front, want 0", got)
	}
	if set.SketchWords(0) != 2 || set.SketchWords(1) != 2 {
		t.Errorf("directory words = %d,%d, want 2,2", set.SketchWords(0), set.SketchWords(1))
	}
	if d := set.Query(0, 1); d != 3 {
		t.Errorf("golden v2 query = %d, want 3", d)
	}
}

// TestLazyLoadEquivalence pins the acceptance contract of envelope v2:
// loading performs zero full-label decodes up front, and every query
// against the lazily loaded set returns exactly what the built set
// returns.
func TestLazyLoadEquivalence(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 64, 1, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			eager, err := Build(g, Options{Kind: kind, K: 2, Eps: 0.25, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			var v2 bytes.Buffer
			if _, err := eager.WriteTo(&v2); err != nil {
				t.Fatal(err)
			}
			// The lazy load honors the DISTSKETCH_TEST_BACKING matrix: the
			// same assertions must hold for a heap-read and an mmap-opened
			// envelope.
			lazy := loadLazyForBacking(t, v2.Bytes())
			if got := lazy.DecodedSketches(); got != 0 {
				t.Fatalf("v2 load decoded %d labels up front, want 0", got)
			}
			if eager.DecodedSketches() != eager.N() {
				t.Fatalf("built set is not fully decoded: %d/%d", eager.DecodedSketches(), eager.N())
			}
			// Size statistics come from the directory without decoding.
			if lazy.MaxSketchWords() != eager.MaxSketchWords() || lazy.MeanSketchWords() != eager.MeanSketchWords() {
				t.Error("directory-backed size stats disagree with decoded stats")
			}
			if got := lazy.DecodedSketches(); got != 0 {
				t.Fatalf("size statistics decoded %d labels, want 0", got)
			}
			for u := 0; u < eager.N(); u++ {
				for v := u; v < eager.N(); v += 3 {
					if le, ee := lazy.Query(u, v), eager.Query(u, v); le != ee {
						t.Fatalf("(%d,%d): lazy %d != eager %d", u, v, le, ee)
					}
				}
			}
			if got := lazy.DecodedSketches(); got != lazy.N() {
				t.Errorf("after touching every node: %d/%d decoded", got, lazy.N())
			}
			if err := lazy.Materialize(); err != nil {
				t.Fatal(err)
			}
			if lazy.EnvelopeVersion() != SetVersion2 {
				t.Error("Materialize dropped the envelope version")
			}
		})
	}
}

// TestLazyConcurrentQueries hammers a lazily loaded set from many
// goroutines racing to first-touch the same labels — the serving
// layer's lock-free read pattern. Run under -race in CI: the atomic
// decode slots must make concurrent first touches safe, and every
// goroutine must see estimates identical to the eager set's.
func TestLazyConcurrentQueries(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 64, 1, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(g, Options{Kind: KindLandmark, Eps: 0.25, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := set.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	lazy := loadLazyForBacking(t, v2.Bytes())
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int) {
			for i := 0; i < 2000; i++ {
				u, v := (i+seed)%set.N(), (i*31+17)%set.N()
				got, err := lazy.QueryChecked(u, v)
				if err != nil {
					errs <- err
					return
				}
				if want := set.Query(u, v); got != want {
					errs <- fmt.Errorf("(%d,%d): lazy %d != built %d", u, v, got, want)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := lazy.DecodedSketches(); got != lazy.N() {
		t.Errorf("decoded %d/%d after full coverage", got, lazy.N())
	}
}

// reCRC recomputes a (possibly mutated) envelope's payload checksum so
// corruption tests exercise the structural validation behind it rather
// than the checksum itself.
func reCRC(t *testing.T, env []byte) []byte {
	t.Helper()
	rest := env[len(setMagic)+1:]
	plen, n := binary.Uvarint(rest)
	if n <= 0 {
		t.Fatal("bad envelope length")
	}
	payload := rest[n : n+int(plen)]
	out := bytes.Clone(env)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(payload))
	return out
}

// TestEnvelopeV2RejectsCrafted: version-2 envelopes with a valid
// checksum but inconsistent directories or blobs must fail loudly — at
// load for structural lies, at first touch for undecodable label bodies.
func TestEnvelopeV2RejectsCrafted(t *testing.T) {
	// goldenV2 payload map (absolute offsets): 8 kind tag, 9 node count,
	// 10–31 cost/phases/net, 32–35 directory (len0, words0, len1,
	// words1), 36–40 blob0, 41–45 blob1, 46–49 crc.
	base := goldenV2

	// Directory blob length lying beyond the payload.
	bad := bytes.Clone(base)
	bad[32] = 0x3f
	if _, err := ReadSketchSet(bytes.NewReader(reCRC(t, bad))); err == nil {
		t.Error("lying directory length accepted")
	}

	// Truncated directory: node count raised above the entries present,
	// so later "directory entries" are really blob bytes and the blob
	// region no longer lines up.
	bad = bytes.Clone(base)
	bad[9] = 0x4
	if _, err := ReadSketchSet(bytes.NewReader(reCRC(t, bad))); err == nil {
		t.Error("truncated directory accepted")
	}

	// Wrong owner in the second blob (offset 42 is its owner varint).
	bad = bytes.Clone(base)
	bad[42] = 0x8 // owner 4 instead of 1
	if _, err := ReadSketchSet(bytes.NewReader(reCRC(t, bad))); err == nil {
		t.Error("wrong sketch owner accepted")
	}

	// Wrong kind tag in the first blob.
	bad = bytes.Clone(base)
	bad[36] = byte(1) // TZ tag in a landmark set
	if _, err := ReadSketchSet(bytes.NewReader(reCRC(t, bad))); err == nil {
		t.Error("wrong sketch tag accepted")
	}

	// Structurally invalid blob body behind a correct tag and owner: the
	// lazy load accepts it, the first touch must surface the error
	// through the checked accessors without panicking.
	bad = bytes.Clone(base)
	bad[38] = 0x7e // first blob's entry count varint: far more than fits
	set, err := ReadSketchSet(bytes.NewReader(reCRC(t, bad)))
	if err != nil {
		t.Fatalf("structurally lazy-valid envelope rejected at load: %v", err)
	}
	if _, qerr := set.QueryChecked(0, 1); qerr == nil {
		t.Error("undecodable lazy label answered a query")
	}
	if merr := set.Materialize(); merr == nil {
		t.Error("undecodable lazy label survived Materialize")
	}

	// A lying directory word count passes the load-time scan (size stats
	// are directory-backed by design) but must be caught the moment the
	// label is actually decoded.
	bad = bytes.Clone(base)
	bad[33] = 0x7 // first node's words: 7 instead of the real 2
	set, err = ReadSketchSet(bytes.NewReader(reCRC(t, bad)))
	if err != nil {
		t.Fatalf("lying word count rejected at load: %v", err)
	}
	if got := set.SketchWords(0); got != 7 {
		t.Fatalf("pre-touch SketchWords = %d, want the directory's 7", got)
	}
	if _, qerr := set.QueryChecked(0, 1); qerr == nil {
		t.Error("label with lying directory word count answered a query")
	}
}
