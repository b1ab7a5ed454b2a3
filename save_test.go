package distsketch

// Fault injection for the persistence layer: every way an envelope can
// be damaged — truncated at any byte, any single bit flipped, a save
// killed mid-write, stale temp debris — must surface as a typed error
// (never a panic, never a wrong estimate), and the crash-safe save must
// provably leave the old envelope loadable byte-identically.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distsketch/internal/atomicfile"
)

// faultSet builds a small landmark set (the kind exercising every
// envelope section, density net included) for persistence fault tests.
func faultSet(t *testing.T) *SketchSet {
	t.Helper()
	g, err := NewRandomWeightedGraph(FamilyGeometric, 16, 1, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(g, Options{Kind: KindLandmark, Eps: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func envelopeBytes(t *testing.T, set *SketchSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := set.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTornEnvelopeEveryTruncation cuts the envelope at every byte — a
// superset of every section boundary (mid-magic, mid-header, mid-
// directory, mid-blob, mid-checksum) — and demands a typed
// *ErrCorruptEnvelope whose offset points inside the bytes that remain.
func TestTornEnvelopeEveryTruncation(t *testing.T) {
	env := envelopeBytes(t, faultSet(t))
	for cut := 0; cut < len(env); cut++ {
		_, err := ReadSketchSet(bytes.NewReader(env[:cut]))
		if err == nil {
			t.Fatalf("truncated at %d/%d bytes was accepted", cut, len(env))
		}
		var ce *ErrCorruptEnvelope
		if !errors.As(err, &ce) {
			t.Fatalf("truncated at %d: error not typed *ErrCorruptEnvelope: %v", cut, err)
		}
		if ce.Offset < 0 || ce.Offset > int64(cut) {
			t.Fatalf("truncated at %d: reported offset %d outside the %d bytes present", cut, ce.Offset, cut)
		}
	}
	// The untruncated envelope still loads — the loop above did not
	// depend on a broken baseline.
	if _, err := ReadSketchSet(bytes.NewReader(env)); err != nil {
		t.Fatalf("intact envelope failed to load: %v", err)
	}
}

// TestTornEnvelopeBitFlips flips every bit of every byte: the checksum
// (and the header validation ahead of it) must catch each one with a
// typed error. No flip may parse into a servable set — crc32 detects
// all single-bit errors, so an accepted flip would mean the checksum is
// not actually covering the bytes.
func TestTornEnvelopeBitFlips(t *testing.T) {
	env := envelopeBytes(t, faultSet(t))
	for pos := 0; pos < len(env); pos++ {
		for bit := 0; bit < 8; bit++ {
			mod := bytes.Clone(env)
			mod[pos] ^= 1 << bit
			_, err := ReadSketchSet(bytes.NewReader(mod))
			if err == nil {
				t.Fatalf("bit %d of byte %d flipped: corrupt envelope accepted", bit, pos)
			}
			var ce *ErrCorruptEnvelope
			if !errors.As(err, &ce) {
				t.Fatalf("bit %d of byte %d flipped: error not typed: %v", bit, pos, err)
			}
		}
	}
}

// TestFaultSaveKilledMidWrite kills a save partway through
// serialization (the in-process stand-in for SIGKILL between the first
// byte and the rename) and proves the previously saved envelope still
// loads byte-identically — the acceptance criterion for crash-safe
// persistence.
func TestFaultSaveKilledMidWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.dsk")
	set := faultSet(t)
	if err := SaveSketchSet(path, set, SetVersion2); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A writer that dies after emitting half an envelope.
	killed := errors.New("killed mid-write")
	half := envelopeBytes(t, set)
	half = half[:len(half)/2]
	err = atomicfile.WriteFile(path, func(w io.Writer) error {
		if _, werr := w.Write(half); werr != nil {
			return werr
		}
		return killed
	})
	if !errors.Is(err, killed) {
		t.Fatalf("interrupted save: got %v", err)
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now, orig) {
		t.Fatal("interrupted save changed the envelope bytes")
	}

	// A hard kill between CreateTemp and the rename leaves a stale temp;
	// the loader must sweep it and still serve the old envelope.
	stale := path + ".tmp-deadbeef"
	if err := os.WriteFile(stale, half, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketchSet(path)
	if err != nil {
		t.Fatalf("load after interrupted save: %v", err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale save temp survived LoadSketchSet")
	}
	for u := 0; u < set.N(); u++ {
		if !bytes.Equal(loaded.SketchBytes(u), set.SketchBytes(u)) {
			t.Fatalf("node %d: reloaded sketch bytes differ after interrupted save", u)
		}
	}
}

// TestFaultLoadQuarantinesCorrupt: a corrupt envelope on disk is moved
// aside (path+".corrupt") so the next restart does not crash-loop on
// it, and the typed error names the file, the offset, and where the
// bytes went.
func TestFaultLoadQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.dsk")
	set := faultSet(t)
	if err := SaveSketchSet(path, set, SetVersion2); err != nil {
		t.Fatal(err)
	}
	env, _ := os.ReadFile(path)
	if err := os.WriteFile(path, env[:len(env)-7], 0o644); err != nil { // torn tail
		t.Fatal(err)
	}
	_, err := LoadSketchSet(path)
	var ce *ErrCorruptEnvelope
	if !errors.As(err, &ce) {
		t.Fatalf("want *ErrCorruptEnvelope, got %v", err)
	}
	if ce.Path != path {
		t.Errorf("error path %q, want %q", ce.Path, path)
	}
	if ce.Quarantined != path+".corrupt" {
		t.Errorf("quarantined to %q, want %q", ce.Quarantined, path+".corrupt")
	}
	if !strings.Contains(ce.Error(), path) || !strings.Contains(ce.Error(), "byte") {
		t.Errorf("error text should name the file and offset: %q", ce.Error())
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt envelope still at the serving path")
	}
	if got, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(got, env[:len(env)-7]) {
		t.Error("quarantine did not preserve the corrupt bytes for forensics")
	}
	// The next load reports a missing file, not corruption: the crash
	// loop is broken.
	if _, err := LoadSketchSet(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("second load: want ErrNotExist, got %v", err)
	}
}

// TestTornLazyLabelTypedError pins satellite coverage for
// ErrCorruptLabel: a version-2 envelope whose blob body is corrupted
// behind a valid checksum (the crafted-envelope scenario) must answer
// first-touch queries with a typed error naming the node and the exact
// envelope byte offset of the bad blob.
func TestTornLazyLabelTypedError(t *testing.T) {
	// goldenV2 layout (absolute offsets, see envelope_test.go): payload
	// starts at 8, blob0 spans 36–40, blob1 41–45. Byte 38 is blob0's
	// entry count varint; 0x7e claims far more entries than fit.
	bad := bytes.Clone(goldenV2)
	bad[38] = 0x7e
	set, err := ReadSketchSet(bytes.NewReader(reCRC(t, bad)))
	if err != nil {
		t.Fatalf("lazy-valid crafted envelope rejected at load: %v", err)
	}
	_, qerr := set.QueryChecked(0, 1)
	var cl *ErrCorruptLabel
	if !errors.As(qerr, &cl) {
		t.Fatalf("want *ErrCorruptLabel, got %v", qerr)
	}
	if cl.Node != 0 {
		t.Errorf("Node = %d, want 0", cl.Node)
	}
	if cl.Offset != 36 {
		t.Errorf("Offset = %d, want 36 (blob0's envelope offset)", cl.Offset)
	}
	if !strings.Contains(qerr.Error(), "node 0") || !strings.Contains(qerr.Error(), "36") {
		t.Errorf("error should carry node and offset context: %q", qerr.Error())
	}
	// The healthy neighbor label still decodes: corruption is contained
	// to the node it damaged.
	if _, err := set.QueryChecked(1, 1); err != nil {
		t.Errorf("undamaged label refused to decode: %v", err)
	}
	// Materialize surfaces the same typed error.
	if merr := set.Materialize(); !errors.As(merr, &cl) {
		t.Errorf("Materialize: want *ErrCorruptLabel, got %v", merr)
	}

	// A lying directory word count is the other first-touch failure.
	bad = bytes.Clone(goldenV2)
	bad[33] = 0x7 // node 0 words: 7 instead of 2
	set, err = ReadSketchSet(bytes.NewReader(reCRC(t, bad)))
	if err != nil {
		t.Fatal(err)
	}
	if _, qerr := set.QueryChecked(0, 1); !errors.As(qerr, &cl) || cl.Node != 0 {
		t.Errorf("lying word count: want typed error for node 0, got %v", qerr)
	}
}

// TestFaultSaveLoadRoundTrip covers the happy path of the atomic save
// helper plus its input validation.
func TestFaultSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	set := faultSet(t)
	path := filepath.Join(dir, "v2.dsk")
	if err := SaveSketchSet(path, set, SetVersion2); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketchSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.EnvelopeVersion() != SetVersion2 || loaded.N() != set.N() {
		t.Fatalf("reload: version=%d n=%d", loaded.EnvelopeVersion(), loaded.N())
	}
	for u := 0; u < set.N(); u++ {
		for v := u; v < set.N(); v += 5 {
			if got, want := loaded.Query(u, v), set.Query(u, v); got != want {
				t.Fatalf("(%d,%d): %d != %d", u, v, got, want)
			}
		}
	}
	// Invalid versions, the retired version 1 among them: error out
	// before touching the filesystem.
	badPath := filepath.Join(dir, "bad.dsk")
	for _, version := range []int{1, 9} {
		if err := SaveSketchSet(badPath, set, version); err == nil {
			t.Errorf("envelope version %d accepted", version)
		}
	}
	if _, err := os.Stat(badPath); !errors.Is(err, os.ErrNotExist) {
		t.Error("failed save left a file behind")
	}
	if err := SaveSketchSet(badPath, nil, SetVersion2); err == nil {
		t.Error("nil set accepted")
	}
}
