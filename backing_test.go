package distsketch

// Lifecycle and zero-copy coverage for the mmap envelope backing: open
// must not copy payload bytes, and Clone/Close must refcount the mapping
// through the serving layer's clone-repair-swap discipline.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// buildBackingSet builds the fixture set the backing tests share: large
// enough that its envelope payload dwarfs the per-node directory
// bookkeeping, so the alloc-pinned zero-copy bound has headroom.
func buildBackingSet(t *testing.T) (*SketchSet, *Graph) {
	t.Helper()
	g, err := NewRandomWeightedGraph(FamilyGeometric, 256, 10, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(g, Options{Kind: KindLandmark, Eps: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return set, g
}

// saveTemp writes set to a fresh temp envelope and returns the path.
func saveTemp(t *testing.T, set *SketchSet, version int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "set.dsk")
	if err := SaveSketchSet(path, set, version); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadLazyForBacking loads a serialized envelope the way the configured
// test backing prescribes: ReadSketchSet from memory by default,
// OpenSketchSet over a temp file when DISTSKETCH_TEST_BACKING=mmap —
// the env-var matrix CI uses to run the envelope suite under both
// backings.
func loadLazyForBacking(t *testing.T, envelope []byte) *SketchSet {
	t.Helper()
	switch mode := os.Getenv("DISTSKETCH_TEST_BACKING"); mode {
	case "", "heap":
		set, err := ReadSketchSet(bytes.NewReader(envelope))
		if err != nil {
			t.Fatal(err)
		}
		return set
	case "mmap":
		path := filepath.Join(t.TempDir(), "set.dsk")
		if err := os.WriteFile(path, envelope, 0o644); err != nil {
			t.Fatal(err)
		}
		set, err := OpenSketchSet(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { set.Close() })
		return set
	default:
		t.Fatalf("unknown DISTSKETCH_TEST_BACKING %q (want heap or mmap)", mode)
		return nil
	}
}

// allocBytesDuring measures the bytes allocated on the heap while f
// runs (single-goroutine; the test must not run f concurrently with
// other allocating work).
func allocBytesDuring(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenSketchSetZeroCopy pins the tentpole's core promise: opening
// an envelope mmap'd allocates only directory bookkeeping — not the
// payload — while the streaming loader necessarily allocates at least
// the whole payload. The bound is generous (half the envelope) so the
// test pins the mechanism, not allocator noise.
func TestOpenSketchSetZeroCopy(t *testing.T) {
	set, _ := buildBackingSet(t)
	path := saveTemp(t, set, SetVersion2)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	envSize := uint64(fi.Size())

	var opened *SketchSet
	openAlloc := allocBytesDuring(func() {
		var err error
		opened, err = OpenSketchSet(path)
		if err != nil {
			t.Fatal(err)
		}
	})
	defer opened.Close()
	if opened.Backing() != "mmap" {
		t.Skipf("platform fallback gives %s backing; zero-copy bound only holds for mmap", opened.Backing())
	}
	if opened.MappedBytes() != int(envSize) {
		t.Errorf("MappedBytes = %d, want envelope size %d", opened.MappedBytes(), envSize)
	}
	if openAlloc >= envSize/2 {
		t.Errorf("OpenSketchSet allocated %d bytes for a %d-byte envelope; payload bytes are being copied", openAlloc, envSize)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	readAlloc := allocBytesDuring(func() {
		if _, err := ReadSketchSet(f); err != nil {
			t.Fatal(err)
		}
	})
	if readAlloc < envSize {
		t.Errorf("streaming load allocated %d bytes for a %d-byte envelope; measurement is broken", readAlloc, envSize)
	}
	t.Logf("envelope %d bytes: mmap open allocated %d, streaming load %d", envSize, openAlloc, readAlloc)
}

// TestOpenSketchSetEquivalence: every query against the mapped set
// answers identically to the built set, and identically to SketchBytes'
// wire blobs.
func TestOpenSketchSetEquivalence(t *testing.T) {
	set, _ := buildBackingSet(t)
	opened, err := OpenSketchSet(saveTemp(t, set, SetVersion2))
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if opened.DecodedSketches() != 0 {
		t.Fatalf("mmap open decoded %d labels up front, want 0", opened.DecodedSketches())
	}
	for u := 0; u < set.N(); u++ {
		if !bytes.Equal(opened.SketchBytes(u), set.SketchBytes(u)) {
			t.Fatalf("node %d: wire bytes differ between mapped and built set", u)
		}
		for v := u; v < set.N(); v += 17 {
			if got, want := opened.Query(u, v), set.Query(u, v); got != want {
				t.Fatalf("(%d,%d): mapped %d != built %d", u, v, got, want)
			}
		}
	}
}

// TestCloneCloseRefcount pins the handle lifecycle: each Clone holds
// its own reference, Close drops exactly one, and the mapping is
// released only when the last handle lets go.
func TestCloneCloseRefcount(t *testing.T) {
	set, _ := buildBackingSet(t)
	opened, err := OpenSketchSet(saveTemp(t, set, SetVersion2))
	if err != nil {
		t.Fatal(err)
	}
	b := opened.backing
	if b == nil {
		t.Fatal("open set has no backing")
	}
	if got := b.refs.Load(); got != 1 {
		t.Fatalf("refs after open = %d, want 1", got)
	}
	c := opened.Clone()
	if got := b.refs.Load(); got != 2 {
		t.Fatalf("refs after clone = %d, want 2", got)
	}
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
	if got := b.refs.Load(); got != 1 {
		t.Fatalf("refs after closing the original = %d, want 1 (clone still reads)", got)
	}
	if b.data == nil {
		t.Fatal("mapping released while the clone still holds a reference")
	}
	// The closed handle refuses label access; the clone answers normally.
	if _, err := opened.QueryChecked(0, 1); !errors.Is(err, ErrSetClosed) {
		t.Fatalf("query on closed handle: %v, want ErrSetClosed", err)
	}
	if got, want := c.Query(0, 1), set.Query(0, 1); got != want {
		t.Fatalf("clone query after original closed: %d != %d", got, want)
	}
	// Close is idempotent and does not over-release.
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
	if got := b.refs.Load(); got != 1 {
		t.Fatalf("refs after double close = %d, want 1", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := b.refs.Load(); got != 0 {
		t.Fatalf("refs after last close = %d, want 0", got)
	}
	if b.data != nil {
		t.Fatal("mapping not released after the last handle closed")
	}
}

// TestMaterializeReleasesBacking pins the clone-repair-swap interplay:
// materializing a clone (what UpdateEdges does before repairing) moves
// its labels to the heap and drops its backing reference, so the
// repaired set outlives the mapping.
func TestMaterializeReleasesBacking(t *testing.T) {
	set, _ := buildBackingSet(t)
	opened, err := OpenSketchSet(saveTemp(t, set, SetVersion2))
	if err != nil {
		t.Fatal(err)
	}
	b := opened.backing
	c := opened.Clone()
	if err := c.Materialize(); err != nil {
		t.Fatal(err)
	}
	if c.backing != nil {
		t.Fatal("materialized clone still holds a backing")
	}
	if c.Backing() != "heap" {
		t.Fatalf("materialized clone reports %s backing, want heap", c.Backing())
	}
	if got := b.refs.Load(); got != 1 {
		t.Fatalf("refs after clone materialize = %d, want 1", got)
	}
	// Unmap the original; the materialized clone must keep answering
	// (this is exactly the swapped-in repaired set outliving the old
	// mapping).
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
	if b.data != nil {
		t.Fatal("mapping not released after the only mapped handle closed")
	}
	for u := 0; u < c.N(); u += 13 {
		for v := u; v < c.N(); v += 29 {
			if got, want := c.Query(u, v), set.Query(u, v); got != want {
				t.Fatalf("(%d,%d): materialized %d != built %d", u, v, got, want)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneRepairSwapOnMmap runs the full serving-layer discipline at
// the library level: clone an mmap-backed set, repair the clone, swap
// it in (drop the original), and verify both the repair result and the
// mapping's release.
func TestCloneRepairSwapOnMmap(t *testing.T) {
	set, g := buildBackingSet(t)
	opened, err := OpenSketchSet(saveTemp(t, set, SetVersion2))
	if err != nil {
		t.Fatal(err)
	}
	b := opened.backing
	edges := g.Edges()
	e := edges[len(edges)/2]
	next, err := g.Reweighted([]Edge{{U: e.U, V: e.V, Weight: 1}}) // a decrease: always repairable
	if err != nil {
		t.Fatal(err)
	}
	clone := opened.Clone()
	if _, err := clone.UpdateEdges(next, []EdgeChange{{U: e.U, V: e.V}}); err != nil {
		t.Fatal(err)
	}
	// The repair materialized the clone, so its backing reference is
	// gone; the original still maps until closed.
	if clone.Backing() != "heap" {
		t.Fatalf("repaired clone reports %s backing, want heap", clone.Backing())
	}
	if got := b.refs.Load(); got != 1 {
		t.Fatalf("refs after clone repair = %d, want 1", got)
	}
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
	if b.data != nil {
		t.Fatal("mapping not released after swap-out close")
	}
	// The swapped-in set matches a fresh build on the new topology.
	fresh, err := Build(next, Options{Kind: KindLandmark, Eps: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < clone.N(); u += 11 {
		for v := u; v < clone.N(); v += 23 {
			if got, want := clone.Query(u, v), fresh.Query(u, v); got != want {
				t.Fatalf("(%d,%d): repaired %d != rebuilt %d", u, v, got, want)
			}
		}
	}
}

// TestConcurrentQueriesWithCloneClose is the -race exercise: readers
// hammer the open handle while another goroutine repeatedly clones,
// materializes, and closes its clones — the refcount churn a serving
// process generates under a stream of repairs.
func TestConcurrentQueriesWithCloneClose(t *testing.T) {
	set, _ := buildBackingSet(t)
	opened, err := OpenSketchSet(saveTemp(t, set, SetVersion2))
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	done := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		go func(seed int) {
			for i := 0; i < 500; i++ {
				u, v := (i*7+seed)%opened.N(), (i*13+seed*5)%opened.N()
				if _, err := opened.QueryChecked(u, v); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(r)
	}
	go func() {
		for i := 0; i < 20; i++ {
			c := opened.Clone()
			if err := c.Materialize(); err != nil {
				done <- err
				return
			}
			if err := c.Close(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < readers+1; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSketchSetCorruptQuarantine mirrors LoadSketchSet's recovery
// contract on the mmap path: a corrupt envelope is quarantined with the
// typed error, and the mapping does not leak.
func TestOpenSketchSetCorruptQuarantine(t *testing.T) {
	set, _ := buildBackingSet(t)
	path := saveTemp(t, set, SetVersion2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff // flip a payload bit behind the header
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenSketchSet(path)
	var ce *ErrCorruptEnvelope
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt open: %v, want *ErrCorruptEnvelope", err)
	}
	if ce.Path != path || ce.Quarantined != path+".corrupt" {
		t.Fatalf("quarantine metadata: %+v", ce)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt original still present: %v", err)
	}
}

// TestOpenSketchSetEmptyFile: a zero-byte envelope (a created-but-never
// -written file) quarantines instead of faulting an empty mapping.
func TestOpenSketchSetEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.dsk")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSketchSet(path)
	var ce *ErrCorruptEnvelope
	if !errors.As(err, &ce) {
		t.Fatalf("empty open: %v, want *ErrCorruptEnvelope", err)
	}
}
