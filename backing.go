package distsketch

// Pluggable read-only payload backing for sketch sets. A set built in
// process owns its labels on the heap; a set opened with OpenSketchSet
// points its stored blobs straight into an mmap'd envelope file, so a
// multi-GB sketch set serves from the page cache with an O(n) directory
// scan at startup, zero payload-byte copies, and the OS evicting labels
// nobody queries.
//
// Lifecycle: the mapping is reference-counted per SketchSet handle.
// OpenSketchSet returns a handle holding one reference; Clone takes
// another; Materialize (which decodes every label onto the heap, and is
// what UpdateEdges does before repairing) drops the clone's reference
// because the materialized set no longer reads the mapping. Close drops
// this handle's reference, and the file is unmapped when the last
// reference goes — so the serving layer's clone-repair-swap discipline
// needs no extra coordination: the swapped-out mmap set stays valid for
// in-flight readers until its handle is closed or collected. A handle
// that is dropped without Close is released by a finalizer, the same
// safety net os.File uses; deterministic shutdown should still Close.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"sync/atomic"

	"distsketch/internal/atomicfile"
)

// ErrSetClosed reports use of a SketchSet after Close. Only sets with a
// mapped backing need Close at all; a closed set refuses label access
// instead of faulting on unmapped pages.
var ErrSetClosed = errors.New("distsketch: sketch set is closed")

// backing owns the byte region a loaded set's stored blobs point into
// when that region is not ordinary heap memory. refs counts the
// SketchSet handles sharing it; the region is released when the last
// handle drops (Close, Materialize, or finalizer).
type backing struct {
	data []byte
	// mapped is true for a real OS mapping; the non-unix fallback reads
	// the file onto the heap and reports itself as heap backing.
	mapped bool
	refs   atomic.Int64
	unmap  func([]byte) error
}

func (b *backing) retain() { b.refs.Add(1) }

// release drops one reference, unmapping the region when the count hits
// zero. Callers guarantee no live handle still reads the region once
// their reference is gone.
func (b *backing) release() error {
	n := b.refs.Add(-1)
	if n > 0 {
		return nil
	}
	if n < 0 {
		panic("distsketch: sketch-set backing released more often than retained")
	}
	data := b.data
	b.data = nil
	if data != nil && b.unmap != nil {
		return b.unmap(data)
	}
	return nil
}

// Backing reports how the set's payload bytes are owned: "mmap" for a
// set opened with OpenSketchSet whose blobs point into a mapped
// envelope file, "heap" for everything else (built sets, stream loads,
// materialized sets, and the non-mmap fallback platform).
func (s *SketchSet) Backing() string {
	if s.backing != nil && s.backing.mapped {
		return "mmap"
	}
	return "heap"
}

// MappedBytes reports the size of the mapped envelope region backing
// this set, or 0 for heap-backed sets.
func (s *SketchSet) MappedBytes() int {
	if s.backing != nil && s.backing.mapped {
		return len(s.backing.data)
	}
	return 0
}

// Close releases this handle's reference on the set's backing; the
// envelope file is unmapped when the last handle (the open set and
// every live Clone) has dropped its reference. After Close the set
// refuses label access with ErrSetClosed. Close is idempotent and a
// no-op for heap-backed sets. It must not be called concurrently with
// queries on the same handle — the serving layer swaps a set out of the
// read path first, then closes it.
func (s *SketchSet) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.dropBacking()
}

// dropBacking releases this handle's backing reference and disarms its
// finalizer. Shared by Close and Materialize (a materialized set owns
// heap labels and has no further use for the mapping).
func (s *SketchSet) dropBacking() error {
	b := s.backing
	if b == nil {
		return nil
	}
	s.backing = nil
	runtime.SetFinalizer(s, nil)
	return b.release()
}

// finalize is the GC safety net for handles dropped without Close: the
// serving layer swaps repaired clones in atomically and cannot know
// when the last in-flight reader of a swapped-out set finishes, so the
// swapped-out handle's reference is released when the collector proves
// nothing references it anymore.
func (s *SketchSet) finalize() { _ = s.Close() }

// adoptBacking installs b (already retained for this handle) and arms
// the finalizer safety net.
func (s *SketchSet) adoptBacking(b *backing) {
	s.backing = b
	runtime.SetFinalizer(s, (*SketchSet).finalize)
}

// OpenSketchSet opens the sketch-set envelope at path with the payload
// memory-mapped instead of copied: startup performs the header and
// checksum validation plus the O(n) directory scan, and every lazy blob
// points straight into the mapping — zero payload-byte copies, so a
// multi-GB set is servable the moment the directory scan finishes and
// cold labels live in the page cache, not the heap.
//
// The same recovery behavior as LoadSketchSet applies: stale temp files
// from an interrupted save are swept first, and a torn or corrupt
// envelope is quarantined to path+".corrupt" with a typed
// *ErrCorruptEnvelope; an unsupported envelope version counts as
// corrupt.
//
// The returned set (and every Clone of it) must be Closed when no
// longer queried; see Close for the lifecycle.
func OpenSketchSet(path string) (*SketchSet, error) {
	_, _ = atomicfile.CleanStale(path)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, quarantine(path, corrupt(0, "empty envelope file"))
	}
	if size > math.MaxInt-1 {
		return nil, fmt.Errorf("distsketch: %s: %d bytes exceed the addressable mapping size", path, size)
	}
	data, mapped, unmap, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("distsketch: mapping %s: %w", path, err)
	}
	set, err := parseMappedEnvelope(data)
	if err != nil {
		if unmap != nil {
			_ = unmap(data)
		}
		return nil, quarantine(path, err)
	}
	b := &backing{data: data, mapped: mapped, unmap: unmap}
	b.refs.Store(1)
	set.adoptBacking(b)
	return set, nil
}

// parseMappedEnvelope validates and parses an envelope held entirely in
// data (a mapping of the whole file). Unlike the streaming
// ReadSketchSet, the payload length is corroborated against the real
// file size instead of an allocation cap — a mapped payload costs
// address space, not heap — and the blob slices point into data with
// zero copies.
func parseMappedEnvelope(data []byte) (*SketchSet, error) {
	headLen := len(setMagic) + 1
	if len(data) < headLen+1 {
		return nil, corrupt(int64(len(data)), "truncated envelope header")
	}
	if string(data[:len(setMagic)]) != setMagic {
		return nil, corrupt(0, "not a sketch set (bad magic)")
	}
	version := int(data[len(setMagic)])
	if err := checkVersion(version); err != nil {
		return nil, err
	}
	plen, vn := binary.Uvarint(data[headLen:])
	if vn <= 0 {
		return nil, corrupt(int64(headLen), "unreadable payload length")
	}
	base := int64(headLen + vn)
	if uint64(len(data)) != uint64(base)+plen+4 {
		return nil, corrupt(base, "payload length %d does not match the %d-byte file", plen, len(data))
	}
	payload := data[base : base+int64(plen) : base+int64(plen)]
	crc := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, corrupt(base+int64(plen), "sketch-set checksum mismatch")
	}
	set, err := parseSetPayload(payload, version, base)
	if err != nil {
		return nil, err
	}
	set.envCRC = crc
	return set, nil
}
