package distsketch

// Node-range sharding: slicing one sketch-set envelope into per-range
// envelopes so a multi-GB set can be served by several processes, each
// holding (or mapping) only its slice. The version-2 per-node directory
// makes the slice trivial — a shard is a contiguous run of the same
// blobs, byte-identical, with the shard's global node range recorded in
// a version-3 envelope header. A shard answers queries for its own ids,
// reports ErrShardRange (a typed redirect hint) for ids owned by a
// different shard, and a pair query touching two shards is resolved by
// fetching the two wire sketches and estimating from them alone —
// exactly the paper's Section 2.1 model, so a router fans each query
// out to at most 2 shards.

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"distsketch/internal/atomicfile"
)

// ErrShardRange reports a node id that exists in the full sketch set
// but is owned by a different node-range shard than the one queried.
// The checked accessors of a sharded set wrap it (with the shard's
// range in the message), so a shard server can answer "ask the right
// shard" instead of "no such node". Contrast ErrNodeRange, which means
// the id exists nowhere.
var ErrShardRange = errors.New("node id owned by a different shard")

// ShardRange is a half-open global node-id range [Lo, Hi) assigned to
// one shard.
type ShardRange struct {
	Lo, Hi int
}

func (r ShardRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Contains reports whether global node u falls in the range.
func (r ShardRange) Contains(u int) bool { return u >= r.Lo && u < r.Hi }

// EvenShardRanges tiles [0, n) into shards contiguous ranges of
// near-equal size (the first n mod shards ranges are one node larger).
// It panics if shards is not in [1, n].
func EvenShardRanges(n, shards int) []ShardRange {
	if shards < 1 || shards > n {
		panic(fmt.Sprintf("distsketch: cannot split %d nodes into %d shards", n, shards))
	}
	ranges := make([]ShardRange, shards)
	lo := 0
	for i := range ranges {
		size := n / shards
		if i < n%shards {
			size++
		}
		ranges[i] = ShardRange{Lo: lo, Hi: lo + size}
		lo += size
	}
	return ranges
}

// checkShardRanges validates that ranges exactly tile [0, n): contiguous,
// ascending, no gaps or overlaps, first Lo 0 and last Hi n, every range
// non-empty.
func checkShardRanges(n int, ranges []ShardRange) error {
	if len(ranges) == 0 {
		return fmt.Errorf("distsketch: no shard ranges")
	}
	want := 0
	for i, r := range ranges {
		if r.Lo != want {
			return fmt.Errorf("distsketch: shard %d range %s does not start at %d (ranges must tile [0,%d) in order)", i, r, want, n)
		}
		if r.Hi <= r.Lo {
			return fmt.Errorf("distsketch: shard %d range %s is empty", i, r)
		}
		want = r.Hi
	}
	if want != n {
		return fmt.Errorf("distsketch: shard ranges end at %d, set has %d nodes", want, n)
	}
	return nil
}

// shardView returns a SketchSet that views the slice [r.Lo, r.Hi) of s
// without copying any label bytes: the label store is sub-sliced. The
// view is an internal serialization vehicle (it lives only for the
// duration of a WriteShard call), so it does not retain s's backing — s
// must stay open while the view is written.
func (s *SketchSet) shardView(r ShardRange) *SketchSet {
	return &SketchSet{
		kind:       s.kind,
		labels:     s.labels.slice(r.Lo, r.Hi),
		envVersion: s.envVersion,
		cost:       s.cost,
		net:        s.net,
		shardLo:    r.Lo,
		shardTotal: s.TotalNodes(),
	}
}

// WriteShard serializes the slice [r.Lo, r.Hi) of the set as a
// version-3 shard envelope: the same label blobs, byte-identical, with
// the shard's global node range recorded so the loaded shard addresses
// its sketches by global id and redirects the rest. The set must be
// unsharded (shards are sliced from the full set, not re-sliced) and r
// must lie within [0, N()). The full cost breakdown and density net are
// carried on every shard — they are small, and the net's global ids
// stay meaningful.
func (s *SketchSet) WriteShard(w io.Writer, r ShardRange) (int64, error) {
	if s.closed {
		return 0, ErrSetClosed
	}
	if s.Sharded() {
		return 0, fmt.Errorf("distsketch: cannot re-split a node-range shard; split the full sketch set")
	}
	if r.Lo < 0 || r.Hi <= r.Lo || r.Hi > s.N() {
		return 0, fmt.Errorf("distsketch: shard range %s invalid for a %d-node set", r, s.N())
	}
	return s.shardView(r).WriteTo(w)
}

// WriteShards slices the set into one version-3 shard envelope per
// range, writing ranges[i] to writers[i]. The ranges must exactly tile
// [0, N()) in ascending order — a query router assumes every node id is
// owned by exactly one shard.
func (s *SketchSet) WriteShards(writers []io.Writer, ranges []ShardRange) error {
	if len(writers) != len(ranges) {
		return fmt.Errorf("distsketch: %d writers for %d shard ranges", len(writers), len(ranges))
	}
	if err := checkShardRanges(s.N(), ranges); err != nil {
		return err
	}
	for i, r := range ranges {
		if _, err := s.WriteShard(writers[i], r); err != nil {
			return fmt.Errorf("distsketch: writing shard %d %s: %w", i, r, err)
		}
	}
	return nil
}

// ShardPath names shard i of total under dir using the canonical layout
// SaveShards writes and sketchserve/sketchrouter expect:
// dir/shard-<i>-of-<total>.dsk.
func ShardPath(dir string, i, total int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.dsk", i, total))
}

// SaveShards slices the set into len(ranges) shard envelopes and writes
// each crash-safely (temp file, fsync, atomic rename) to
// ShardPath(dir, i, len(ranges)). The ranges must exactly tile [0, N()).
// It returns the paths written. A failure part-way leaves already
// written shards complete on disk and the failing path untouched.
func SaveShards(dir string, set *SketchSet, ranges []ShardRange) ([]string, error) {
	if set == nil {
		return nil, fmt.Errorf("distsketch: cannot save a nil sketch set")
	}
	if err := checkShardRanges(set.N(), ranges); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(ranges))
	for i, r := range ranges {
		path := ShardPath(dir, i, len(ranges))
		if err := saveShard(path, set, r); err != nil {
			return paths, fmt.Errorf("distsketch: writing shard %d %s: %w", i, r, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

func saveShard(path string, set *SketchSet, r ShardRange) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := set.WriteShard(w, r)
		return err
	})
}
