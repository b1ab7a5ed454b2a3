package distsketch

// Crash-safe persistence for sketch-set envelopes. A serving process
// lives or dies by its envelope file: a save that tears mid-write, a
// disk that flips a bit, or a deploy that truncates a copy must surface
// as a typed, actionable error at startup — never as a torn file the
// loader trips over or, worse, silently wrong estimates.
//
// SaveSketchSet writes through internal/atomicfile (same-directory temp
// file, fsync, atomic rename, directory fsync), so the envelope at path
// is always either the complete old set or the complete new one.
// LoadSketchSet is the recovery-aware counterpart: it sweeps the stale
// temp files an interrupted save leaves behind, and quarantines a
// corrupt envelope (rename to path+".corrupt") so the next restart does
// not crash-loop on the same bytes.

import (
	"errors"
	"fmt"
	"io"
	"os"

	"distsketch/internal/atomicfile"
)

// ErrCorruptEnvelope reports a torn or corrupt sketch-set envelope:
// truncated bytes, a failed checksum, or payload contents that do not
// parse. Offset is the byte position (within the envelope) where the
// corruption was detected; Path and Quarantined are filled by
// LoadSketchSet when the envelope came from a file. It wraps the
// underlying cause for errors.Is/As inspection.
type ErrCorruptEnvelope struct {
	// Path is the envelope file ("" when read from a plain stream).
	Path string
	// Offset is the byte offset at which the corruption was detected: the
	// truncation point of a torn file, the checksum trailer for a bit
	// flip, the failing field for a payload that does not parse.
	Offset int64
	// Quarantined is where LoadSketchSet moved the corrupt file, or ""
	// if it was not (or could not be) quarantined.
	Quarantined string
	// Err is the underlying decode failure.
	Err error
}

func (e *ErrCorruptEnvelope) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("distsketch: corrupt sketch-set envelope %s at byte %d: %v", e.Path, e.Offset, e.Err)
	}
	return fmt.Sprintf("distsketch: corrupt sketch-set envelope at byte %d: %v", e.Offset, e.Err)
}

func (e *ErrCorruptEnvelope) Unwrap() error { return e.Err }

// ErrCorruptLabel reports a lazily loaded label whose bytes passed the
// envelope's load-time directory scan but failed to decode on first
// touch — possible only for an envelope corrupted behind its checksum
// or crafted to lie. Node is the label's owner and Offset the byte
// position of its blob within the envelope, so an operator can go look
// at the bad bytes. The checked accessors (QueryChecked, SketchChecked)
// return it; match with errors.As.
type ErrCorruptLabel struct {
	// Node owns the undecodable label.
	Node int
	// Offset is the byte offset of the label's blob within the envelope
	// the set was loaded from.
	Offset int64
	// Err is the underlying decode failure.
	Err error
}

func (e *ErrCorruptLabel) Error() string {
	return fmt.Sprintf("distsketch: corrupt label of node %d (envelope byte %d): %v", e.Node, e.Offset, e.Err)
}

func (e *ErrCorruptLabel) Unwrap() error { return e.Err }

// SaveSketchSet writes set to path crash-safely in its envelope format
// (see WriteTo): the envelope is serialized into a same-directory temp
// file, fsynced, renamed over path atomically, and the directory is
// fsynced. A crash at any point — including mid-serialization — leaves
// path holding its previous complete contents; the new envelope appears
// only once fully durable. version must be the one WriteTo writes,
// SetVersion2 for a full set and SetVersion3 for a node-range shard; a
// mismatch is refused before the filesystem is touched.
func SaveSketchSet(path string, set *SketchSet, version int) error {
	if set == nil {
		return fmt.Errorf("distsketch: cannot save a nil sketch set")
	}
	if want := set.writeVersion(); version != want {
		return fmt.Errorf("distsketch: cannot write envelope version %d: this set is written as version %d (%d for a full set, %d for a node-range shard)", version, want, SetVersion2, SetVersion3)
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := set.WriteTo(w)
		return err
	})
}

// LoadSketchSet reads the sketch-set envelope at path with startup-side
// recovery around ReadSketchSet:
//
//   - stale temp files left by a save that was killed mid-write are
//     removed first (they hold torn data by definition);
//   - a torn or corrupt envelope is quarantined — renamed to
//     path+".corrupt" — so the next restart does not trip over the same
//     bytes, and the returned *ErrCorruptEnvelope carries the path, the
//     detection offset, and the quarantine location.
//
// A missing file returns the usual fs error (errors.Is(err,
// os.ErrNotExist)); only envelopes that exist but cannot be trusted are
// quarantined.
func LoadSketchSet(path string) (*SketchSet, error) {
	// Best-effort sweep: a failure here (exotic permissions) must not
	// block loading a perfectly good envelope; the stale temps can never
	// be confused with path itself.
	_, _ = atomicfile.CleanStale(path)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	set, err := ReadSketchSet(f)
	cerr := f.Close()
	if err != nil {
		return nil, quarantine(path, err)
	}
	if cerr != nil {
		return nil, cerr
	}
	return set, nil
}

// quarantine is LoadSketchSet's and OpenSketchSet's corrupt-file
// handling: a typed corruption error gains the path, and the file is
// renamed aside rather than deleted. The bytes may matter for forensics,
// but the serving path must stop crash-looping on them at every restart.
func quarantine(path string, err error) error {
	var ce *ErrCorruptEnvelope
	if errors.As(err, &ce) {
		ce.Path = path
		if qerr := os.Rename(path, path+".corrupt"); qerr == nil {
			ce.Quarantined = path + ".corrupt"
		}
	}
	return err
}
