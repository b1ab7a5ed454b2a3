package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"distsketch/internal/graph"
)

// Binary serialization for labels. In a deployment this is the payload a
// node ships when another node asks for its sketch (the §2.1 scenario:
// "it can directly contact the other node using its IP address and ask
// for its sketch"). The format is varint-based and self-delimiting.

// Wire-format tag bytes, the first byte of every encoded label.
const (
	TagTZ       byte = 1
	TagLandmark byte = 2
	TagCDG      byte = 3
	TagGraceful byte = 4
)

func putInt(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func getInt(buf *bytes.Reader) (int64, error) {
	return binary.ReadVarint(buf)
}

// dist sentinel: graph.Inf encodes as -1 (varint-friendly).
func putDist(buf *bytes.Buffer, d graph.Dist) {
	if d == graph.Inf {
		putInt(buf, -1)
		return
	}
	putInt(buf, int64(d))
}

func getDist(buf *bytes.Reader) (graph.Dist, error) {
	v, err := getInt(buf)
	if err != nil {
		return 0, err
	}
	if v == -1 {
		return graph.Inf, nil
	}
	if v < 0 {
		return 0, fmt.Errorf("sketch: negative distance %d", v)
	}
	return graph.Dist(v), nil
}

// MarshalTZ encodes a TZ label. Bunch items are emitted in their stored
// (sorted, unique) order — the same ascending-ID order the old map-backed
// encoder produced by sorting its keys, so the wire bytes are unchanged
// across the sorted-slice refactor.
func MarshalTZ(l *TZLabel) []byte {
	var buf bytes.Buffer
	buf.WriteByte(TagTZ)
	putInt(&buf, int64(l.Owner))
	putInt(&buf, int64(l.K))
	for _, p := range l.Pivots {
		putInt(&buf, int64(p.Node))
		putDist(&buf, p.Dist)
	}
	putInt(&buf, int64(len(l.Bunch)))
	for _, it := range l.Bunch {
		putInt(&buf, int64(it.Node))
		putDist(&buf, it.Dist)
		putInt(&buf, int64(it.Level))
	}
	return buf.Bytes()
}

// UnmarshalTZ decodes a TZ label produced by MarshalTZ.
func UnmarshalTZ(data []byte) (*TZLabel, error) {
	r := bytes.NewReader(data)
	tag, err := r.ReadByte()
	if err != nil || tag != TagTZ {
		return nil, fmt.Errorf("sketch: bad TZ tag")
	}
	l, err := readTZ(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("sketch: %d trailing bytes", r.Len())
	}
	return l, nil
}

func readTZ(r *bytes.Reader) (*TZLabel, error) {
	owner, err := getInt(r)
	if err != nil {
		return nil, err
	}
	k, err := getInt(r)
	if err != nil {
		return nil, err
	}
	if k < 1 || k > math.MaxInt32 {
		return nil, fmt.Errorf("sketch: bad k %d", k)
	}
	// Each pivot occupies at least 2 bytes, so k beyond the remaining
	// input is malformed — reject it before allocating k pivot slots
	// (an attacker-controlled k must not drive a huge allocation).
	if k > int64(r.Len())/2+1 {
		return nil, fmt.Errorf("sketch: k %d exceeds input", k)
	}
	l := NewTZLabel(int(owner), int(k))
	for i := 0; i < int(k); i++ {
		node, err := getInt(r)
		if err != nil {
			return nil, err
		}
		d, err := getDist(r)
		if err != nil {
			return nil, err
		}
		l.Pivots[i] = Pivot{Node: int(node), Dist: d}
	}
	m, err := getInt(r)
	if err != nil {
		return nil, err
	}
	if m < 0 {
		return nil, fmt.Errorf("sketch: negative bunch size")
	}
	// Each bunch entry occupies at least 3 bytes.
	if m > int64(r.Len())/3+1 {
		return nil, fmt.Errorf("sketch: bunch size %d exceeds input", m)
	}
	// Our encoder always emits the bunch in ascending node-ID order, but
	// the input is untrusted wire bytes, so unsorted or duplicated node
	// IDs are canonicalized — sorted, duplicates collapsed to the
	// smallest distance — rather than trusted. (The former map
	// representation silently absorbed duplicates last-entry-wins, making
	// the decoded label depend on adversarial entry order.)
	l.Bunch = make([]BunchItem, 0, m)
	canonical := true
	for j := 0; j < int(m); j++ {
		w, err := getInt(r)
		if err != nil {
			return nil, err
		}
		d, err := getDist(r)
		if err != nil {
			return nil, err
		}
		lev, err := getInt(r)
		if err != nil {
			return nil, err
		}
		if n := len(l.Bunch); n > 0 && int(w) <= l.Bunch[n-1].Node {
			canonical = false
		}
		l.Bunch = append(l.Bunch, BunchItem{Node: int(w), Dist: d, Level: int(lev)})
	}
	if !canonical {
		l.Bunch = CanonicalizeBunch(l.Bunch)
	}
	// Decoded labels are immutable from here on (decode-once serving), so
	// the DistTo acceleration index is built eagerly — a lazy build would
	// race under concurrent queries.
	l.buildProbe()
	return l, nil
}

// MarshalLandmark encodes a landmark label. Entries are emitted in their
// stored (sorted, unique) order — the same ascending-ID order the old
// map-backed encoder produced via NetNodes, so the wire bytes are
// unchanged across the sorted-slice refactor.
func MarshalLandmark(l *LandmarkLabel) []byte {
	var buf bytes.Buffer
	buf.WriteByte(TagLandmark)
	putInt(&buf, int64(l.Owner))
	putInt(&buf, int64(len(l.Entries)))
	for _, e := range l.Entries {
		putInt(&buf, int64(e.Net))
		putDist(&buf, e.D)
	}
	return buf.Bytes()
}

// UnmarshalLandmark decodes a landmark label. Our encoder always emits
// entries in ascending net-ID order, but the input is untrusted wire
// bytes (Section 2.1: sketches arrive from arbitrary peers), so unsorted
// or duplicated net IDs are canonicalized — sorted, duplicates collapsed
// to the smallest distance — rather than trusted. The map representation
// silently absorbed duplicates with last-entry-wins, which made the
// decoded label depend on adversarial entry order; canonicalizing makes
// it deterministic and keeps QueryLandmark's merge-intersection sound.
func UnmarshalLandmark(data []byte) (*LandmarkLabel, error) {
	r := bytes.NewReader(data)
	tag, err := r.ReadByte()
	if err != nil || tag != TagLandmark {
		return nil, fmt.Errorf("sketch: bad landmark tag")
	}
	owner, err := getInt(r)
	if err != nil {
		return nil, err
	}
	m, err := getInt(r)
	if err != nil {
		return nil, err
	}
	// Each entry occupies at least 2 bytes.
	if m < 0 || m > int64(r.Len())/2+1 {
		return nil, fmt.Errorf("sketch: entry count %d exceeds input", m)
	}
	l := NewLandmarkLabel(int(owner))
	l.Entries = make([]Entry, 0, m)
	canonical := true
	for j := 0; j < int(m); j++ {
		w, err := getInt(r)
		if err != nil {
			return nil, err
		}
		d, err := getDist(r)
		if err != nil {
			return nil, err
		}
		if n := len(l.Entries); n > 0 && int(w) <= l.Entries[n-1].Net {
			canonical = false
		}
		l.Entries = append(l.Entries, Entry{Net: int(w), D: d})
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("sketch: %d trailing bytes", r.Len())
	}
	if !canonical {
		l.Entries = CanonicalizeEntries(l.Entries)
	}
	return l, nil
}

// MarshalCDG encodes a CDG label.
func MarshalCDG(l *CDGLabel) []byte {
	var buf bytes.Buffer
	buf.WriteByte(TagCDG)
	writeCDG(&buf, l)
	return buf.Bytes()
}

func writeCDG(buf *bytes.Buffer, l *CDGLabel) {
	putInt(buf, int64(l.Owner))
	putInt(buf, int64(math.Float64bits(l.Eps)))
	putInt(buf, int64(l.NetNode))
	putDist(buf, l.NetDist)
	if l.NetLabel == nil {
		putInt(buf, 0)
		return
	}
	putInt(buf, 1)
	buf.Write(MarshalTZ(l.NetLabel))
}

// UnmarshalCDG decodes a CDG label.
func UnmarshalCDG(data []byte) (*CDGLabel, error) {
	r := bytes.NewReader(data)
	tag, err := r.ReadByte()
	if err != nil || tag != TagCDG {
		return nil, fmt.Errorf("sketch: bad CDG tag")
	}
	l, err := readCDG(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("sketch: %d trailing bytes", r.Len())
	}
	return l, nil
}

func readCDG(r *bytes.Reader) (*CDGLabel, error) {
	owner, err := getInt(r)
	if err != nil {
		return nil, err
	}
	epsBits, err := getInt(r)
	if err != nil {
		return nil, err
	}
	netNode, err := getInt(r)
	if err != nil {
		return nil, err
	}
	netDist, err := getDist(r)
	if err != nil {
		return nil, err
	}
	hasLabel, err := getInt(r)
	if err != nil {
		return nil, err
	}
	l := &CDGLabel{
		Owner:   int(owner),
		Eps:     math.Float64frombits(uint64(epsBits)),
		NetNode: int(netNode),
		NetDist: netDist,
	}
	if hasLabel == 1 {
		tag, err := r.ReadByte()
		if err != nil || tag != TagTZ {
			return nil, fmt.Errorf("sketch: bad nested TZ tag")
		}
		l.NetLabel, err = readTZ(r)
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// MarshalGraceful encodes a graceful label.
func MarshalGraceful(l *GracefulLabel) []byte {
	var buf bytes.Buffer
	buf.WriteByte(TagGraceful)
	putInt(&buf, int64(l.Owner))
	putInt(&buf, int64(len(l.Levels)))
	for _, c := range l.Levels {
		writeCDG(&buf, c)
	}
	return buf.Bytes()
}

// UnmarshalGraceful decodes a graceful label.
func UnmarshalGraceful(data []byte) (*GracefulLabel, error) {
	r := bytes.NewReader(data)
	tag, err := r.ReadByte()
	if err != nil || tag != TagGraceful {
		return nil, fmt.Errorf("sketch: bad graceful tag")
	}
	owner, err := getInt(r)
	if err != nil {
		return nil, err
	}
	m, err := getInt(r)
	if err != nil {
		return nil, err
	}
	// Each nested CDG label occupies at least 5 bytes.
	if m < 0 || m > int64(r.Len())/5+1 {
		return nil, fmt.Errorf("sketch: level count %d exceeds input", m)
	}
	l := &GracefulLabel{Owner: int(owner)}
	for j := 0; j < int(m); j++ {
		c, err := readCDG(r)
		if err != nil {
			return nil, err
		}
		l.Levels = append(l.Levels, c)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("sketch: %d trailing bytes", r.Len())
	}
	l.compact()
	return l, nil
}

// compact repacks the per-level net labels' bunches, pivots and probe
// tables into three contiguous arenas. A graceful query walks all
// ⌈log n⌉ levels of both labels, so the flat layout keeps one decoded
// label on a handful of cache lines and pages instead of 3·⌈log n⌉
// scattered allocations — decode-once serving reads the arenas millions
// of times. Contents are unchanged; only the backing storage moves.
func (l *GracefulLabel) compact() {
	items, pivots, slots, nets := 0, 0, 0, 0
	for _, c := range l.Levels {
		if c.NetLabel != nil {
			items += len(c.NetLabel.Bunch)
			pivots += len(c.NetLabel.Pivots)
			slots += len(c.NetLabel.probe)
			nets++
		}
	}
	levelArena := make([]CDGLabel, len(l.Levels))
	netArena := make([]TZLabel, 0, nets)
	itemArena := make([]BunchItem, 0, items)
	pivotArena := make([]Pivot, 0, pivots)
	slotArena := make([]probeSlot, 0, slots)
	for i, c := range l.Levels {
		levelArena[i] = *c
		l.Levels[i] = &levelArena[i]
		if c.NetLabel == nil {
			continue
		}
		netArena = append(netArena, *c.NetLabel)
		nl := &netArena[len(netArena)-1]
		levelArena[i].NetLabel = nl
		is := len(itemArena)
		itemArena = append(itemArena, nl.Bunch...)
		//sketchlint:ignore canonlabel arena repack copies an already-canonical bunch verbatim
		nl.Bunch = itemArena[is:len(itemArena):len(itemArena)]
		ps := len(pivotArena)
		pivotArena = append(pivotArena, nl.Pivots...)
		nl.Pivots = pivotArena[ps:len(pivotArena):len(pivotArena)]
		if t := nl.probe; t != nil {
			ss := len(slotArena)
			slotArena = append(slotArena, t...)
			nl.probe = slotArena[ss:len(slotArena):len(slotArena)]
		}
	}
}
