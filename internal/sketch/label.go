package sketch

import (
	"fmt"

	"distsketch/internal/graph"
)

// Label is the interface shared by the four sketch label kinds. It is the
// currency of the decode-once query path: a label is unmarshaled from its
// wire bytes exactly once and then queried any number of times, which is
// what the paper's build-once / query-millions lifecycle assumes.
//
// The interface is closed (labelTag is unexported), so the Query type
// switch below is exhaustive by construction.
type Label interface {
	// SizeWords reports the label size in O(log n)-bit words, the unit
	// the paper's size bounds are stated in.
	SizeWords() int
	// LabelOwner returns the node this label describes.
	LabelOwner() int
	// labelTag returns the wire-format tag byte.
	labelTag() byte
}

// LabelOwner returns the owning node (Label interface).
func (l *TZLabel) LabelOwner() int { return l.Owner }

// LabelOwner returns the owning node (Label interface).
func (l *LandmarkLabel) LabelOwner() int { return l.Owner }

// LabelOwner returns the owning node (Label interface).
func (l *CDGLabel) LabelOwner() int { return l.Owner }

// LabelOwner returns the owning node (Label interface).
func (l *GracefulLabel) LabelOwner() int { return l.Owner }

func (*TZLabel) labelTag() byte       { return TagTZ }
func (*LandmarkLabel) labelTag() byte { return TagLandmark }
func (*CDGLabel) labelTag() byte      { return TagCDG }
func (*GracefulLabel) labelTag() byte { return TagGraceful }

// LabelTag returns the wire-format tag byte of a label value.
func LabelTag(l Label) byte { return l.labelTag() }

// Marshal encodes any label in its wire format.
func Marshal(l Label) []byte {
	switch v := l.(type) {
	case *TZLabel:
		return MarshalTZ(v)
	case *LandmarkLabel:
		return MarshalLandmark(v)
	case *CDGLabel:
		return MarshalCDG(v)
	case *GracefulLabel:
		return MarshalGraceful(v)
	default:
		panic(fmt.Sprintf("sketch: unknown label type %T", l))
	}
}

// Unmarshal decodes any label from its wire format, dispatching on the
// leading tag byte.
func Unmarshal(data []byte) (Label, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("sketch: empty label")
	}
	switch data[0] {
	case TagTZ:
		l, err := UnmarshalTZ(data)
		if err != nil {
			return nil, err
		}
		return l, nil
	case TagLandmark:
		l, err := UnmarshalLandmark(data)
		if err != nil {
			return nil, err
		}
		return l, nil
	case TagCDG:
		l, err := UnmarshalCDG(data)
		if err != nil {
			return nil, err
		}
		return l, nil
	case TagGraceful:
		l, err := UnmarshalGraceful(data)
		if err != nil {
			return nil, err
		}
		return l, nil
	default:
		return nil, fmt.Errorf("sketch: unknown label tag %d", data[0])
	}
}

// Query estimates the distance between two labels' owners from the labels
// alone — the paper's query model. The labels must be of the same kind.
func Query(a, b Label) (graph.Dist, error) {
	switch x := a.(type) {
	case *TZLabel:
		if y, ok := b.(*TZLabel); ok {
			return QueryTZ(x, y), nil
		}
	case *LandmarkLabel:
		if y, ok := b.(*LandmarkLabel); ok {
			return QueryLandmark(x, y), nil
		}
	case *CDGLabel:
		if y, ok := b.(*CDGLabel); ok {
			return QueryCDG(x, y), nil
		}
	case *GracefulLabel:
		if y, ok := b.(*GracefulLabel); ok {
			return QueryGraceful(x, y), nil
		}
	}
	return 0, fmt.Errorf("sketch: mismatched label kinds %T and %T", a, b)
}
