package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Text edge-list serialization, DIMACS-flavored, so networks measured
// elsewhere can be replayed through the sketch constructions:
//
//	# comment
//	p <n> <m>
//	e <u> <v> <weight>
//
// Node IDs are 0-based. The problem line must precede all edge lines, and
// n may not exceed MaxNodes.

// WriteEdgeList serializes g.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p %d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "e %d %d %d\n", e.U, e.V, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a graph written by WriteEdgeList (or by hand). It
// reads each line in place from the scanner's buffer, and a number
// field's string conversion does not escape strconv, so it stays on the
// stack: a read allocates a constant number of times beyond the graph
// itself, and a string of the line is made only for an error message.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var b *Builder
	edges := 0
	wantEdges := -1
	line := 0
	var fieldBuf [4][]byte
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		nf := splitFields(text, fieldBuf[:])
		fields := fieldBuf[:min(nf, len(fieldBuf))]
		switch string(fields[0]) {
		case "p":
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate problem line", line)
			}
			if nf != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'p <n> <m>'", line)
			}
			n, err := strconv.Atoi(string(fields[1]))
			if err != nil || n < 0 || n > MaxNodes {
				return nil, fmt.Errorf("graph: line %d: bad n %q (want 0..%d)", line, fields[1], MaxNodes)
			}
			m, err := strconv.Atoi(string(fields[2]))
			if err != nil || m < 0 {
				return nil, fmt.Errorf("graph: line %d: bad m %q", line, fields[2])
			}
			b = NewBuilder(n)
			// Capped, so a hostile header cannot force a large allocation.
			b.edges = make([]Edge, 0, min(m, 1<<16))
			wantEdges = m
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: edge before problem line", line)
			}
			if nf != 4 {
				return nil, fmt.Errorf("graph: line %d: want 'e <u> <v> <w>'", line)
			}
			u, err1 := strconv.Atoi(string(fields[1]))
			v, err2 := strconv.Atoi(string(fields[2]))
			w, err3 := strconv.ParseInt(string(fields[3]), 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge %q", line, text)
			}
			b.AddEdge(u, v, w)
			edges++
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing problem line")
	}
	if wantEdges >= 0 && edges != wantEdges {
		return nil, fmt.Errorf("graph: problem line declares %d edges, found %d", wantEdges, edges)
	}
	return b.Freeze()
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits s around runs of white space, as strings.Fields
// does, into dst without allocating: ASCII bytes are classified by a
// table, and any other rune by unicode.IsSpace. It returns the number of
// fields, counting those past len(dst) without storing them.
func splitFields(s []byte, dst [][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(s); {
		c, size := s[i], 1
		var space bool
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRune(s[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space:
			if start < 0 {
				start = i
			}
		case start >= 0:
			if n < len(dst) {
				dst[n] = s[start:i]
			}
			n++
			start = -1
		}
		i += size
	}
	if start >= 0 {
		if n < len(dst) {
			dst[n] = s[start:]
		}
		n++
	}
	return n
}
