package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
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

// ReadEdgeList parses a graph written by WriteEdgeList (or by hand).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var b *Builder
	edges := 0
	wantEdges := -1
	line := 0
	var fieldBuf [4]string
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		nf := splitFields(text, fieldBuf[:])
		fields := fieldBuf[:min(nf, len(fieldBuf))]
		switch fields[0] {
		case "p":
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate problem line", line)
			}
			if nf != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'p <n> <m>'", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > MaxNodes {
				return nil, fmt.Errorf("graph: line %d: bad n %q (want 0..%d)", line, fields[1], MaxNodes)
			}
			m, err := strconv.Atoi(fields[2])
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
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseInt(fields[3], 10, 64)
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

// splitFields splits s around runs of white space, as strings.Fields
// does, into dst without allocating. It returns the number of fields,
// counting those past len(dst) without storing them.
func splitFields(s string, dst []string) int {
	n, start := 0, -1
	for i, r := range s {
		switch {
		case !unicode.IsSpace(r):
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
	}
	if start >= 0 {
		if n < len(dst) {
			dst[n] = s[start:]
		}
		n++
	}
	return n
}
