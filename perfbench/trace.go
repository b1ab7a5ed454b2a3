package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries "<request id>.<parent span id>" from a caller's span
// to the handler it calls, across the loopback HTTP hop.
const spanHeader = "X-Perfbench-Span"

// span is one timed interval at a layer boundary. Spans of one client
// operation share Req; Parent is the span that caused this one (0 for a
// root). Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// newID allocates a span or request id.
func (t *tracer) newID() uint64 { return t.next.Add(1) }

// record stores a finished span and returns its id.
func (t *tracer) record(s span) uint64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as gzipped JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanRef struct{ req, id uint64 }

type spanKey struct{}

func (r spanRef) header() string { return fmt.Sprintf("%d.%d", r.req, r.id) }

func parseSpanHeader(h string) spanRef {
	req, id, ok := strings.Cut(h, ".")
	if !ok {
		return spanRef{}
	}
	r, _ := strconv.ParseUint(req, 10, 64)
	i, _ := strconv.ParseUint(id, 10, 64)
	return spanRef{req: r, id: i}
}

// routeName names a request by method and path for span names: "query"
// (GET /query), "batch" (POST /query), "sketch", "update", or the path.
func routeName(r *http.Request) string {
	switch {
	case r.URL.Path == "/query" && r.Method == http.MethodGet:
		return "query"
	case r.URL.Path == "/query":
		return "batch"
	case strings.HasPrefix(r.URL.Path, "/sketch/"):
		return "sketch"
	case r.URL.Path == "/update-edge":
		return "update"
	}
	return strings.TrimPrefix(r.URL.Path, "/")
}

// wrapHandler records a span named prefix+"."+route around h, parented
// to the caller's span from spanHeader, and puts its id in the request
// context so a tracing transport underneath can continue the chain. On a
// nil tracer it returns h unchanged.
func (t *tracer) wrapHandler(prefix string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := parseSpanHeader(r.Header.Get(spanHeader))
		s := span{ID: t.newID(), Parent: parent.id, Req: parent.req, Name: prefix + "." + routeName(r), Start: t.now()}
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{req: parent.req, id: s.ID})
		h.ServeHTTP(w, r.WithContext(ctx))
		s.End = t.now()
		t.record(s)
	})
}

// tracingTransport records one "upstream.<route>" span per round trip the
// router makes, from the call to the end of the response body, and
// forwards the span id to the replica in spanHeader.
type tracingTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent, _ := r.Context().Value(spanKey{}).(spanRef)
	s := span{ID: tt.t.newID(), Parent: parent.id, Req: parent.req, Name: "upstream." + routeName(r), Start: tt.t.now()}
	if r.ContentLength > 0 {
		s.Bytes = r.ContentLength
	}
	out := r.Clone(r.Context())
	out.Header.Set(spanHeader, spanRef{req: parent.req, id: s.ID}.header())
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		s.End = tt.t.now()
		tt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{rc: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody ends its upstream span when the caller has read the body to
// EOF or closed it, whichever comes first, counting the bytes read.
type spanBody struct {
	rc   io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.record(b.s)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.s.Bytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.rc.Close()
}

// traceTree indexes one run's spans by parent.
type traceTree struct {
	children map[uint64][]span
}

func indexSpans(spans []span) traceTree {
	tt := traceTree{children: make(map[uint64][]span)}
	for _, s := range spans {
		if s.Parent != 0 {
			tt.children[s.Parent] = append(tt.children[s.Parent], s)
		}
	}
	return tt
}

// union returns the total length of the intervals' union, clipped to
// [lo, hi].
func union(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curA, curB, started = x[0], x[1], true
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func (tt traceTree) selfTime(s span) int64 {
	return s.dur() - union(tt.children[s.ID], s.Start, s.End)
}

// stageSelf sums, for one request rooted at root, the self time of every
// span in its tree by span name (the stage).
func (tt traceTree) stageSelf(root span) map[string]int64 {
	out := make(map[string]int64)
	var walk func(s span)
	walk = func(s span) {
		out[s.Name] += tt.selfTime(s)
		for _, c := range tt.children[s.ID] {
			walk(c)
		}
	}
	walk(root)
	return out
}

// stageAccount is the stage accounting of one class of operations: the
// mean self time of each stage over the operations whose end-to-end
// time lies in the middle fifth (the 40th to 60th percentile), set
// against the end-to-end median.
type stageAccount struct {
	E2EMedianNs float64            `json:"e2e_median_ns"`
	Band        int                `json:"band_ops"`
	StageMeanNs map[string]float64 `json:"stage_mean_ns"`
}

// unaccountedFrac is the end-to-end median minus the summed stage self
// times, as a share of the median. It is negative where concurrent
// child spans overlap (their self times then count the same instants
// twice).
func (a stageAccount) unaccountedFrac() float64 {
	sum := 0.0
	for _, v := range a.StageMeanNs {
		sum += v
	}
	return (a.E2EMedianNs - sum) / a.E2EMedianNs
}

// accountStages builds a stageAccount from per-operation end-to-end
// times and per-operation stage self times.
func accountStages(e2e []float64, stages []map[string]int64) stageAccount {
	if len(e2e) == 0 {
		return stageAccount{}
	}
	med := quantile(e2e, 0.5)
	lo, hi := quantile(e2e, 0.4), quantile(e2e, 0.6)
	acc := stageAccount{E2EMedianNs: med, StageMeanNs: make(map[string]float64)}
	for i, d := range e2e {
		if d < lo || d > hi {
			continue
		}
		acc.Band++
		for k, v := range stages[i] {
			acc.StageMeanNs[k] += float64(v)
		}
	}
	for k := range acc.StageMeanNs {
		acc.StageMeanNs[k] /= float64(acc.Band)
	}
	return acc
}
