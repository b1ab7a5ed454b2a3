package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"distsketch"
	"distsketch/internal/serve"
)

// httpClient is the benchmark's own client: one transport of its own,
// so its connections never mix with the router's upstream pool. With a
// tracer every call is a root span whose ids travel in spanHeader.
type httpClient struct {
	c  *http.Client
	tr *tracer
}

func newHTTPClient(tr *tracer) *httpClient {
	return &httpClient{c: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}, tr: tr}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// call is one timed request: the time runs from sending the request to
// reading the last byte of the reply.
type call struct {
	status     int
	body       []byte
	start, end time.Time
	err        error
}

func (c call) ns() float64 { return float64(c.end.Sub(c.start)) }

func (c call) ok() bool { return c.err == nil && c.status == http.StatusOK }

func (h *httpClient) do(method, url string, body []byte, name string) call {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return call{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var ref spanRef
	if h.tr != nil {
		ref = spanRef{req: h.tr.newID(), id: h.tr.newID()}
		req.Header.Set(spanHeader, ref.header())
	}
	c := call{start: time.Now()}
	resp, err := h.c.Do(req)
	if err != nil {
		c.end, c.err = time.Now(), err
		return c
	}
	c.body, c.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	c.end, c.status = time.Now(), resp.StatusCode
	if h.tr != nil {
		h.tr.record(span{ID: ref.id, Req: ref.req, Name: name, Start: h.tr.at(c.start), End: h.tr.at(c.end)})
	}
	return c
}

// batchAnswers decodes a POST /query reply into one estimate per pair
// (Inf for unreachable), failing on any per-pair error.
func batchAnswers(c call, pairs []serve.QueryPair) ([]distsketch.Dist, error) {
	if !c.ok() {
		return nil, fmt.Errorf("batch: status %d: %v %s", c.status, c.err, bytes.TrimSpace(c.body))
	}
	var reply serve.BatchReply
	if err := json.Unmarshal(c.body, &reply); err != nil {
		return nil, fmt.Errorf("batch: decoding reply: %w", err)
	}
	if len(reply.Results) != len(pairs) {
		return nil, fmt.Errorf("batch: %d results for %d pairs", len(reply.Results), len(pairs))
	}
	out := make([]distsketch.Dist, len(pairs))
	for i, r := range reply.Results {
		d, err := estimateOf(r)
		if err != nil {
			return nil, err
		}
		if r.U != pairs[i].U || r.V != pairs[i].V {
			return nil, fmt.Errorf("batch: result %d is for (%d,%d), asked (%d,%d)", i, r.U, r.V, pairs[i].U, pairs[i].V)
		}
		out[i] = d
	}
	return out, nil
}

func singleAnswer(c call) (distsketch.Dist, error) {
	if !c.ok() {
		return 0, fmt.Errorf("query: status %d: %v %s", c.status, c.err, bytes.TrimSpace(c.body))
	}
	var r serve.QueryResult
	if err := json.Unmarshal(c.body, &r); err != nil {
		return 0, fmt.Errorf("query: decoding reply: %w", err)
	}
	return estimateOf(r)
}

func estimateOf(r serve.QueryResult) (distsketch.Dist, error) {
	switch {
	case r.Error != "":
		return 0, fmt.Errorf("pair (%d,%d): %s", r.U, r.V, r.Error)
	case r.Unreachable || r.Estimate == nil:
		return distsketch.Inf, nil
	}
	return *r.Estimate, nil
}

func batchBody(pairs []serve.QueryPair) []byte {
	b, err := json.Marshal(serve.BatchRequest{Pairs: pairs})
	if err != nil {
		panic(err) // a slice of int pairs always encodes
	}
	return b
}

// coverPairs is a warm-up: batches of size pairs in which every node of
// [0,n) appears, in a seeded order.
func coverPairs(n, size int, seed uint64) [][]serve.QueryPair {
	perm := rand.New(rand.NewPCG(seed, 11)).Perm(n)
	var out [][]serve.QueryPair
	for i := 0; i < n; i += size {
		var b []serve.QueryPair
		for j := i; j < min(i+size, n); j++ {
			b = append(b, serve.QueryPair{U: perm[j], V: perm[(j+1)%n]})
		}
		out = append(out, b)
	}
	return out
}

// warmUp sends the cover batches to base and checks them against want.
func warmUp(h *httpClient, base string, batches [][]serve.QueryPair, want func(u, v int) distsketch.Dist) error {
	for _, b := range batches {
		got, err := batchAnswers(h.do(http.MethodPost, base+"/query", batchBody(b), "client.warmup"), b)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for i, pr := range b {
			if got[i] != want(pr.U, pr.V) {
				return fmt.Errorf("warm-up: (%d,%d) answered %d, want %d", pr.U, pr.V, got[i], want(pr.U, pr.V))
			}
		}
	}
	return nil
}
