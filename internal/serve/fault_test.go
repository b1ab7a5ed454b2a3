package serve

// The fault-injection suite for the serving layer: overload against the
// admission gate, deadline expiry mid-batch, injected handler panics,
// slowloris connections, shutdown during an update storm (run under
// -race in CI), and serving an envelope whose lazily loaded label is
// corrupt behind a valid checksum. The tests reach the failure paths
// through the queryHook seam and real listeners — no mocks of net/http.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distsketch"
)

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// TestOverloadGateSheds fills every admission-gate slot with requests
// parked inside the handler, then proves: excess load is shed instantly
// with 503 + Retry-After, the probes and /stats still answer (an
// overloaded server is not a dead server), and the parked requests
// complete normally once unblocked.
func TestOverloadGateSheds(t *testing.T) {
	set, _ := buildSet(t)
	srv, err := New(set, Options{MaxInFlight: 2, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	srv.queryHook = func() { entered <- struct{}{}; <-release }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"pairs":[{"u":0,"v":1}]}`))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	<-entered
	<-entered // both slots held inside the handler

	resp, err := http.Get(ts.URL + "/query?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request over capacity: status %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("shed response Retry-After = %q, want \"1\"", got)
	}
	if !strings.Contains(string(body), "capacity") {
		t.Errorf("shed error should say the server is at capacity: %q", body)
	}

	// Probes and observability bypass the gate.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("/healthz under overload: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Errorf("/readyz under overload: status %d", code)
	}
	var st StatsReply
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Errorf("/stats under overload: status %d", code)
	} else if st.RequestsShed < 1 {
		t.Errorf("requests_shed = %d, want >= 1", st.RequestsShed)
	}

	close(release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("parked request finished with %d, want 200", code)
		}
	}
	if c := srv.Counters(); c.Shed < 1 {
		t.Errorf("Counters().Shed = %d, want >= 1", c.Shed)
	}
}

// TestOverloadDeadlineCutsBatch drives batches into an expired
// per-request deadline: an already-expired context is refused at the
// first pair, a deadline that dies mid-batch cuts execution at the next
// poll, and a queued /update-edge whose client stopped waiting is
// refused before the clone-repair-swap is paid for.
func TestOverloadDeadlineCutsBatch(t *testing.T) {
	set, g := buildSet(t)

	// An expired deadline is caught at pair 0 — no work done.
	instant, err := New(set, Options{RequestTimeout: time.Nanosecond, Graph: g, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(instant.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"pairs":[{"u":0,"v":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired batch: status %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Error("deadline response missing Retry-After")
	}
	if !strings.Contains(string(body), "deadline exceeded") {
		t.Errorf("deadline error text: %q", body)
	}

	// An update whose deadline expired while queued is refused after the
	// lock, before the O(m) reweight.
	e := g.Edges()[0]
	if code := postJSON(t, ts.URL+"/update-edge",
		fmt.Sprintf(`{"u":%d,"v":%d,"weight":1}`, e.U, e.V), nil); code != http.StatusServiceUnavailable {
		t.Errorf("expired update-edge: status %d, want 503", code)
	}
	if c := instant.Counters(); c.DeadlineExceeded < 2 {
		t.Errorf("DeadlineExceeded = %d, want >= 2", c.DeadlineExceeded)
	}

	// A deadline that expires mid-batch cuts off at the next 64-pair
	// poll: each pair takes >=2ms via the hook, so by pair 64 at least
	// 128ms have passed against a 30ms budget.
	slow, err := New(set, Options{RequestTimeout: 30 * time.Millisecond, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	slow.queryHook = func() { time.Sleep(2 * time.Millisecond) }
	ts2 := httptest.NewServer(slow.Handler())
	defer ts2.Close()
	var sb strings.Builder
	sb.WriteString(`{"pairs":[`)
	for i := 0; i < 65; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"u":%d,"v":%d}`, i%set.N(), (i+1)%set.N())
	}
	sb.WriteString("]}")
	resp, err = http.Post(ts2.URL+"/query", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-batch expiry: status %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "64 of 65") {
		t.Errorf("mid-batch expiry should report where it stopped: %q", body)
	}
	if c := slow.Counters(); c.DeadlineExceeded != 1 {
		t.Errorf("slow server DeadlineExceeded = %d, want 1", c.DeadlineExceeded)
	}
}

// TestFaultPanicRecovery injects panics into the query path: a panic
// before the response starts becomes a clean logged 500 and the server
// keeps serving; a panic after bytes are on the wire aborts the
// connection so the client cannot mistake a truncated body for success.
func TestFaultPanicRecovery(t *testing.T) {
	set, _ := buildSet(t)
	var inject atomic.Bool
	srv, err := New(set, Options{Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	srv.queryHook = func() {
		if inject.Load() {
			panic("injected fault")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inject.Store(true)
	var er errorReply
	if code := postJSON(t, ts.URL+"/query", `{"pairs":[{"u":0,"v":1}]}`, &er); code != http.StatusInternalServerError {
		t.Fatalf("panicking batch: status %d, want 500", code)
	}
	if er.Error != "internal error" {
		t.Errorf("panic response leaked detail: %q", er.Error)
	}

	// The process survives: the very next request is served normally.
	inject.Store(false)
	var reply BatchReply
	if code := postJSON(t, ts.URL+"/query", `{"pairs":[{"u":0,"v":1}]}`, &reply); code != http.StatusOK {
		t.Fatalf("request after recovered panic: status %d, want 200", code)
	}
	if c := srv.Counters(); c.PanicsRecovered != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", c.PanicsRecovered)
	}

	// Mid-body panic: enough bytes are written to force the response out,
	// then the handler dies. The connection must be aborted — the body
	// read fails — rather than delivered short under a 200.
	srv2, err := New(set, Options{Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	late := srv2.withRecover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), 64<<10)) // past any write buffer
		panic("late fault")
	}))
	ts2 := httptest.NewServer(late)
	defer ts2.Close()
	resp, err := http.Get(ts2.URL)
	if err == nil {
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Error("mid-body panic delivered a complete-looking response")
		}
	}
	if c := srv2.Counters(); c.PanicsRecovered != 1 {
		t.Errorf("mid-body PanicsRecovered = %d, want 1", c.PanicsRecovered)
	}
}

// TestOverloadSlowloris dribbles half a request header and stops: the
// server must cut the connection at ReadHeaderTimeout instead of
// letting the client pin it forever, and must keep serving well-formed
// requests while doing so.
func TestOverloadSlowloris(t *testing.T) {
	set, _ := buildSet(t)
	srv, err := New(set, Options{Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 100 * time.Millisecond}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request, then silence.
	if _, err := conn.Write([]byte("GET /query?u=0&v=1 HTTP/1.1\r\nHost: x\r\nX-Dribble: ")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	// The server either closes outright (EOF) or answers 408 and closes;
	// both mean the dribbled connection did not get to squat.
	buf := make([]byte, 1024)
	for {
		_, rerr := conn.Read(buf)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			t.Fatalf("waiting for the server to drop the connection: %v", rerr)
		}
	}
	if waited := time.Since(start); waited > 8*time.Second {
		t.Errorf("connection survived %v past the 100ms header deadline", waited)
	}

	// A real client is unaffected.
	resp, err := http.Get(base + "/query?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("well-formed request during slowloris: status %d", resp.StatusCode)
	}
}

// TestFaultShutdownDuringUpdateStorm runs graceful shutdown while an
// update storm and concurrent readers hammer a real listener (CI runs
// this under -race): readiness flips to 503 the moment the drain
// begins while queries still answer, the drain completes within its
// grace, and the final served set is exactly the in-process replay of
// however many updates were acknowledged — no half-applied repair can
// survive the shutdown.
func TestFaultShutdownDuringUpdateStorm(t *testing.T) {
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, 64, 20, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	set, err := distsketch.Build(g, distsketch.Options{Kind: distsketch.KindLandmark, Eps: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const maxUpdates = 12
	edge := g.Edges()[3]
	if edge.Weight <= maxUpdates {
		t.Fatalf("edge %v too light for %d decreases", edge, maxUpdates)
	}

	srv, err := New(set, Options{Graph: g, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	// The writer storms strictly decreasing weights on one edge and
	// counts acknowledged (200) repairs; it stops at the first refusal,
	// which the shutdown will eventually cause.
	var acked atomic.Int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for k := 1; k <= maxUpdates; k++ {
			body := fmt.Sprintf(`{"u":%d,"v":%d,"weight":%d}`, edge.U, edge.V, edge.Weight-distsketch.Dist(k))
			resp, err := client.Post(base+"/update-edge", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			acked.Store(int64(k))
		}
	}()

	// Readers hammer queries until the listener goes away; every
	// delivered response must be a 200.
	var readerErrs atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				u, v := (r*31+i)%set.N(), (i*7)%set.N()
				resp, err := client.Get(fmt.Sprintf("%s/query?u=%d&v=%d", base, u, v))
				if err != nil {
					return // the listener is gone; the storm is over
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					readerErrs.Add(1)
					return
				}
			}
		}(r)
	}

	// Let the storm get going, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() < 3 && time.Now().Before(deadline) {
		select {
		case <-writerDone:
			deadline = time.Now() // writer finished early; proceed
		case <-time.After(time.Millisecond):
		}
	}
	srv.BeginDrain()

	// Readiness refuses while queries still answer: the load balancer is
	// told to go away, the routed clients are not.
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz drain response missing Retry-After")
	}
	if code, _ := func() (int, error) {
		r2, err := client.Get(base + "/query?u=0&v=1")
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		return r2.StatusCode, nil
	}(); code != http.StatusOK {
		t.Errorf("query during drain: status %d, want 200", code)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown did not complete within grace: %v", err)
	}
	<-writerDone
	wg.Wait()
	if n := readerErrs.Load(); n != 0 {
		t.Errorf("%d reader requests got non-200 responses during the storm", n)
	}

	// The served set equals the in-process replay of exactly the
	// acknowledged updates — an interrupted repair either committed (and
	// was acknowledged) or vanished.
	S := int(acked.Load())
	replica := set.Clone()
	curG := g
	for k := 1; k <= S; k++ {
		next, err := curG.Reweighted([]distsketch.Edge{{U: edge.U, V: edge.V, Weight: edge.Weight - distsketch.Dist(k)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := replica.UpdateEdges(next, []distsketch.EdgeChange{{U: edge.U, V: edge.V}}); err != nil {
			t.Fatalf("replica update %d: %v", k, err)
		}
		curG = next
	}
	final := srv.Set()
	for u := 0; u < set.N(); u += 3 {
		for v := u; v < set.N(); v += 7 {
			if got, want := final.Query(u, v), replica.Query(u, v); got != want {
				t.Fatalf("after %d acked updates, served estimate (%d,%d) = %d, want %d", S, u, v, got, want)
			}
		}
	}
	if c := srv.Counters(); c.PanicsRecovered != 0 {
		t.Errorf("storm recovered %d panics, want 0", c.PanicsRecovered)
	}
	if !srv.Draining() {
		t.Error("Draining() = false after BeginDrain")
	}
}

// TestFaultShutdownMidBatchRepair parks a batch repair at the instant
// before its commit (the repairHook "swap" seam), then drains and — in
// the cancel variant — abandons the client mid-flight. The invariants:
// while the repair is in flight the served set is still pointer- and
// byte-identical to the pre-batch set (readers never see a torn state),
// and after shutdown the live set equals the full-batch replay exactly —
// the batch committed whole or not at all. Runs for every sketch kind:
// all four repair through the same clone-repair-verify-swap pipeline.
func TestFaultShutdownMidBatchRepair(t *testing.T) {
	g, err := distsketch.NewRandomWeightedGraph(distsketch.FamilyGeometric, 48, 10, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Six decreases spread across the graph, as one array-body batch.
	repl := map[[2]int]distsketch.Dist{}
	var edits []distsketch.Edge
	var parts []string
	var changes []distsketch.EdgeChange
	for i := 0; len(parts) < 6 && i < g.M(); i += g.M() / 7 {
		e := g.Edges()[i]
		key := [2]int{e.U, e.V}
		if _, dup := repl[key]; dup || e.Weight < 2 {
			continue
		}
		repl[key] = e.Weight / 2
		edits = append(edits, distsketch.Edge{U: e.U, V: e.V, Weight: e.Weight / 2})
		parts = append(parts, fmt.Sprintf(`{"u":%d,"v":%d,"weight":%d}`, e.U, e.V, e.Weight/2))
		changes = append(changes, distsketch.EdgeChange{U: e.U, V: e.V, PrevWeight: e.Weight})
	}
	if len(parts) < 3 {
		t.Fatalf("test graph yielded only %d usable changes", len(parts))
	}
	body := "[" + strings.Join(parts, ",") + "]"
	ng, err := g.Reweighted(edits)
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []distsketch.Kind{distsketch.KindTZ, distsketch.KindLandmark, distsketch.KindCDG, distsketch.KindGraceful} {
		for _, cancelClient := range []bool{false, true} {
			name := string(kind)
			if cancelClient {
				name += "/client-gone"
			}
			t.Run(name, func(t *testing.T) {
				set, err := distsketch.Build(g, distsketch.Options{Kind: kind, K: 2, Eps: 0.25, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				srv, err := New(set, Options{Graph: g, Logger: discardLogger()})
				if err != nil {
					t.Fatal(err)
				}
				entered := make(chan struct{})
				release := make(chan struct{})
				srv.repairHook = func(stage string) {
					if stage == "swap" {
						close(entered)
						<-release
					}
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				hs := &http.Server{Handler: srv.Handler()}
				go hs.Serve(ln)
				base := "http://" + ln.Addr().String()

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				done := make(chan int, 1)
				go func() {
					req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/update-edge", strings.NewReader(body))
					if err != nil {
						done <- -1
						return
					}
					req.Header.Set("Content-Type", "application/json")
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						done <- 0 // canceled mid-flight
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					done <- resp.StatusCode
				}()

				<-entered
				// Repair finished, commit pending: readers still see the
				// pre-batch set, byte for byte.
				if srv.Set() != set {
					t.Fatal("served set swapped before the commit point")
				}
				for u := 0; u < set.N(); u++ {
					if !bytes.Equal(srv.Set().SketchBytes(u), set.SketchBytes(u)) {
						t.Fatalf("node %d: served bytes changed mid-repair", u)
					}
				}
				srv.BeginDrain()
				if cancelClient {
					cancel() // the client walks away; the repair must still commit whole
				}
				close(release)

				sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer scancel()
				if err := hs.Shutdown(sctx); err != nil {
					t.Fatalf("graceful shutdown did not complete: %v", err)
				}
				code := <-done
				if !cancelClient && code != http.StatusOK {
					t.Fatalf("batch update: status %d, want 200", code)
				}

				// The live set is the full-batch replay exactly: the swap is
				// atomic, so an interrupted batch commits whole or vanishes —
				// here it had passed verification, so it committed.
				replica := set.Clone()
				if _, err := replica.UpdateEdges(ng, changes); err != nil {
					t.Fatalf("replica batch: %v", err)
				}
				final := srv.Set()
				for u := 0; u < set.N(); u++ {
					if !bytes.Equal(final.SketchBytes(u), replica.SketchBytes(u)) {
						t.Fatalf("node %d: live set differs from full-batch replay after shutdown", u)
					}
				}
				if c := srv.Counters(); c.Updates != 1 || c.PanicsRecovered != 0 {
					t.Errorf("counters after storm: %d updates / %d panics, want 1 / 0", c.Updates, c.PanicsRecovered)
				}
			})
		}
	}
}

// reCRCEnv recomputes the envelope checksum after a deliberate payload
// mutation (envelope layout: 6-byte magic, version byte, uvarint
// payload length, payload, crc32-IEEE little-endian).
func reCRCEnv(t *testing.T, env []byte) []byte {
	t.Helper()
	rest := env[7:]
	plen, n := binary.Uvarint(rest)
	if n <= 0 || len(rest) < n+int(plen)+4 {
		t.Fatal("bad envelope framing")
	}
	out := bytes.Clone(env)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(rest[n:n+int(plen)]))
	return out
}

// corruptNode0Envelope serializes the set as a version-2 envelope and
// damages node 0's blob behind a recomputed (valid) checksum, returning
// a freshly loaded lazy set whose first touch of node 0 must fail.
func corruptNode0Envelope(t *testing.T, set *distsketch.SketchSet) *distsketch.SketchSet {
	t.Helper()
	var buf bytes.Buffer
	if _, err := set.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	env := buf.Bytes()
	plen, n := binary.Uvarint(env[7:])
	pstart := 7 + n
	// Try damaging each payload byte until one yields an envelope that
	// loads (the directory scan passes) but whose node-0 decode fails.
	for i := pstart; i < pstart+int(plen); i++ {
		for _, b := range []byte{0x7f, 0xff} {
			if env[i] == b {
				continue
			}
			mod := bytes.Clone(env)
			mod[i] = b
			fixed := reCRCEnv(t, mod)
			cand, err := distsketch.ReadSketchSet(bytes.NewReader(fixed))
			if err != nil {
				continue
			}
			var cl *distsketch.ErrCorruptLabel
			if _, qerr := cand.QueryChecked(0, 1); errors.As(qerr, &cl) && cl.Node == 0 {
				fresh, err := distsketch.ReadSketchSet(bytes.NewReader(fixed))
				if err != nil {
					t.Fatal(err)
				}
				return fresh
			}
		}
	}
	t.Fatal("no byte mutation produced a load-valid, decode-corrupt envelope")
	return nil
}

// TestFaultCorruptLabelServing serves an envelope whose node-0 label is
// corrupt behind a valid checksum: queries touching it answer 500 with
// node and offset context, batch entries fail individually while the
// batch succeeds, /stats counts decode_failures, and a ProbeDecode
// readiness probe refuses traffic up front.
func TestFaultCorruptLabelServing(t *testing.T) {
	set, _ := buildSet(t)
	lazy := corruptNode0Envelope(t, set)
	srv, err := New(lazy, Options{ProbeDecode: true, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The decode probe fails before any traffic is routed.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz with corrupt node 0: status %d, want 503", resp.StatusCode)
	}

	var er errorReply
	resp, err = http.Get(ts.URL + "/query?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	if jerr := json.NewDecoder(resp.Body).Decode(&er); jerr != nil {
		t.Fatal(jerr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("query on corrupt label: status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(er.Error, "node 0") || !strings.Contains(er.Error, "byte") {
		t.Errorf("corrupt-label error should name the node and offset: %q", er.Error)
	}

	// A batch containing the corrupt node fails only that entry.
	var reply BatchReply
	if code := postJSON(t, ts.URL+"/query", `{"pairs":[{"u":0,"v":1},{"u":1,"v":2}]}`, &reply); code != http.StatusOK {
		t.Fatalf("batch with corrupt entry: status %d, want 200", code)
	}
	if reply.Results[0].Error == "" || reply.Results[0].Estimate != nil {
		t.Errorf("corrupt entry should carry a per-entry error: %+v", reply.Results[0])
	}
	if reply.Results[1].Error != "" || reply.Results[1].Estimate == nil {
		t.Errorf("healthy entry damaged by its neighbor: %+v", reply.Results[1])
	}

	var st StatsReply
	getJSON(t, ts.URL+"/stats", &st)
	if st.DecodeFailures < 3 { // probe + single query + batch entry
		t.Errorf("decode_failures = %d, want >= 3", st.DecodeFailures)
	}
}
