package serve

// The robustness middleware stack of the frontend both tiers share.
// Three concerns, in the order they wrap a request (recovery outermost):
//
//   - withRecover: a handler panic becomes a logged 500 and the
//     process survives; a panic after the response already started
//     aborts the connection instead, so the client can never mistake a
//     truncated body for a complete 200.
//   - gateMiddleware: a bounded in-flight admission gate. At most
//     cap(sem) requests execute at once; the rest are shed immediately
//     with 503 + Retry-After. Shedding beats queueing: an unbounded
//     queue converts overload into memory growth and latencies the
//     client has long given up on, while a fast 503 lets well-behaved
//     clients back off.
//   - deadlineMiddleware: attaches context.WithTimeout to the request
//     so long executions (large batches, repairs, upstream fan-outs)
//     observe a budget.

import (
	"context"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// recoverWriter tracks whether the response has started, so the panic
// handler knows whether a clean 500 is still possible.
type recoverWriter struct {
	http.ResponseWriter
	wrote bool
}

func (rw *recoverWriter) WriteHeader(code int) {
	rw.wrote = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recoverWriter) Write(b []byte) (int, error) {
	rw.wrote = true
	return rw.ResponseWriter.Write(b)
}

// withRecover converts a handler panic into a logged 500 (counted in
// panics) so one poisoned request cannot take down every other
// connection in the process.
func (f *frontend) withRecover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &recoverWriter{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				// The connection is already being torn down deliberately;
				// re-panic and let net/http handle it quietly.
				panic(p)
			}
			f.panics.Add(1)
			f.logger.Printf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if !rw.wrote {
				writeError(rw, http.StatusInternalServerError, "internal error")
				return
			}
			// The response already started: a 500 can no longer be
			// delivered, so abort the connection — the client sees a
			// transport error, never a truncated body passing as success.
			panic(http.ErrAbortHandler)
		}()
		h.ServeHTTP(rw, r)
	})
}

// gateMiddleware is the bounded admission gate (counted in shed); nil
// sem means unbounded.
func gateMiddleware(sem chan struct{}, shed *atomic.Int64, h http.Handler) http.Handler {
	if sem == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			h.ServeHTTP(w, r)
		default:
			shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				"server at capacity (%d requests in flight); retry after backoff", cap(sem))
		}
	})
}

// deadlineMiddleware attaches the per-request execution deadline.
// Handlers with long loops (batch queries, upstream fan-outs) poll
// r.Context() and cut off cleanly.
func deadlineMiddleware(timeout time.Duration, h http.Handler) http.Handler {
	if timeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}
