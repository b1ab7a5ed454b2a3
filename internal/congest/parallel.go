package congest

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the active-set size below which a round runs inline
// on the caller's goroutine: dispatching a handful of nodes to the pool
// costs more than running them.
const parallelThreshold = 64

// minChunk bounds how finely a round's work is split. Chunks amortize the
// shared cursor: one atomic add claims a whole run of items instead of one.
const minChunk = 16

// workerPool runs per-round node fan-outs on a fixed set of goroutines
// that live for the engine's lifetime. Workers are started lazily on the
// first parallel round and park on a channel between rounds; run releases
// them with one token each and waits on a barrier until every token has
// been consumed and the shared work cursor is exhausted. Between rounds
// the pool drops its reference to the job closure, so a parked pool does
// not pin the engine (which lets the engine's cleanup run and shut the
// workers down when the engine is dropped without Close).
type workerPool struct {
	startOnce sync.Once
	stopOnce  sync.Once
	workers   int
	start     chan struct{} // one token per worker per round
	stop      chan struct{}
	barrier   sync.WaitGroup

	// Per-round job state: written by run before the tokens are sent (the
	// channel send publishes them), read only by workers holding a token.
	f     func(int)
	n     int
	chunk int
	next  atomic.Int64
}

// run executes f(i) for every index i in [0, n), in parallel when the
// batch is big enough, inline otherwise. It returns only after every index
// has been processed (the round barrier). f must only touch state owned by
// its index's node, plus atomics.
func (p *workerPool) run(n int, f func(int), sequential bool) {
	if sequential || n < parallelThreshold {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	p.startOnce.Do(p.startWorkers)
	p.f, p.n = f, n
	p.chunk = n / (p.workers * 4)
	if p.chunk < minChunk {
		p.chunk = minChunk
	}
	p.next.Store(0)
	p.barrier.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		p.start <- struct{}{}
	}
	p.barrier.Wait()
	p.f = nil // drop the ref: a parked pool must not pin the engine
}

func (p *workerPool) startWorkers() {
	p.workers = runtime.GOMAXPROCS(0)
	if p.workers < 1 {
		p.workers = 1
	}
	p.start = make(chan struct{}, p.workers)
	p.stop = make(chan struct{})
	for w := 0; w < p.workers; w++ {
		go p.loop()
	}
}

func (p *workerPool) loop() {
	for {
		select {
		case <-p.stop:
			return
		case <-p.start:
			p.drain()
			p.barrier.Done()
		}
	}
}

// drain claims chunks off the shared cursor until the round's indices are
// exhausted.
func (p *workerPool) drain() {
	for {
		c := int(p.next.Add(1)) - 1
		lo := c * p.chunk
		if lo >= p.n {
			return
		}
		hi := lo + p.chunk
		if hi > p.n {
			hi = p.n
		}
		for i := lo; i < hi; i++ {
			p.f(i)
		}
	}
}

// shutdown terminates the workers (idempotent; parked workers exit, a pool
// that never started is a no-op).
func (p *workerPool) shutdown() {
	p.stopOnce.Do(func() {
		if p.stop != nil {
			close(p.stop)
		}
	})
}
