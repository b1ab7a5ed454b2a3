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
// that live for one run call. run starts them on the call's first
// parallel round; between rounds they park on the token channel, and run
// releases them with one token each and waits on a barrier until every
// token has been consumed and the shared work cursor is exhausted. stop
// closes the channel, which ends the workers' range over it, and waits
// on the same barrier until every worker has left its loop.
type workerPool struct {
	workers int
	start   chan struct{} // one token per worker per round; nil while no workers run
	barrier sync.WaitGroup

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
	if p.start == nil {
		p.workers = max(runtime.GOMAXPROCS(0), 1)
		p.start = make(chan struct{}, p.workers)
		for w := 0; w < p.workers; w++ {
			go p.loop(p.start)
		}
	}
	p.f, p.n = f, n
	p.chunk = max(n/(p.workers*4), minChunk)
	p.next.Store(0)
	p.barrier.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		p.start <- struct{}{}
	}
	p.barrier.Wait()
}

func (p *workerPool) loop(start <-chan struct{}) {
	for range start {
		p.drain()
		p.barrier.Done()
	}
	p.barrier.Done()
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

// stop ends the workers, if any run, and returns once they have; the
// next parallel round starts new ones.
func (p *workerPool) stop() {
	if p.start != nil {
		p.barrier.Add(p.workers)
		close(p.start)
		p.barrier.Wait()
		p.start = nil
	}
}
