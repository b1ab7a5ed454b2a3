package congest

import (
	"sync/atomic"
	"testing"

	"distsketch/internal/graph"
)

// TestOutQueues pins the per-edge discipline: each Flush sends one
// message per non-empty edge in FIFO order, a source is queued at most
// once per edge until it is sent and is built from current state when
// sent, and the node asks for the next round while anything stays queued.
func TestOutQueues(t *testing.T) {
	ctx := &Context{maxWords: defaultMaxWords, wakeCount: new(atomic.Int64), adj: []graph.Arc{{To: 1, Weight: 1}, {To: 2, Weight: 1}}, out: make([]Message, 2)}
	q := NewOutQueues(2)
	q.Push(0, floodMsg{1})
	if got := q.PushSourceAll(7); got != 2 {
		t.Fatalf("PushSourceAll(7) queued on %d edges, want 2", got)
	}
	if got := q.PushSourceAll(7); got != 0 {
		t.Fatalf("PushSourceAll(7) again queued on %d edges, want 0", got)
	}
	best := 40 // the source's current distance, read at send time
	flush := func() []Message {
		ctx.wake, ctx.sent = false, 0
		clear(ctx.out)
		q.Flush(ctx, func(src int) Message { return floodMsg{src + best} })
		return append([]Message(nil), ctx.out...)
	}
	if got := flush(); got[0] != (floodMsg{1}) || got[1] != (floodMsg{47}) || !ctx.wake {
		t.Fatalf("round 1 sent %v (wake %v), want [{1} {47}] and a wake", got, ctx.wake)
	}
	// Edge 1 sent source 7, so it may queue it again; edge 0 still holds it.
	if got := q.PushSourceAll(7); got != 1 {
		t.Fatalf("PushSourceAll(7) after one send queued on %d edges, want 1", got)
	}
	best = 30
	if got := flush(); got[0] != (floodMsg{37}) || got[1] != (floodMsg{37}) || ctx.wake {
		t.Fatalf("round 2 sent %v (wake %v), want [{37} {37}] and no wake", got, ctx.wake)
	}
	if got := flush(); got[0] != nil || got[1] != nil {
		t.Fatalf("empty queues sent %v", got)
	}
}
