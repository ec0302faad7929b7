// Package ring provides a bounded multi-producer single-consumer ring
// buffer with a coalescing doorbell — the replacement for the
// chan-per-segment boundary between tcpnet and netsim.
//
// A Go channel send costs a lock acquisition, a G handoff and often a
// scheduler wakeup *per element*. The ring splits those costs: elements
// land in the buffer with two atomic operations (Vyukov bounded-queue
// protocol), and the wakeup is a separate, coalescing doorbell — a
// capacity-1 channel that producers ring with a non-blocking send. A
// burst of N pushes wakes the consumer once, and the consumer drains
// the whole burst with one PopBatch, which is exactly the shape
// Host.SendBatch wants on the other side.
//
// Correctness of the sleep/wake protocol: a producer completes its push
// (the cell's sequence store, with release semantics) strictly before
// ringing the bell. The bell has capacity 1, so if the consumer is
// between "drained empty" and "sleep on bell", the producer's ring
// leaves a token behind and the consumer's receive returns immediately.
// Lost-wakeup is therefore impossible; spurious wakeups (token left by
// a push that was already drained) are benign — PopBatch returns 0 and
// the consumer sleeps again.
//
// TryPush never blocks: a full ring returns false and the caller
// chooses the backpressure policy (spin, park, or drop per the link's
// queue model). This keeps the ring free of hidden scheduling and makes
// the full-queue behaviour testable.
package ring

import (
	"sync/atomic"
)

type cell[T any] struct {
	seq atomic.Int64
	val T
}

// Ring is a bounded MPSC queue. Any goroutine may TryPush; exactly one
// goroutine may call PopBatch/Pop (the consumer owns tail).
type Ring[T any] struct {
	mask  int64
	cells []cell[T]

	// Producer and consumer cursors live on separate cache lines from
	// the cells; head is contended across producers, tail is
	// consumer-private but read here for Len.
	_    [64]byte
	head atomic.Int64 // next position to claim (producers)
	_    [64]byte
	tail atomic.Int64 // next position to drain (consumer)
	_    [64]byte

	bell chan struct{}

	// Stats for tests and telemetry (atomic, written on slow paths or
	// cheap enough not to matter).
	pushes atomic.Int64
	pops   atomic.Int64
	fulls  atomic.Int64 // TryPush rejections
	rings  atomic.Int64 // bell tokens actually deposited (coalesced misses excluded)
}

// New creates a ring with at least the requested capacity, rounded up
// to a power of two (minimum 2).
func New[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{
		mask:  int64(n - 1),
		cells: make([]cell[T], n),
		bell:  make(chan struct{}, 1),
	}
	for i := range r.cells {
		r.cells[i].seq.Store(int64(i))
	}
	return r
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.cells) }

// Len returns a moment-in-time element count (approximate under
// concurrent producers).
func (r *Ring[T]) Len() int {
	n := r.head.Load() - r.tail.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// TryPush enqueues v and rings the doorbell. It returns false — without
// blocking or ringing — when the ring is full.
func (r *Ring[T]) TryPush(v T) bool {
	if !r.TryPushQuiet(v) {
		return false
	}
	r.Ring()
	return true
}

// TryPushQuiet enqueues without ringing: a producer that pushes a burst
// element by element calls Ring once at the end (PushBatch does).
func (r *Ring[T]) TryPushQuiet(v T) bool {
	var c *cell[T]
	pos := r.head.Load()
	for {
		c = &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch dif := seq - pos; {
		case dif == 0:
			if r.head.CompareAndSwap(pos, pos+1) {
				goto claimed
			}
			pos = r.head.Load()
		case dif < 0:
			r.fulls.Add(1)
			return false
		default:
			pos = r.head.Load()
		}
	}
claimed:
	c.val = v
	c.seq.Store(pos + 1)
	r.pushes.Add(1)
	return true
}

// PushBatch enqueues as many elements of vs as fit, rings once if any
// landed, and returns the number enqueued. The caller owns the
// remainder (backpressure policy is theirs).
func (r *Ring[T]) PushBatch(vs []T) int {
	n := 0
	for _, v := range vs {
		if !r.TryPushQuiet(v) {
			break
		}
		n++
	}
	if n > 0 {
		r.Ring()
	}
	return n
}

// Ring deposits a wakeup token if none is pending. Safe from any
// goroutine; never blocks.
func (r *Ring[T]) Ring() {
	select {
	case r.bell <- struct{}{}:
		r.rings.Add(1)
	default:
	}
}

// Bell returns the doorbell channel for the consumer to select on. A
// receipt means "the ring may be non-empty"; drain with PopBatch until
// it returns 0, then sleep on the bell again.
func (r *Ring[T]) Bell() <-chan struct{} { return r.bell }

// PopBatch drains up to len(dst) elements into dst and returns the
// count. Single consumer only.
func (r *Ring[T]) PopBatch(dst []T) int {
	var zero T
	pos := r.tail.Load()
	n := 0
	for n < len(dst) {
		c := &r.cells[pos&r.mask]
		if c.seq.Load() != pos+1 {
			break // next cell not yet published
		}
		dst[n] = c.val
		c.val = zero // drop references for GC / pool hygiene
		c.seq.Store(pos + r.mask + 1)
		pos++
		n++
	}
	if n > 0 {
		r.tail.Store(pos)
		r.pops.Add(int64(n))
	}
	return n
}

// Pop removes one element. Single consumer only.
func (r *Ring[T]) Pop() (T, bool) {
	var buf [1]T
	if r.PopBatch(buf[:]) == 1 {
		return buf[0], true
	}
	var zero T
	return zero, false
}

// Stats is a snapshot of the ring's counters.
type Stats struct {
	Pushes, Pops, FullRejects, BellRings int64
}

// Stats snapshots the counters.
func (r *Ring[T]) Stats() Stats {
	return Stats{
		Pushes:      r.pushes.Load(),
		Pops:        r.pops.Load(),
		FullRejects: r.fulls.Load(),
		BellRings:   r.rings.Load(),
	}
}
