package join

import (
	"iter"
	"sync"
	"sync/atomic"
)

// MatchQueue is the unbounded FIFO behind a pull-side match iterator (the
// Engine's and the cluster router's). Producers (propagation goroutines)
// never block on it — bounding it would deadlock a serial runtime, whose
// producer and consumer can share a goroutine — so it only buffers while
// armed: a consumer that stops iterating disarms it, which is what keeps an
// abandoned pull side from growing forever.
type MatchQueue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	armed  atomic.Bool
	buf    []T
	head   int
	closed bool
}

// NewMatchQueue returns an empty, disarmed queue.
func NewMatchQueue[T any]() *MatchQueue[T] {
	q := &MatchQueue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// arm starts collection. Arming an armed queue is a no-op.
func (q *MatchQueue[T]) arm() {
	if q.armed.Swap(true) {
		return
	}
	// Fresh collection window: drop any residue a disarmed consumer (or a
	// push that raced the disarm) left behind.
	q.mu.Lock()
	q.buf = q.buf[:0]
	q.head = 0
	q.mu.Unlock()
}

// disarm stops collection and drops the buffer. A push that loaded armed
// just before the store may still append one match; it is bounded residue
// that the next arm clears.
func (q *MatchQueue[T]) disarm() {
	q.armed.Store(false)
	q.mu.Lock()
	q.buf = q.buf[:0]
	q.head = 0
	q.mu.Unlock()
}

// Push appends m if the queue is armed. The disarmed path is one atomic
// load, inlined into the caller, before any lock.
func (q *MatchQueue[T]) Push(m T) {
	if q.armed.Load() {
		q.push(m)
	}
}

func (q *MatchQueue[T]) push(m T) {
	q.mu.Lock()
	q.buf = append(q.buf, m)
	q.cond.Signal()
	q.mu.Unlock()
}

// Close ends the iterator once the buffered matches are consumed.
func (q *MatchQueue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// next blocks until a match is buffered or the queue is closed.
func (q *MatchQueue[T]) next() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.buf) && !q.closed {
		q.cond.Wait()
	}
	if q.head < len(q.buf) {
		m := q.buf[q.head]
		q.head++
		switch {
		case q.head == len(q.buf):
			q.buf = q.buf[:0]
			q.head = 0
		case q.head >= 1024 && q.head*2 >= len(q.buf):
			// Compact the consumed prefix: a long-lived session whose
			// consumer stays slightly behind would otherwise grow the
			// buffer with every match ever emitted.
			n := copy(q.buf, q.buf[q.head:])
			q.buf = q.buf[:n]
			q.head = 0
		}
		return m, true
	}
	var zero T
	return zero, false
}

// Seq arms the queue and returns the iterator over it: it blocks awaiting
// further matches until Close, and breaking out of it disarms the queue.
func (q *MatchQueue[T]) Seq() iter.Seq[T] {
	q.arm()
	return func(yield func(T) bool) {
		for {
			m, ok := q.next()
			if !ok {
				return
			}
			if !yield(m) {
				q.disarm()
				return
			}
		}
	}
}
