package window

import (
	"fmt"
	"sync/atomic"
)

// TimeConcurrent is the time-based counterpart of Concurrent, backing the
// parallel time-window join extension. Section 4.1 notes that for time-based
// windows the per-tuple tl/te boundary recording of the count-based case is
// unnecessary — "it is possible to filter out unrelated tuples using
// timestamps" — so slots carry the tuple timestamp and probes filter by it.
//
// The population of a time window is unbounded in general; the caller
// supplies maxLive, an upper bound on simultaneously live tuples, which
// sizes the ring with the same reuse guard as Concurrent. Append enforces
// the bound: overwriting a still-live slot panics rather than corrupting
// results.
type TimeConcurrent struct {
	slots []tcslot
	mask  uint64
	span  uint64

	_        [64]byte
	head     atomic.Uint64
	_        [56]byte
	edge     atomic.Uint64
	_        [56]byte
	edgeLock atomic.Bool
	_        [63]byte
	maxTS    atomic.Uint64
	_        [56]byte
}

// tcslot packs one timed tuple (32 bytes, two per cache line).
type tcslot struct {
	key     atomic.Uint32
	indexed atomic.Uint32
	seq     atomic.Uint64
	ts      atomic.Uint64
}

// NewTimeConcurrent returns a concurrent time window covering span timestamp
// units with room for maxLive simultaneously live tuples plus inflight
// unprocessed arrivals.
func NewTimeConcurrent(span uint64, maxLive, inflight int) *TimeConcurrent {
	if span == 0 {
		panic("window: time span must be positive")
	}
	if maxLive <= 0 {
		panic(fmt.Sprintf("window: maxLive %d must be positive", maxLive))
	}
	if inflight < 0 {
		inflight = 0
	}
	capacity := pow2Ceil(4*uint64(maxLive) + uint64(inflight) + 2)
	c := &TimeConcurrent{
		slots: make([]tcslot, capacity),
		mask:  capacity - 1,
		span:  span,
	}
	for i := range c.slots {
		c.slots[i].seq.Store(^uint64(0))
	}
	return c
}

// Span returns the window duration in timestamp units.
func (c *TimeConcurrent) Span() uint64 { return c.span }

// Head returns the next sequence number.
func (c *TimeConcurrent) Head() uint64 { return c.head.Load() }

// Edge returns the earliest non-indexed sequence number.
func (c *TimeConcurrent) Edge() uint64 { return c.edge.Load() }

// MaxTS returns the largest timestamp appended so far.
func (c *TimeConcurrent) MaxTS() uint64 { return c.maxTS.Load() }

// Append publishes a timed tuple. Timestamps must be non-decreasing in
// append order (the admission mutex of the join serializes appends).
func (c *TimeConcurrent) Append(key uint32, ts uint64) (ref uint32, seq uint64) {
	if max := c.maxTS.Load(); ts < max {
		panic(fmt.Sprintf("window: timestamp %d regressed below %d", ts, max))
	}
	seq = c.head.Load()
	ref = uint32(seq & c.mask)
	s := &c.slots[ref]
	if old := s.seq.Load(); old != ^uint64(0) {
		// Reuse guard: the previous occupant must be long expired.
		if oldTS := s.ts.Load(); ts-oldTS < c.span {
			panic(fmt.Sprintf("window: ring overflow — live tuple (ts %d) overwritten at ts %d; raise maxLive", oldTS, ts))
		}
	}
	s.key.Store(key)
	s.indexed.Store(0)
	s.ts.Store(ts)
	s.seq.Store(seq)
	c.maxTS.Store(ts)
	c.head.Store(seq + 1)
	return ref, seq
}

// Get returns the slot contents for ref with a seq double-read to detect
// concurrent reuse.
func (c *TimeConcurrent) Get(ref uint32) (key uint32, ts, seq uint64, ok bool) {
	s := &c.slots[ref]
	s1 := s.seq.Load()
	key = s.key.Load()
	ts = s.ts.Load()
	s2 := s.seq.Load()
	return key, ts, s1, s1 == s2
}

// KeyAt returns the key of a published, unreclaimed sequence number.
func (c *TimeConcurrent) KeyAt(seq uint64) uint32 { return c.slots[seq&c.mask].key.Load() }

// RefOf maps a sequence number to its ring reference.
func (c *TimeConcurrent) RefOf(seq uint64) uint32 { return uint32(seq & c.mask) }

// MarkIndexed flags a tuple as inserted into its index.
func (c *TimeConcurrent) MarkIndexed(seq uint64) { c.slots[seq&c.mask].indexed.Store(1) }

// TryAdvanceEdge advances the edge past consecutively indexed tuples under a
// try-lock, as in Concurrent.
func (c *TimeConcurrent) TryAdvanceEdge() {
	e := c.edge.Load()
	if e >= c.head.Load() || c.slots[e&c.mask].indexed.Load() == 0 {
		return
	}
	if !c.edgeLock.CompareAndSwap(false, true) {
		return
	}
	e = c.edge.Load()
	head := c.head.Load()
	start := e
	for e < head && c.slots[e&c.mask].indexed.Load() == 1 {
		e++
	}
	if e != start {
		c.edge.Store(e)
	}
	c.edgeLock.Store(false)
}

// ScanRange emits (key, ts, seq) for published tuples with lo <= seq < hi.
func (c *TimeConcurrent) ScanRange(lo, hi uint64, emit func(key uint32, ts, seq uint64) bool) {
	for s := lo; s < hi; s++ {
		slot := &c.slots[s&c.mask]
		if !emit(slot.key.Load(), slot.ts.Load(), s) {
			return
		}
	}
}

// Backlog returns head - edge.
func (c *TimeConcurrent) Backlog() uint64 {
	h := c.head.Load()
	e := c.edge.Load()
	if h < e {
		return 0
	}
	return h - e
}

// Capacity returns the ring capacity.
func (c *TimeConcurrent) Capacity() int { return len(c.slots) }
