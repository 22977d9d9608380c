package shard

import (
	"context"
	"sync"
	"sync/atomic"
)

// probeState tracks one admitted probe's completion across its fan-out
// targets, padded to a cache line: targets completing adjacent probes would
// otherwise false-share.
type probeState struct {
	pending   atomic.Int32
	completed atomic.Bool
	_         [64 - 5]byte
}

// Ring is the ordered in-flight completion ring — the one result-propagation
// stage of every runtime built on this package: the Router over local
// shards, the Member over a node's sub-shards, and the cluster Frontend over
// remote nodes. The producer admits one slot per probe, fans the probe out
// to nbuck targets, and publishes it; each target completes its bucket of
// the slot's result row; propagation emits completed slots strictly in
// admission order, one bucket row at a time in fan-out order (key-range
// order for a monotone partitioner).
//
// Admit, Publish and Resize are producer-only. Complete and Propagate are
// safe from any goroutine. A slot is reused only after propagation retired
// its previous tenant, so a slot's tag, row and bucket storage are owned by
// whoever the protocol currently hands them to.
type Ring struct {
	capN int
	n    int          // slots admitted so far (producer only)
	pub  atomic.Int64 // admissions published to propagators

	// Per-slot state, ring-indexed by admission ordinal modulo capN. Each
	// slot's bucket row is allocated once (one bucket per fan-out target)
	// and the bucket slices are recycled across tenants; nbuck bounds the
	// row to the probe's actual fan-out, so the steady state never
	// allocates. The tag is (probe stream, probe sequence) for the Router
	// and Frontend, and the router's correlation id for a Member.
	tagStream []uint8
	tag       []uint64
	results   [][][]uint64
	nbuck     []int32
	state     []probeState

	// emit receives each retired slot in admission order, under the
	// propagation lock (nil: count only). The bucket slices are recycled
	// storage, valid only during the call. onFull runs before the producer
	// parks on a full ring: the completions it is about to wait for may
	// still be buffered on its side.
	emit   func(stream uint8, tag uint64, buckets [][]uint64)
	onFull func()

	// Ordered propagation (the same try-lock protocol as the shared-index
	// runtime). propHead is the retire frontier the producer consults for
	// slot reuse; matchesA mirrors matches for readers. Readers must never
	// contend on propLock: a propagate pass that loses its retry CAS to a
	// pure reader would strand a completed head, because only propagators
	// re-check the head after releasing.
	propLock atomic.Bool
	propHead atomic.Int64
	matches  uint64
	matchesA atomic.Uint64

	// Backpressure handshake: waiters park on bpCond; the propagation
	// holder broadcasts after advancing the frontier, but only when
	// bpWaiters says someone is parked (the waiter increments before
	// re-checking the frontier and propagate loads after storing it, so
	// sequential consistency rules out a lost wakeup).
	bpMu      sync.Mutex
	bpCond    *sync.Cond
	bpWaiters atomic.Int32
}

// NewRing returns a ring of capacity slots whose rows hold width buckets
// (the widest possible fan-out). emit may be nil; onFull must not be.
func NewRing(capacity, width int, emit func(stream uint8, tag uint64, buckets [][]uint64), onFull func()) *Ring {
	r := &Ring{emit: emit, onFull: onFull}
	r.bpCond = sync.NewCond(&r.bpMu)
	r.Resize(capacity, width)
	return r
}

// Resize reallocates the ring for a new capacity and row width. Only legal
// while the ring is empty. Keeping the capacity rebuilds just the bucket
// rows, which nothing reads while the ring is empty, so a completer may
// still be finishing its last propagate pass; a capacity change replaces the
// slot state too, so the completers must be parked (the next batch send
// publishes the new slots to them).
func (r *Ring) Resize(capacity, width int) {
	if capacity != r.capN {
		r.capN = capacity
		r.tagStream = make([]uint8, capacity)
		r.tag = make([]uint64, capacity)
		r.results = make([][][]uint64, capacity)
		r.nbuck = make([]int32, capacity)
		r.state = make([]probeState, capacity)
	}
	for i := range r.results {
		r.results[i] = make([][]uint64, width)
	}
}

// Capacity returns the slot count.
func (r *Ring) Capacity() int { return r.capN }

// Admitted returns how many slots the producer has admitted (producer only).
func (r *Ring) Admitted() int { return r.n }

// Published returns how many admissions are published. Safe from any
// goroutine.
func (r *Ring) Published() int { return int(r.pub.Load()) }

// Matches returns the matches propagated so far. Safe from any goroutine.
func (r *Ring) Matches() uint64 { return r.matchesA.Load() }

// inFlight is the count of admitted, unretired slots.
func (r *Ring) inFlight() int { return r.n - int(r.propHead.Load()) }

// Admit claims the slot for the next probe with the given tag and fan-out
// width, returning its admission ordinal and slot. When the ring is full it
// runs onFull, one propagate pass (a probe whose every bucket completed on
// the producer side has no other propagator), and then parks until the
// frontier retires the slot's previous tenant — the runtime's backpressure.
func (r *Ring) Admit(stream uint8, tag uint64, fanout int) (idx, slot int) {
	if r.inFlight() >= r.capN {
		r.onFull()
		r.Propagate()
		r.bpMu.Lock()
		r.bpWaiters.Add(1)
		for r.inFlight() >= r.capN {
			r.bpCond.Wait()
		}
		r.bpWaiters.Add(-1)
		r.bpMu.Unlock()
	}
	idx = r.n
	slot = idx % r.capN
	r.tagStream[slot] = stream
	r.tag[slot] = tag
	r.nbuck[slot] = int32(fanout)
	r.state[slot].completed.Store(false)
	r.state[slot].pending.Store(int32(fanout))
	return idx, slot
}

// Publish makes the last admitted probe visible to propagators. Call it once
// all of the probe's fan-out is shipped.
func (r *Ring) Publish() {
	r.n++
	r.pub.Store(int64(r.n))
}

// Slot maps an admission ordinal to its slot.
func (r *Ring) Slot(idx int) int { return idx % r.capN }

// Bucket returns the recycled storage of a slot's bucket, for a completer
// that appends its results in place.
func (r *Ring) Bucket(slot, b int) []uint64 { return r.results[slot][b] }

// Complete stores bucket b of a slot and counts down the slot's fan-out.
func (r *Ring) Complete(slot, b int, seqs []uint64) {
	r.results[slot][b] = seqs
	if r.state[slot].pending.Add(-1) == 0 {
		r.state[slot].completed.Store(true)
	}
}

// done reports whether the slot at ordinal head is published and complete.
func (r *Ring) done(head int) bool {
	return head < int(r.pub.Load()) && r.state[head%r.capN].completed.Load()
}

// Propagate is the order-preserving merge stage: under a try-lock, emit
// every completed slot at the ring head, in admission order. After
// releasing the lock the holder re-checks the head: a completion that lost
// the try-lock race while this holder was mid-pass must not strand its
// slot, so the holder loops until the head is incomplete (Go's sequentially
// consistent atomics make the re-check sound).
func (r *Ring) Propagate() {
	for {
		if !r.propLock.CompareAndSwap(false, true) {
			return
		}
		head := int(r.propHead.Load())
		advanced := false
		for r.done(head) {
			h := head % r.capN
			row := r.results[h][:r.nbuck[h]]
			for _, bucket := range row {
				r.matches += uint64(len(bucket))
			}
			if r.emit != nil {
				r.emit(r.tagStream[h], r.tag[h], row)
			}
			head++
			advanced = true
		}
		if advanced {
			// The match mirror first: a drainer that observes the advanced
			// frontier must also observe the matches behind it.
			r.matchesA.Store(r.matches)
			r.propHead.Store(int64(head))
		}
		r.propLock.Store(false)
		if advanced && r.bpWaiters.Load() > 0 {
			// Wake parked waiters; skipped when there are none, keeping the
			// merge stage off the mutex.
			r.bpMu.Lock()
			r.bpCond.Broadcast()
			r.bpMu.Unlock()
		}
		if !r.done(head) {
			return
		}
	}
}

// WaitEmpty blocks until every admitted slot has been retired, or ctx ends.
// Producer only, with everything the ring waits on already shipped.
func (r *Ring) WaitEmpty(ctx context.Context) error {
	r.Propagate()
	stop := context.AfterFunc(ctx, func() {
		r.bpMu.Lock()
		r.bpCond.Broadcast()
		r.bpMu.Unlock()
	})
	defer stop()
	r.bpMu.Lock()
	defer r.bpMu.Unlock()
	r.bpWaiters.Add(1)
	defer r.bpWaiters.Add(-1)
	for r.inFlight() != 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.bpCond.Wait()
	}
	return nil
}
