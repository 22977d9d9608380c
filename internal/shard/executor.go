package shard

import (
	"sync"

	"pimtree/internal/metrics"
	"pimtree/internal/wal"
)

// pendingBatch is one shard's accumulating op buffer.
type pendingBatch struct {
	ops   []op
	first int // ring admission ordinal when the oldest buffered op was enqueued (-1 when empty)
}

// Per-shard channel capacities, shared by construction and reshape: the op
// channel holds 4 batches (plus one pending in the producer and one in the
// worker), and the free list holds that set with headroom so steady-state
// batch recycling is a closed loop.
const (
	shardChanCap = 4
	freeChanCap  = 8
)

// executor runs a set of single-writer shard engines, each on its own worker
// goroutine fed by a batched FIFO op channel, and completes probe buckets
// into a Ring. It is the execution half of both the Router (fed by the
// local Sequencer) and the Member (fed by ops shipped from a cluster
// router). Everything but the workers is producer-only.
type executor struct {
	ring    *Ring
	self    bool
	batch   int // ops per shard batch before a size flush
	engines []*engine
	// lanes is parallel to engines: each worker appends its applied inserts
	// to its own WAL lane (nil entries when durability is off), so the hot
	// path never locks.
	lanes []*wal.Lane
	chans []chan []op
	pend  []pendingBatch
	// free recycles op batch slices per shard: workers return consumed
	// batches, enqueue reuses them. Buffered beyond the shard channel
	// capacity plus the batches in flight (pending + in-worker), so in steady
	// state the set of circulating slices is closed — no drops on return, no
	// allocations in enqueue.
	free []chan []op
	// qhw is the per-shard queue-depth high-water mark, observed at every
	// batch handoff (single writer) and read live by load scrapers.
	qhw []metrics.PaddedCounter
	// sizeFlushes counts batches shipped because they filled.
	sizeFlushes int
	wg          sync.WaitGroup
	barrier     sync.WaitGroup
}

// newEngines builds k shard engines for cfg, each with a fresh WAL lane when
// durability is on (nil lanes otherwise).
func newEngines(cfg Config, k int) ([]*engine, []*wal.Lane) {
	engines := make([]*engine, k)
	var lanes []*wal.Lane
	if cfg.WAL != nil {
		lanes = make([]*wal.Lane, k)
	}
	for s := range engines {
		engines[s] = newEngine(cfg)
		if lanes != nil {
			lanes[s] = cfg.WAL.NewLane()
		}
	}
	return engines, lanes
}

// start installs a fresh engine set (lanes may be nil) with empty queues and
// spawns one worker per engine.
func (x *executor) start(engines []*engine, lanes []*wal.Lane) {
	k := len(engines)
	if lanes == nil {
		lanes = make([]*wal.Lane, k)
	}
	x.engines, x.lanes = engines, lanes
	x.chans = make([]chan []op, k)
	x.free = make([]chan []op, k)
	x.pend = make([]pendingBatch, k)
	x.qhw = make([]metrics.PaddedCounter, k)
	for s := range engines {
		x.chans[s] = make(chan []op, shardChanCap)
		x.free[s] = make(chan []op, freeChanCap)
		x.pend[s].first = -1
	}
	for s := range engines {
		x.wg.Add(1)
		go x.worker(s)
	}
}

// clamp keeps a partitioner result inside the engine array.
func (x *executor) clamp(s int) int {
	return min(max(s, 0), len(x.engines)-1)
}

// enqueue appends an op to a shard's pending batch, flushing on size. Batch
// slices are recycled through the shard's free channel; a fresh allocation
// only happens during warmup (or when a worker briefly held more batches
// than the free channel's headroom).
func (x *executor) enqueue(s int, o op) {
	p := &x.pend[s]
	if p.first < 0 {
		p.first = x.ring.n
		if p.ops == nil {
			select {
			case b := <-x.free[s]:
				p.ops = b[:0]
			default:
				p.ops = make([]op, 0, x.batch)
			}
		}
	}
	p.ops = append(p.ops, o)
	if len(p.ops) >= x.batch {
		x.sizeFlushes++
		x.flush(s)
	}
}

// flush ships a shard's pending batch to its worker, updating the shard's
// queue-depth high-water mark (the producer is the single writer; the depth
// observed right after the send is the ride-along sample that makes the
// mark monotone without touching the worker's consume path).
func (x *executor) flush(s int) {
	p := &x.pend[s]
	if len(p.ops) == 0 {
		return
	}
	x.chans[s] <- p.ops
	if d := uint64(len(x.chans[s])); d > x.qhw[s].Load() {
		x.qhw[s].Store(d)
	}
	p.ops = nil
	p.first = -1
}

// flushAll ships every pending batch.
func (x *executor) flushAll() {
	for s := range x.pend {
		x.flush(s)
	}
}

// drainBarrier flushes every pending batch, then sends each worker a nil
// sentinel batch and waits for all of them to acknowledge it. Because shard
// queues are FIFO, acknowledgement means every previously enqueued op has
// been fully applied; the WaitGroup gives the producer a happens-before edge
// over the workers' engine writes, and the next channel send orders the
// producer's writes (migration, restore, ring resize) before anything the
// workers do next.
func (x *executor) drainBarrier() {
	x.flushAll()
	x.barrier.Add(len(x.chans))
	for _, ch := range x.chans {
		ch <- nil
	}
	x.barrier.Wait()
}

// stop closes the worker set's channels and waits for the workers to exit;
// nothing may be pending.
func (x *executor) stop() {
	for _, ch := range x.chans {
		close(ch)
	}
	x.wg.Wait()
}

// close applies everything enqueued, stops the workers, and runs the final
// propagation.
func (x *executor) close() {
	x.flushAll()
	x.stop()
	x.ring.Propagate()
}

// worker is one shard's goroutine: apply each batch in FIFO order (logging
// inserts to the shard's WAL lane when it has one), run deferred index
// maintenance, and volunteer for ordered propagation.
func (x *executor) worker(s int) {
	defer x.wg.Done()
	e, lane, free := x.engines[s], x.lanes[s], x.free[s]
	for batch := range x.chans[s] {
		if batch == nil {
			// Drain barrier: everything enqueued before the sentinel has
			// been applied (the queue is FIFO). Acknowledge and block on the
			// next receive while the producer works on the engines.
			x.barrier.Done()
			continue
		}
		for j := range batch {
			o := &batch[j]
			if o.kind == opInsert {
				if lane != nil {
					lane.AppendInsert(o.stream, o.key, o.seq, o.ts)
				}
				e.insert(o)
				continue
			}
			// The bucket slice is recycled across ring tenants: probe
			// appends into its storage and returns the (possibly regrown)
			// slice. Safe because the propagation frontier retired the
			// previous tenant before the producer reused the slot.
			slot := x.ring.Slot(o.idx)
			x.ring.Complete(slot, o.bucket, e.probe(o, x.ring.Bucket(slot, o.bucket)))
		}
		e.maintain(x.self)
		e.updateResident(x.self)
		// Return the consumed batch slice for reuse; drop it when the free
		// channel is full (warmup overshoot).
		select {
		case free <- batch[:0]:
		default:
		}
		x.ring.Propagate()
	}
}
