// Package shard implements the key-range sharded parallel join runtime: a
// Router splits the key domain into K contiguous ranges, each owned by an
// independent single-writer join engine fed by a batched FIFO of routed
// commands, and an order-preserving merge stage re-sequences the per-shard
// match output into global arrival order.
//
// Compared to the paper's shared-index runtime (internal/join.RunShared),
// sharding removes all index-level synchronization: a shard's index is
// touched only by its own goroutine. The price is routing — every tuple is
// hashed to its owner shard, and a band probe whose interval
// [key-Diff, key+Diff] straddles a shard boundary fans out to each shard
// whose range it intersects (at most two adjacent shards whenever
// Diff is smaller than the shard width, the common case).
//
// Exactness: ops reach each shard in global arrival order, and probes carry
// the [te, tl) global-sequence window captured at admission, so the sharded
// join produces the identical match multiset as the single-threaded IBWJ on
// the same input regardless of batch size, shard count, or scheduling.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/ooo"
	"pimtree/internal/stream"
	"pimtree/internal/wal"
)

// Config configures a sharded join run.
type Config struct {
	Shards    int // shard count (default GOMAXPROCS); ignored when Part is set
	BatchSize int // routed ops per shard batch before a size flush (default 64)
	// FlushHorizon bounds batching latency: a shard's pending batch is
	// flushed once this many arrivals have been routed since its oldest
	// buffered op, even if the batch is not full. Without it a cold shard
	// could hold a probe back a full window, stalling the ordered merge
	// stage behind it. Default: the smaller window length.
	FlushHorizon int

	WR, WS int       // window lengths (WS ignored for self-joins)
	Self   bool      // self-join: one stream, one window per shard
	Band   join.Band // band predicate

	Index join.IndexKind     // per-shard index backend (default PIM-Tree)
	IM    core.IMTreeConfig  // IM-Tree knobs
	PIM   core.PIMTreeConfig // PIM-Tree knobs

	// Part overrides the default equal-width RangePartitioner; use a
	// QuantilePartitioner for skewed key distributions. Must be monotone
	// (see Partitioner).
	Part Partitioner

	// Adaptive enables the online rebalancing layer: per-shard load
	// accounting, a monitor goroutine that detects imbalance, and epoch-based
	// live migration of window contents to boundaries recomputed from a
	// recent-key sample. The initial partitioner (Part or the equal-width
	// default) only seeds the first epoch.
	Adaptive bool
	// Rebalance tunes the adaptive layer; ignored unless Adaptive is set.
	Rebalance Policy

	// Timed switches the runtime to time-based windows: arrivals enter via
	// PushTimed, carry event timestamps, expire by Span instead of window
	// position, and are admitted through a bounded reorder buffer that
	// tolerates event-time disorder up to Slack (late tuples follow Late /
	// OnLate). WR/WS are ignored; MaxLive bounds simultaneously live tuples
	// per window and sizes the per-shard stores. Adaptive rebalancing is not
	// supported in timed mode.
	Timed   bool
	Span    uint64 // timed: window duration in timestamp units (required)
	MaxLive int    // timed: upper bound on live tuples per window (required)
	Slack   uint64 // timed: tolerated event-time disorder
	Late    ooo.Policy
	OnLate  func(t ooo.Tuple, lateness uint64)

	Sink join.MatchSink // optional ordered result sink

	// WAL, when non-nil, makes the window state durable: every shard worker
	// appends each applied insert to its own log lane, Drain becomes a
	// durability barrier (watermark record + fsync on every lane), and —
	// with SnapshotEvery > 0 — the router writes a compacting snapshot of
	// the live window every SnapshotEvery routed arrivals, rotating all
	// lanes at a drain barrier and pruning the segments the snapshot
	// obsoletes. Restore replays a recovered state into a fresh router.
	WAL *wal.Log
	// SnapshotEvery is the snapshot cadence in routed arrivals (0 disables
	// snapshots; the log then grows until Close). Ignored when WAL is nil.
	SnapshotEvery int
}

// defaultRouterCapacity sizes the in-flight ring when the caller does not.
const defaultRouterCapacity = 1 << 14

// Router is the front end of the sharded runtime: a Sequencer that numbers
// arrivals and captures their windows, an executor that applies the routed
// ops on one worker per shard, and a Ring that re-sequences the per-shard
// results — plus the WAL and the adaptive rebalancing layer. Push routes
// arrivals; Drain quiesces the shards mid-session; Close drains them and
// returns the run's statistics. Push, Drain, and Close must be called from
// one goroutine; match propagation to the sink happens concurrently on
// shard goroutines but always in global arrival order.
//
// The ring's capacity is the session's in-flight bound: pushing more than
// capacity arrivals ahead of the ordered-propagation frontier flushes the
// pending batches and blocks until the merge stage catches up — the
// runtime's backpressure.
type Router struct {
	cfg  Config
	part Partitioner
	seq  Sequencer
	x    executor
	ring *Ring

	// horizonFlushes counts batches shipped by the flush horizon (the
	// executor counts size flushes), readable after Close (or between
	// Pushes) for tests and diagnostics.
	horizonFlushes int
	// probeRouted counts probe ops enqueued per shard (router-goroutine
	// only) — the observable for fan-out tests and skew diagnostics.
	probeRouted []int

	// Adaptive rebalancing state. stats only exists while cfg.Adaptive is
	// set; sample is always allocated (reshape epochs seed quantile
	// boundaries from it even when the adaptive layer is off); reb only runs
	// while the adaptive monitor is wanted.
	stats   *loadStats
	sample  *keyRing
	reb     *rebalancer
	pol     Policy
	lastReb int          // arrival index of the last rebalance epoch
	epochs  atomic.Int64 // completed rebalance epochs (read live by Stats scrapers)
	moved   atomic.Int64 // tuples that changed shards across all epochs

	// snapMu guards the identity of the per-shard slices (the executor's
	// engines, chans and qhw, and stats) across reshape epochs: LoadSnapshot
	// readers take the read side from arbitrary goroutines while reshard
	// swaps the slices under the write side. The router's own accesses need
	// no lock — Reshape runs on the producer-serialized path, like every
	// other mutation.
	snapMu   sync.RWMutex
	reshapes atomic.Int64 // applied reshape epochs (read live by Tuning scrapers)

	// baseMerges/baseMergeTime bank the merge statistics of engine sets
	// retired by reshard, so Close's totals survive the rebuild.
	baseMerges    int
	baseMergeTime time.Duration

	// Timed-mode admission: the reorder buffer in front of routing. Nil for
	// count windows.
	reorder *ooo.Reorderer

	// Durability state (nil/zero when cfg.WAL is nil). The shard lanes live
	// in the executor; the router only touches them while the workers are
	// parked at a drain barrier (rotate, sync, seal). metaLane carries the
	// router's watermark records. lastSnap is the arrival index of the last
	// snapshot epoch.
	metaLane *wal.Lane
	lastSnap int
}

// NewRouter builds a sharded runtime whose in-flight ring holds capacity
// arrivals (<= 0 selects a default) and starts one worker goroutine per
// shard.
func NewRouter(cfg Config, capacity int) *Router {
	var span uint64
	if cfg.Timed {
		if cfg.Span == 0 {
			panic("shard: Span must be positive in timed mode")
		}
		if cfg.MaxLive <= 0 {
			panic("shard: MaxLive must be positive in timed mode")
		}
		if cfg.Adaptive {
			panic("shard: adaptive rebalancing is not supported in timed mode")
		}
		// MaxLive plays the window-length role everywhere a count window
		// would be consulted: store/index sizing and the flush horizon.
		cfg.WR, cfg.WS = cfg.MaxLive, cfg.MaxLive
		span = cfg.Span
	}
	if cfg.WR <= 0 {
		panic("shard: WR must be positive")
	}
	if cfg.Self {
		cfg.WS = cfg.WR
	}
	if cfg.WS <= 0 {
		panic("shard: WS must be positive")
	}
	if cfg.Part == nil {
		k := cfg.Shards
		if k <= 0 {
			k = runtime.GOMAXPROCS(0)
		}
		cfg.Part = NewRangePartitioner(k)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.FlushHorizon <= 0 {
		cfg.FlushHorizon = cfg.WR
		if !cfg.Self && cfg.WS < cfg.FlushHorizon {
			cfg.FlushHorizon = cfg.WS
		}
	}
	if capacity <= 0 {
		capacity = defaultRouterCapacity
	}
	k := cfg.Part.Shards()
	r := &Router{
		cfg:         cfg,
		part:        cfg.Part,
		seq:         NewSequencer(cfg.WR, cfg.WS, cfg.Self, span),
		probeRouted: make([]int, k),
	}
	var emit func(uint8, uint64, [][]uint64)
	if cfg.Sink != nil {
		emit = r.emit
	}
	r.ring = NewRing(capacity, k, emit, r.x.flushAll)
	r.x.ring, r.x.self, r.x.batch = r.ring, cfg.Self, cfg.BatchSize
	if cfg.Adaptive {
		// Load accounting only exists when something reads it: the
		// counters are atomic (monitor goroutine) and sit on the routing
		// hot path, so static runs skip them entirely.
		r.stats = newLoadStats(k)
		r.pol = cfg.Rebalance.withDefaults(cfg)
		if r.pol.ForceEvery <= 0 {
			r.reb = startRebalancer(r.stats, r.pol)
		}
	}
	// The recent-key sample is always maintained (one ring write per insert):
	// reshape epochs seed the new partitioner's quantile boundaries from it
	// even when the run started without the adaptive layer.
	r.sample = newKeyRing(r.pol.SampleSize)
	if cfg.Timed {
		r.reorder = ooo.New(cfg.Slack, cfg.Late, cfg.OnLate)
	}
	if cfg.WAL != nil {
		r.metaLane = cfg.WAL.NewLane()
	}
	r.x.start(newEngines(cfg, k))
	return r
}

// emit hands one retired arrival's matches to the sink, bucket by bucket.
func (r *Router) emit(s uint8, probeSeq uint64, buckets [][]uint64) {
	for _, bucket := range buckets {
		for _, mseq := range bucket {
			r.cfg.Sink(s, probeSeq, mseq)
		}
	}
}

// Push routes one arrival: a probe op to every shard whose range intersects
// the band interval, then an insert op to the key's owner shard. Blocks
// while the in-flight ring is full.
func (r *Router) Push(a stream.Arrival) {
	r.route(ooo.Tuple{Stream: a.Stream, Key: a.Key})
	if r.cfg.Adaptive {
		r.maybeRebalance()
	}
	if r.cfg.WAL != nil {
		r.maybeWALSnapshot()
	}
}

// PushTimed admits one timed arrival to the reorder buffer (timed mode
// only). Event times may be disordered up to the configured Slack; tuples
// later than that follow the Late policy. Routing happens as the watermark
// (max observed timestamp - Slack) releases tuples in timestamp order, so a
// push may route zero or more tuples, and Drain/Close flush the remainder.
func (r *Router) PushTimed(s uint8, key uint32, ts uint64) {
	if r.reorder == nil {
		panic("shard: PushTimed on a count-window router")
	}
	r.reorder.Push(ooo.Tuple{Stream: s, Key: key, TS: ts}, r.route)
	if r.cfg.WAL != nil {
		r.maybeWALSnapshot()
	}
}

// route routes one admitted arrival (TS is ignored for count windows): a
// probe op to every shard whose range intersects the band interval, carrying
// the window the Sequencer captured at admission, then an insert op with
// its eviction watermark to the key's owner shard. Timed arrivals come
// released by the reorder buffer in non-decreasing timestamp order, which
// is what makes the per-shard stores' ring eviction and the probes' seq < tl
// bound exact.
func (r *Router) route(t ooo.Tuple) {
	st := r.seq.Next(t.Stream, t.TS)
	lo, hi := r.cfg.Band.Range(t.Key)
	s1 := r.x.clamp(r.part.ShardOf(lo))
	s2 := r.x.clamp(r.part.ShardOf(hi))
	idx, _ := r.ring.Admit(t.Stream, st.Seq, s2-s1+1)
	for s := s1; s <= s2; s++ {
		r.probeRouted[s]++
		r.stats.probe(s)
		r.x.enqueue(s, op{
			kind: opProbe, stream: st.Probed, lo: lo, hi: hi,
			te: st.TE, tl: st.TL, idx: idx, bucket: s - s1,
		})
	}
	owner := r.x.clamp(r.part.ShardOf(t.Key))
	r.stats.insert(owner)
	r.sample.add(t.Key)
	r.x.enqueue(owner, op{
		kind: opInsert, stream: st.Own, key: t.Key, seq: st.Seq, te: st.WM, ts: t.TS,
	})
	r.ring.Publish()
	r.flushExpired()
}

// flushExpired flushes every shard whose oldest buffered op has aged past
// the flush horizon (the batching analogue of window expiry: an op may not
// linger while the window slides a full length past it).
func (r *Router) flushExpired() {
	n := r.ring.Admitted()
	for s := range r.x.pend {
		if f := r.x.pend[s].first; f >= 0 && n-f >= r.cfg.FlushHorizon {
			r.horizonFlushes++
			r.x.flush(s)
		}
	}
}

// frontiers returns the per-slot eviction frontiers of the live window: the
// count-window frontier, or the highest timestamp watermark any store has
// applied (timed mode — released timestamps are monotone, so it is the
// global frontier).
func (r *Router) frontiers() (wms [2]uint64) {
	for slot := uint8(0); slot < 2; slot++ {
		if !r.cfg.Timed {
			wms[slot] = r.seq.Frontier(slot)
			continue
		}
		for _, e := range r.x.engines {
			wms[slot] = max(wms[slot], e.stores[slot].wm)
		}
	}
	return wms
}

// maybeRebalance runs on the router goroutine after each Push: it honors a
// deterministic ForceEvery schedule, or picks up the monitor's imbalance
// request once the minimum epoch gap has passed.
func (r *Router) maybeRebalance() {
	n := r.ring.Admitted()
	if r.pol.ForceEvery > 0 {
		if n-r.lastReb >= r.pol.ForceEvery {
			r.rebalance()
		}
		return
	}
	if r.reb.want.Load() && n-r.lastReb >= r.pol.MinGap {
		r.rebalance()
		r.reb.want.Store(false)
	}
}

// rebalance is one epoch of the adaptive layer: recompute boundaries from
// the recent-key sample, drain every shard to a barrier, migrate live window
// contents between engines, and install the new partitioner. It runs
// entirely on the router goroutine; exactness is preserved because no op is
// in flight during the migration and every probe routed afterwards fans out
// under the same partitioner that owns the migrated tuples.
func (r *Router) rebalance() {
	r.lastReb = r.ring.Admitted()
	part, ok := boundsFromSample(r.sample.snapshot(), len(r.x.engines))
	if !ok {
		return
	}
	if samePartition(r.part, part.(QuantilePartitioner)) {
		r.stats.reset()
		return
	}
	r.x.drainBarrier()
	r.moved.Add(int64(migrate(r.x.engines, r.x.engines, r.cfg, part, r.frontiers())))
	r.part = part
	r.epochs.Add(1)
	r.stats.reset()
}

// Reshape describes a live structural or parameter change applied by
// Router.Reshape at an epoch barrier. Zero (or nil) fields keep the current
// value.
type Reshape struct {
	// Shards is the target shard count. Changing it is a full reshape epoch:
	// the worker set is stopped at the drain barrier, a fresh engine set is
	// spawned, live window slices migrate into it, and the retired engines
	// are dropped. The new boundaries are the quantiles of the recent-key
	// sample when it is thick enough (equal-width ranges otherwise), so under
	// heavy skew the effective count can collapse below the request.
	Shards int
	// BatchSize swaps the routed-ops-per-batch bound for subsequent epochs.
	BatchSize int
	// Capacity swaps the in-flight ring capacity. The ring is empty at the
	// reshape barrier (all routed arrivals are propagated), so the swap is a
	// plain reallocation.
	Capacity int
	// Policy, when non-nil, replaces the adaptive rebalancing policy and
	// enables the adaptive layer if it was off (count windows only).
	Policy *Policy
}

// Reshape applies a live reconfiguration at an epoch barrier: it drains
// every shard to quiescence, runs the ordered propagation to the frontier
// (emptying the in-flight ring), and then swaps parameters and — for a shard
// count change — the engine set itself, migrating live window contents
// exactly as a rebalance epoch does. The match multiset is unaffected:
// no op or result is in flight while the structure changes, and every probe
// routed afterwards fans out under the partitioner that owns the migrated
// tuples. Producer-serialized, like Push and Drain; the timed reorder buffer
// is deliberately left untouched (flushing it would advance the watermark
// and turn merely-buffered tuples late).
func (r *Router) Reshape(q Reshape) {
	if q.Shards < 0 || q.BatchSize < 0 || q.Capacity < 0 {
		panic("shard: negative Reshape parameter")
	}
	if q.Policy != nil && r.cfg.Timed {
		panic("shard: adaptive rebalancing is not supported in timed mode")
	}
	r.x.drainBarrier()
	r.ring.Propagate()
	if r.ring.inFlight() != 0 {
		panic("shard: reshape barrier left the in-flight ring non-empty")
	}
	if q.BatchSize > 0 {
		r.cfg.BatchSize = q.BatchSize
		r.x.batch = q.BatchSize
	}
	if q.Capacity > 0 {
		// The workers are parked at their channel receive.
		r.ring.Resize(q.Capacity, len(r.x.engines))
	}
	if q.Policy != nil {
		r.cfg.Adaptive = true
		r.cfg.Rebalance = *q.Policy
	}
	if q.Shards > 0 && q.Shards != len(r.x.engines) {
		r.reshard(q.Shards)
	} else if q.Policy != nil {
		r.restartAdaptive()
	}
	r.reshapes.Add(1)
}

// reshard is the structural half of a reshape epoch: stop the worker set
// (parked at the drain barrier, so closing the channels releases them to
// exit), spawn a fresh engine set sized to the target count, migrate every
// live window tuple into it, rebuild the routing fan-out state, and restart
// the workers.
func (r *Router) reshard(want int) {
	r.x.stop()
	// Seal the retiring workers' lanes (they have exited; the sealed
	// segments stay on disk until a later snapshot covers them). The new
	// worker set gets fresh lanes below.
	for _, l := range r.x.lanes {
		l.Close()
	}
	// Bank the retiring engines' merge statistics so Close's totals survive
	// the rebuild.
	for _, e := range r.x.engines {
		m, t := e.merges(r.cfg.Self)
		r.baseMerges += m
		r.baseMergeTime += t
	}
	var part Partitioner
	if p, ok := boundsFromSample(r.sample.snapshot(), want); ok {
		part = p
	} else {
		part = NewRangePartitioner(want)
	}
	k := part.Shards()
	cfg := r.cfg
	cfg.Part = part
	cfg.Shards = k
	engines, lanes := newEngines(cfg, k)
	r.moved.Add(int64(migrate(r.x.engines, engines, cfg, part, r.frontiers())))
	r.ring.Resize(r.ring.Capacity(), k)
	r.snapMu.Lock()
	r.cfg = cfg
	r.part = part
	r.x.start(engines, lanes)
	r.probeRouted = make([]int, k)
	// The load accounting is sized per shard: drop it in the same critical
	// section as the engine swap (a scraper must never pair new engines with
	// old counters); restartAdaptive below rebuilds it at the new size.
	r.stats = nil
	r.snapMu.Unlock()
	r.restartAdaptive()
}

// restartAdaptive rebuilds the adaptive layer's accounting and monitor for
// the current engine set and policy — called after a reshard (the counters
// are sized per shard) and after a live policy swap. A no-op beyond stopping
// a stale monitor when the adaptive layer is off.
func (r *Router) restartAdaptive() {
	if r.reb != nil {
		r.reb.stop()
		r.reb = nil
	}
	if !r.cfg.Adaptive {
		return
	}
	r.pol = r.cfg.Rebalance.withDefaults(r.cfg)
	stats := newLoadStats(len(r.x.engines))
	r.snapMu.Lock()
	r.stats = stats
	r.snapMu.Unlock()
	r.lastReb = r.ring.Admitted()
	if r.pol.ForceEvery <= 0 {
		r.reb = startRebalancer(stats, r.pol)
	}
}

// Shards returns the live shard count — reshape epochs can change it. Safe
// from any goroutine.
func (r *Router) Shards() int {
	r.snapMu.RLock()
	defer r.snapMu.RUnlock()
	return len(r.x.engines)
}

// Reshapes returns how many reshape epochs have been applied. Safe from any
// goroutine.
func (r *Router) Reshapes() int { return int(r.reshapes.Load()) }

// Drain quiesces the session deterministically: flush the reorder buffer
// (timed mode — everything still buffered is admitted, advancing the
// watermark past it), flush every pending batch, wait at the drain barrier
// until all routed ops are applied, and run the ordered propagation to the
// frontier. On return every pushed tuple's matches have reached the sink
// and Matches(); the session stays usable. Router-goroutine only.
func (r *Router) Drain() {
	if r.reorder != nil {
		r.reorder.Flush(r.route)
	}
	r.x.drainBarrier()
	r.ring.Propagate()
	if r.cfg.WAL != nil {
		// Drain is the durability checkpoint: record the frontier (the
		// watermark record makes the reorder clock recoverable even when the
		// disorder slack would otherwise hold it back) and fsync every lane.
		// The workers are parked at their channel receive behind the barrier,
		// so the router may touch their lanes.
		r.metaLane.AppendWatermark(r.seq.heads, r.reorderMaxTS(), r.reorderFloor())
		for _, l := range r.x.lanes {
			l.Sync()
		}
		r.metaLane.Sync()
	}
}

// Rebalances returns how many rebalance epochs have completed. Safe from
// any goroutine (the serving layer scrapes it live).
func (r *Router) Rebalances() int { return int(r.epochs.Load()) }

// Migrated returns how many window tuples changed shards across all epochs.
// Safe from any goroutine.
func (r *Router) Migrated() int { return int(r.moved.Load()) }

// LoadSnapshot returns each shard's current load accounting: ops routed
// since the last rebalance epoch (zero unless Adaptive — static runs skip
// the accounting), pending queue depth with its monotonic high-water mark,
// and resident window size. Every field is read from an atomic (or a channel
// length) under the reshape read-lock, so the snapshot is safe from any
// goroutine while pushes and reshapes are in flight; it is weakly consistent
// across shards, which is all a load monitor needs.
func (r *Router) LoadSnapshot() []ShardLoad {
	r.snapMu.RLock()
	defer r.snapMu.RUnlock()
	out := make([]ShardLoad, len(r.x.engines))
	for s := range out {
		out[s] = ShardLoad{
			QueueDepth: len(r.x.chans[s]),
			QueueHW:    r.x.qhw[s].Load(),
			Resident:   int(r.x.engines[s].resident.Load()),
		}
		if r.stats != nil {
			out[s].Inserts = r.stats.inserts[s].Load()
			out[s].Probes = r.stats.probes[s].Load()
		}
	}
	return out
}

// FlushCounts reports how many batch flushes were triggered by the size
// bound and by the flush horizon.
func (r *Router) FlushCounts() (size, horizon int) {
	return r.x.sizeFlushes, r.horizonFlushes
}

// Matches returns the number of matches propagated so far. Safe to call
// from any goroutine; the count trails routing by at most the unflushed
// batches.
func (r *Router) Matches() uint64 { return r.ring.Matches() }

// Tuples returns the number of arrivals routed so far (in timed mode,
// admitted by the reorder buffer). Safe from any goroutine.
func (r *Router) Tuples() int { return r.ring.Published() }

// Close flushes all pending batches, stops the workers, performs the final
// ordered propagation, and returns the run's statistics (Elapsed is left to
// the caller, which owns the clock).
func (r *Router) Close() join.Stats {
	if r.reb != nil {
		r.reb.stop()
	}
	if r.reorder != nil {
		// End-of-stream: route every tuple still held by the reorder buffer.
		r.reorder.Flush(r.route)
	}
	r.x.close()
	if r.cfg.WAL != nil {
		// Seal the log: final frontier record, then flush+fsync+close every
		// lane. The sealed segments are the recovery source for a reopen.
		r.metaLane.AppendWatermark(r.seq.heads, r.reorderMaxTS(), r.reorderFloor())
		for _, l := range r.x.lanes {
			l.Close()
		}
		r.metaLane.Close()
	}
	st := join.Stats{
		Tuples: r.ring.Admitted(), Matches: r.ring.Matches(),
		Rebalances: int(r.epochs.Load()), Migrated: int(r.moved.Load()),
	}
	if r.reorder != nil {
		st.LateDropped = r.reorder.LateDropped()
		st.MaxDisorder = r.reorder.MaxDisorder()
	}
	for _, e := range r.x.engines {
		m, t := e.merges(r.cfg.Self)
		st.Merges += m
		st.MergeTime += t
	}
	st.Merges += r.baseMerges
	st.MergeTime += r.baseMergeTime
	return st
}

// Run executes the sharded join over a pre-materialized arrival sequence and
// returns its statistics — the sharded counterpart of join.RunShared. The
// ring is sized to the whole input, so no push ever blocks.
func Run(arrivals []stream.Arrival, cfg Config) join.Stats {
	r := NewRouter(cfg, len(arrivals))
	start := time.Now()
	for _, a := range arrivals {
		r.Push(a)
	}
	st := r.Close()
	st.Elapsed = time.Since(start)
	return st
}

// RunTimed executes the sharded time-window join over a pre-materialized
// timed arrival sequence — the sharded counterpart of join.RunSharedTime,
// except that arrivals may carry event-time disorder up to cfg.Slack (the
// router's reorder buffer admits them in timestamp order; tuples later than
// the slack follow cfg.Late). Stats.Tuples counts admitted tuples.
func RunTimed(arrivals []join.TimedArrival, cfg Config) join.Stats {
	cfg.Timed = true
	r := NewRouter(cfg, len(arrivals))
	start := time.Now()
	for _, a := range arrivals {
		r.PushTimed(a.Stream, a.Key, a.TS)
	}
	st := r.Close()
	st.Elapsed = time.Since(start)
	return st
}
