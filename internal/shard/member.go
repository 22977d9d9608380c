package shard

import (
	"runtime"
	"sort"
	"sync/atomic"

	"pimtree/internal/join"
)

// This file is the node side of the cluster tier: a Member hosts a slice of
// the global key domain as a set of local single-writer shard engines, fed
// not by its own admission logic but by pre-sequenced ops shipped from a
// remote cluster router (internal/cluster). The router performs ALL global
// sequencing — per-stream sequence heads, band fan-out, eviction watermarks,
// timed-mode reordering — exactly as Router does for local shards, so a
// probe op arriving here already carries its [TE, TL) window and an insert
// op its global sequence and watermark. The member only has to apply ops in
// shipment order and report each probe's matched sequences back, tagged with
// the router's correlation id. Global exactness then follows from the same
// argument as the single-machine sharded runtime: ops reach every engine in
// global arrival order, and liveness is filtered by windows captured at
// admission, not by any node-local clock.

// Op is one wire-shipped routed command — the exported mirror of the
// internal op type, as carried by the cluster Ops frame.
type Op struct {
	Insert bool
	Stream uint8  // owner stream for inserts, probed stream for probes
	Key    uint32 // insert: tuple key
	Lo, Hi uint32 // probe: band range (inclusive)
	Seq    uint64 // insert: the tuple's global per-stream sequence
	TE, TL uint64 // insert: TE = eviction watermark; probe: [TE, TL) window
	TS     uint64 // timed-mode insert: event timestamp
	Idx    uint64 // probe: router correlation id, echoed with the result
}

// WindowTuple is one live window tuple in flight between nodes during a
// membership-change handoff (the cross-node analogue of migrant).
type WindowTuple struct {
	Stream uint8
	Key    uint32
	Seq    uint64
	TS     uint64 // timed mode only
}

// MemberConfig shapes a node-side member runtime. It is decoded from the
// router's join frame, never from node-local flags: every member of a
// cluster must apply ops under identical window/backend parameters or the
// match multiset diverges.
type MemberConfig struct {
	Shards int  // local sub-shard count (default GOMAXPROCS)
	Self   bool // self-join: one stream, one window per engine
	Timed  bool // time-based windows (ops carry event timestamps)

	WR, WS  int // count-window lengths (global W; local stores hold subsets)
	MaxLive int // timed: bound on live tuples per window (sizes stores)

	Index     join.IndexKind // per-shard index backend
	BatchSize int            // ops per local shard batch (default 64)
	Capacity  int            // in-flight probe ring bound (default 4096)
}

const defaultMemberCapacity = 1 << 12

// Member applies cluster-shipped ops against local sub-shard engines and
// emits probe results through a callback: an executor fed by Apply instead
// of a Sequencer. Ops reach the per-shard FIFO worker channels in shipment
// order, the drain barrier gives quiescence, and the Ring emits each probe's
// buckets in local shard order — which is key-range order, so the
// concatenation across nodes at the router remains deterministic.
//
// Apply, Quiesce, ExportRange, Import, and Close must all be called from one
// dispatching goroutine (the member connection's reader). The result
// callback fires on worker goroutines.
type Member struct {
	cfg  MemberConfig
	ecfg Config // engine-shaping subset passed to newEngine/resetSlot
	part Partitioner
	x    executor
	// ring tracks member-local probe ordinals; each slot's tag is the
	// router's correlation id.
	ring *Ring

	applied atomic.Uint64 // ops dispatched to workers
	evictWM atomic.Uint64 // max insert watermark seen (seq, or minTS timed)
}

// NewMember builds a member runtime and starts its local shard workers.
// onResult must be non-nil. It receives each completed probe's matched
// sequences, bucketed by local shard in shard order; the bucket slices are
// recycled ring storage, valid only during the call, so the callback must
// consume (copy or encode) them before returning.
func NewMember(cfg MemberConfig, onResult func(idx uint64, buckets [][]uint64)) *Member {
	if cfg.Timed {
		if cfg.MaxLive <= 0 {
			panic("shard: member MaxLive must be positive in timed mode")
		}
		cfg.WR, cfg.WS = cfg.MaxLive, cfg.MaxLive
	}
	if cfg.WR <= 0 {
		panic("shard: member WR must be positive")
	}
	if cfg.Self {
		cfg.WS = cfg.WR
	}
	if cfg.WS <= 0 {
		panic("shard: member WS must be positive")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultMemberCapacity
	}
	k := cfg.Shards
	m := &Member{
		cfg: cfg,
		ecfg: Config{
			WR: cfg.WR, WS: cfg.WS, Self: cfg.Self,
			Timed: cfg.Timed, Index: cfg.Index,
		},
		part: NewRangePartitioner(k),
	}
	m.ring = NewRing(cfg.Capacity, k, func(_ uint8, rid uint64, buckets [][]uint64) {
		onResult(rid, buckets)
	}, m.x.flushAll)
	m.x.ring, m.x.self, m.x.batch = m.ring, cfg.Self, cfg.BatchSize
	m.x.start(newEngines(m.ecfg, k))
	return m
}

// Apply dispatches one shipped op batch to the local shards, in order. Every
// pending local batch is flushed before returning — an incoming Ops frame is
// the natural batching unit, so no op ever lingers waiting for a horizon.
// May block on ring backpressure, which propagates to the router through the
// connection's TCP window.
func (m *Member) Apply(ops []Op) {
	for i := range ops {
		o := &ops[i]
		if o.Insert {
			if o.TE > m.evictWM.Load() {
				m.evictWM.Store(o.TE)
			}
			m.x.enqueue(m.x.clamp(m.part.ShardOf(o.Key)), op{
				kind: opInsert, stream: storeSlot(m.cfg.Self, o.Stream),
				key: o.Key, seq: o.Seq, te: o.TE, ts: o.TS,
			})
			continue
		}
		s1 := m.x.clamp(m.part.ShardOf(o.Lo))
		s2 := m.x.clamp(m.part.ShardOf(o.Hi))
		idx, _ := m.ring.Admit(0, o.Idx, s2-s1+1)
		for s := s1; s <= s2; s++ {
			m.x.enqueue(s, op{
				kind: opProbe, stream: storeSlot(m.cfg.Self, o.Stream), lo: o.Lo, hi: o.Hi,
				te: o.TE, tl: o.TL, idx: idx, bucket: s - s1,
			})
		}
		m.ring.Publish()
	}
	m.applied.Add(uint64(len(ops)))
	m.x.flushAll()
}

// Quiesce flushes every pending batch and blocks until all shipped ops have
// been applied and every probe result emitted (the cluster analogue of the
// drain barrier). On return the engines may be mutated from the dispatching
// goroutine (export/import).
func (m *Member) Quiesce() {
	m.x.drainBarrier()
	m.ring.Propagate()
}

// slots returns the store slots a member iterates for handoff: slot 0 only
// for self-joins (slot 1 is an alias), both otherwise.
func (m *Member) slots() int {
	if m.cfg.Self {
		return 1
	}
	return 2
}

// ExportRange quiesces, then extracts and REMOVES every live window tuple
// whose key falls in [lo, hi] (inclusive), returning them in per-stream
// sequence order. Removal matters: after a handoff the range belongs to
// another node, and a stale copy here would still be hit by band probes and
// double-report matches. Keepers are rebuilt in place (reset + re-adopt in
// sequence order, preserving each store ring's monotone-seq invariant).
func (m *Member) ExportRange(lo, hi uint32) []WindowTuple {
	m.Quiesce()
	var out []WindowTuple
	for _, e := range m.x.engines {
		for slot := 0; slot < m.slots(); slot++ {
			st := e.stores[slot]
			live := e.extractLive(slot, st.wm, 0, nil)
			keep := live[:0]
			for _, mg := range live {
				if mg.key >= lo && mg.key <= hi {
					out = append(out, WindowTuple{
						Stream: uint8(slot), Key: mg.key, Seq: mg.seq, TS: mg.ts,
					})
				} else {
					keep = append(keep, mg)
				}
			}
			w := m.ecfg.WR
			if slot == 1 {
				w = m.ecfg.WS
			}
			e.resetSlot(slot, m.ecfg, w, st.wm)
			for _, mg := range keep {
				e.adopt(slot, mg)
			}
		}
		e.updateResident(m.cfg.Self)
	}
	return out
}

// Import quiesces, then adopts handed-off window tuples into their local
// owner engines. Because imported sequences may be older than tuples already
// resident (the node was live while the exporter drained), each touched
// store is rebuilt: existing live tuples and imports are merged, sorted by
// sequence, and re-adopted, restoring the ring's monotone-seq invariant.
func (m *Member) Import(tuples []WindowTuple) {
	if len(tuples) == 0 {
		return
	}
	m.Quiesce()
	// Bucket imports by (engine, slot).
	type dest struct{ eng, slot int }
	byDest := make(map[dest][]migrant)
	for _, t := range tuples {
		d := dest{m.x.clamp(m.part.ShardOf(t.Key)), int(storeSlot(m.cfg.Self, t.Stream))}
		byDest[d] = append(byDest[d], migrant{key: t.Key, seq: t.Seq, ts: t.TS})
	}
	for d, imps := range byDest {
		e := m.x.engines[d.eng]
		st := e.stores[d.slot]
		merged := e.extractLive(d.slot, st.wm, 0, nil)
		merged = append(merged, imps...)
		sort.Slice(merged, func(i, j int) bool { return merged[i].seq < merged[j].seq })
		w := m.ecfg.WR
		if d.slot == 1 {
			w = m.ecfg.WS
		}
		e.resetSlot(d.slot, m.ecfg, w, st.wm)
		for _, mg := range merged {
			e.adopt(d.slot, mg)
		}
		e.updateResident(m.cfg.Self)
	}
}

// Resident reports tuples currently stored across all local shards (both
// streams). Safe from any goroutine.
func (m *Member) Resident() int {
	n := int64(0)
	for _, e := range m.x.engines {
		n += e.resident.Load()
	}
	return int(n)
}

// Applied reports ops dispatched to local shards. Safe from any goroutine.
func (m *Member) Applied() uint64 { return m.applied.Load() }

// EvictWM reports the highest eviction watermark shipped with an insert
// (a global sequence for count windows, a minimum live event time for timed
// ones) — the member's view of the global frontier. Safe from any goroutine.
func (m *Member) EvictWM() uint64 { return m.evictWM.Load() }

// Shards reports the local sub-shard count.
func (m *Member) Shards() int { return len(m.x.engines) }

// Close stops the local workers after applying everything dispatched.
// The member must not be used afterwards.
func (m *Member) Close() { m.x.close() }
