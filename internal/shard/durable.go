package shard

import (
	"pimtree/internal/wal"
)

// This file is the router side of the durability layer (internal/wal): the
// snapshot barrier, the recovered-state replay, and the reorder-clock
// accessors the watermark records need. The logging itself lives on the
// worker hot path (worker appends each applied insert to its shard's lane)
// and in Drain/Close (frontier record + fsync).
//
// Why nothing else needs logging: insert records carry the global per-stream
// sequence, so replay is shard-agnostic — recovery routes every recovered
// tuple through the CURRENT partitioner. Rebalance and reshape epochs
// therefore move tuples between engines without touching the log, and the
// ordered-merge state never persists at all (matches emitted before a crash
// are not replayed; delivery is at-most-once across a restart).

// reorderMaxTS returns the reorder buffer's disorder clock (zero for count
// windows).
func (r *Router) reorderMaxTS() uint64 {
	if r.reorder == nil {
		return 0
	}
	return r.reorder.MaxTS()
}

// reorderFloor returns the reorder buffer's release watermark (zero for
// count windows).
func (r *Router) reorderFloor() uint64 {
	if r.reorder == nil {
		return 0
	}
	return r.reorder.Watermark()
}

// maybeWALSnapshot runs on the router goroutine after each push and starts a
// snapshot epoch once SnapshotEvery arrivals have been routed since the last
// one.
func (r *Router) maybeWALSnapshot() {
	n := r.ring.Admitted()
	if r.cfg.SnapshotEvery <= 0 || n-r.lastSnap < r.cfg.SnapshotEvery {
		return
	}
	r.lastSnap = n
	r.walSnapshot()
}

// walSnapshot is one snapshot epoch: drain every shard to the barrier,
// rotate all lanes (sealing the segments the snapshot will obsolete), write
// a compacting snapshot of the live window, and prune. Exactly the rebalance
// epoch's quiescence argument: no op is in flight at the barrier, the
// workers are parked at their channel receive, so the router may read engine
// stores and touch worker lanes; the next batch send publishes everything.
func (r *Router) walSnapshot() {
	r.x.drainBarrier()
	for _, l := range r.x.lanes {
		l.Rotate()
	}
	r.metaLane.Rotate()
	st := r.walState()
	if err := r.cfg.WAL.WriteSnapshot(st); err == nil {
		r.cfg.WAL.Prune()
	}
	// On error the sealed segments simply survive until a later snapshot
	// succeeds — recovery is indifferent to which files carry the prefix.
}

// walState captures the live window at a drain barrier: the sequence heads,
// the per-slot eviction frontiers (the ones reshard migrates under), the
// reorder clock, and every live tuple.
func (r *Router) walState() *wal.State {
	st := &wal.State{Timed: r.cfg.Timed, Heads: r.seq.heads, WMs: r.frontiers()}
	if r.reorder != nil {
		st.MaxTS = r.reorder.MaxTS()
		st.Floor = r.reorder.Watermark()
	}
	slots := 2
	if r.cfg.Self {
		slots = 1
		st.WMs[1] = st.WMs[0]
	}
	for slot := 0; slot < slots; slot++ {
		var live []migrant
		for s, e := range r.x.engines {
			live = e.extractLive(slot, st.WMs[slot], s, live)
		}
		for _, m := range live {
			st.Tuples = append(st.Tuples, wal.Tuple{
				Stream: uint8(slot), Key: m.key, Seq: m.seq, TS: m.ts,
			})
		}
	}
	return st
}

// Restore replays a recovered WAL state into a freshly built router: the
// sequence heads resume the global numbering, the reorder buffer is seeded
// with the recovered clock, each store's eviction watermark is raised to the
// recovered frontier, and every live tuple is adopted into its owner engine
// under the current partitioner. Must be called before the first push; the
// workers are parked at their channel receive, so the engine mutations are
// published by the first batch send (the same argument as migration).
func (r *Router) Restore(st *wal.State) {
	if st == nil {
		return
	}
	r.seq.heads = st.Heads
	if r.reorder != nil {
		r.reorder.Seed(st.MaxTS, st.Floor)
	}
	slots := 2
	if r.cfg.Self {
		slots = 1
	}
	for slot := 0; slot < slots; slot++ {
		for _, e := range r.x.engines {
			if st.WMs[slot] > e.stores[slot].wm {
				e.stores[slot].wm = st.WMs[slot]
			}
		}
	}
	// st.Tuples is globally seq-sorted, so each slot's subsequence is too —
	// the order the store rings require.
	for _, t := range st.Tuples {
		slot := int(r.seq.Slot(t.Stream))
		e := r.x.engines[r.x.clamp(r.part.ShardOf(t.Key))]
		e.adopt(slot, migrant{key: t.Key, seq: t.Seq, ts: t.TS})
	}
	for _, e := range r.x.engines {
		e.updateResident(r.cfg.Self)
	}
}
