package cluster

import (
	"context"
	"errors"
	"fmt"

	"pimtree"
	"pimtree/internal/server"
	"pimtree/internal/shard"
)

// Membership changes run on the producer-serialized path (prodMu), at a
// full quiesce: every routed arrival has propagated and no op batches are
// pending, so no in-flight probe can observe a half-moved window. The
// reorder buffer is deliberately untouched (like the shard layer's
// Reshape): tuples still buffered for reordering route under the new map
// when their watermark releases them.
//
// The handoff itself is interval arithmetic over RangePartitioner: node i
// owns the i-th equal-width key slice, so re-partitioning from k to k'
// nodes moves exactly the pairwise intersections old(i) ∩ new(j), i ≠ j —
// at most k + k' non-empty moves, each an export (extract-and-remove, in
// global sequence order) from the old owner and an import (merge-by-
// sequence) into the new one over the 0x16–0x1a control frames.

// AddNode dials addr, hands it the key-range slices the new partition map
// assigns to it, and installs the new membership epoch. Safe from admin
// goroutines; ingest is paused for the duration (the producer path blocks
// on prodMu).
func (fe *Frontend) AddNode(addr string) error {
	if err := fe.errLoad(); err != nil {
		return err
	}
	// Dial before pausing ingest: an unreachable node then costs nothing.
	nd, err := fe.dialNode(addr)
	if err != nil {
		return err
	}
	go nd.reader()
	fe.prodMu.Lock()
	defer fe.prodMu.Unlock()
	if fe.closed {
		nd.leaving.Store(true)
		nd.mc.Close()
		return pimtree.ErrClosed
	}
	for _, ex := range fe.nodes {
		if ex.addr == addr && ex.alive.Load() {
			nd.leaving.Store(true)
			nd.mc.Close()
			return fmt.Errorf("cluster: node %s is already a member", addr)
		}
	}
	fe.flushAll()
	if err := fe.ring.WaitEmpty(context.Background()); err != nil {
		nd.leaving.Store(true)
		nd.mc.Close()
		return err
	}
	newList := append(append([]*node(nil), fe.nodes...), nd)
	return fe.rebalanceEpoch(newList)
}

// RemoveNode drains the node matching ref (node ID or address) of its key
// range — handing its window slices to the survivors — removes it from the
// map, and closes its member session. Removing an already-down node is
// allowed (its window is gone; this re-spreads its key range). Safe from
// admin goroutines.
func (fe *Frontend) RemoveNode(ref string) error {
	fe.prodMu.Lock()
	defer fe.prodMu.Unlock()
	if fe.closed {
		return pimtree.ErrClosed
	}
	var target *node
	for _, nd := range fe.nodes {
		if nd.id == ref || nd.addr == ref {
			target = nd
			break
		}
	}
	if target == nil {
		return fmt.Errorf("cluster: no member matches %q", ref)
	}
	if len(fe.nodes) == 1 {
		return errors.New("cluster: cannot remove the last node")
	}
	fe.flushAll()
	if err := fe.ring.WaitEmpty(context.Background()); err != nil {
		return err
	}
	newList := make([]*node, 0, len(fe.nodes)-1)
	for _, nd := range fe.nodes {
		if nd != target {
			newList = append(newList, nd)
		}
	}
	err := fe.rebalanceEpoch(newList)
	target.leaving.Store(true)
	target.mc.Close() // the reader unwinds through nodeDown's leaving branch
	return err
}

// rebalanceEpoch moves every window slice whose owner changes between the
// current map and newList, then installs the new epoch. Moves whose
// endpoint died mid-handoff are counted as lost (their tuples are shed) and
// reported, but the epoch still installs — the map and the surviving
// storage must agree, and every completed move is only correct under the
// new map. Caller holds prodMu at full quiesce.
func (fe *Frontend) rebalanceEpoch(newList []*node) error {
	oldList, oldPart := fe.nodes, fe.part
	newPart := shard.NewRangePartitioner(len(newList))
	var errs []error
	for i, src := range oldList {
		if !src.alive.Load() {
			continue // a dead source's window is already lost
		}
		slo, shi := oldPart.Range(i)
		for j, dst := range newList {
			if dst == src || !dst.alive.Load() {
				continue
			}
			dlo, dhi := newPart.Range(j)
			lo, hi := max(slo, dlo), min(shi, dhi)
			if lo > hi {
				continue
			}
			if err := fe.move(src, dst, lo, hi); err != nil {
				errs = append(errs, err)
			}
		}
	}
	fe.setMu.Lock()
	fe.nodes = newList
	fe.part = newPart
	for pos, nd := range newList {
		nd.pos = pos
	}
	// The ring is quiesced, so the per-slot bucket rows can be resized to
	// the new maximum fan-out width in place.
	fe.ring.Resize(fe.cfg.Capacity, len(newList))
	fe.setMu.Unlock()
	fe.epoch.Add(1)
	fe.cfg.Logf("cluster: membership epoch %d: %d nodes", fe.epoch.Load(), len(newList))
	return errors.Join(errs...)
}

// move hands the inclusive key range [lo, hi] from src to dst: request the
// export, collect the window batches, ship them to dst, and wait for the
// import acknowledgement. Both sessions are quiescent, so the exported
// slice is exact and ordered by global sequence.
func (fe *Frontend) move(src, dst *node, lo, hi uint32) error {
	if err := src.mc.RequestExport(lo, hi); err != nil {
		fe.nodeDown(src, fmt.Errorf("export request: %w", err))
		return fmt.Errorf("cluster: export [%d, %d] from %s: %w", lo, hi, src.id, err)
	}
	var tuples []shard.WindowTuple
collect:
	for {
		ev, ok := src.awaitCtrl()
		if !ok {
			return fmt.Errorf("cluster: node %s died exporting [%d, %d]; window slice lost", src.id, lo, hi)
		}
		switch ev.Type {
		case server.FrameWindow:
			tuples = append(tuples, ev.Window...)
		case server.FrameExportDone:
			if ev.Count != uint64(len(tuples)) {
				err := fmt.Errorf("cluster: node %s export count %d != %d tuples received", src.id, ev.Count, len(tuples))
				fe.nodeDown(src, err)
				return err
			}
			break collect
		default:
			err := fmt.Errorf("cluster: node %s sent unexpected %#x during export", src.id, ev.Type)
			fe.nodeDown(src, err)
			return err
		}
	}
	if len(tuples) == 0 {
		return nil
	}
	if err := dst.mc.SendWindow(tuples); err != nil {
		fe.nodeDown(dst, fmt.Errorf("window import: %w", err))
		return fmt.Errorf("cluster: import into %s: %w; %d tuples lost", dst.id, err, len(tuples))
	}
	if err := dst.mc.SendImportDone(uint64(len(tuples))); err != nil {
		fe.nodeDown(dst, fmt.Errorf("import-done: %w", err))
		return fmt.Errorf("cluster: import into %s: %w; %d tuples lost", dst.id, err, len(tuples))
	}
	ev, ok := dst.awaitCtrl()
	if !ok {
		return fmt.Errorf("cluster: node %s died importing [%d, %d]; %d tuples lost", dst.id, lo, hi, len(tuples))
	}
	if ev.Type != server.FrameImported || ev.Count != uint64(len(tuples)) {
		err := fmt.Errorf("cluster: node %s import ack mismatch (type %#x count %d, want %d)", dst.id, ev.Type, ev.Count, len(tuples))
		fe.nodeDown(dst, err)
		return err
	}
	fe.handoffs.Add(1)
	fe.handoffTuples.Add(uint64(len(tuples)))
	fe.cfg.Logf("cluster: moved %d window tuples [%d, %d] %s -> %s", len(tuples), lo, hi, src.id, dst.id)
	return nil
}
