package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"pimtree"
	"pimtree/internal/cluster"
	"pimtree/internal/server"
)

// The layer ladder pushes shared-count's input (fill, then one round)
// through each rung in turn and times the round. Every rung's match count
// is checked against the serial oracle.

func runLadder(e *env, r *report) error {
	f, diff, err := sharedFeed(e.seed)
	if err != nil {
		return err
	}
	n := f.round()
	pre, err := countPrefixes(f, sharedW, diff, []int{f.fill, f.fill + n})
	if err != nil {
		return fmt.Errorf("ladder oracle: %w", err)
	}
	want := pre[1] - pre[0]
	ns := make(map[string]float64)
	for _, rg := range rungs {
		tps, got, err := ladderRung(e, r, rg.name, f, diff)
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", rg.name, err)
		}
		r.attempted += int64(f.fill + n)
		r.expect("ladder "+rg.name+" matches", got, want)
		ns[rg.name] = 1e9 / tps
		r.set(rg.tps, tps)
		r.set("ladder."+rg.name+".ns_per_tuple", ns[rg.name])
		r.set("ladder."+rg.name+".delta_ns", ns[rg.name]-ns[rg.base])
		e.logf("ladder %-12s %10.0f tuples/s %8.1f ns/tuple %+8.1f ns vs %s", rg.name, tps, ns[rg.name], ns[rg.name]-ns[rg.base], rg.base)
	}
	tps := func(rung string) float64 { return 1e9 / ns[rung] }
	r.set("join.pim_over_btree", tps("serial")/tps("serial_btree"))
	r.set("join.shared_speedup", tps("shared")/tps("shared_1t"))
	r.set("shard.over_serial", tps("sharded")/tps("serial"))
	r.set("wal.cost_ns_per_tuple", ns["sharded_wal"]-ns["sharded"])
	e.logf("claim pim_over_btree=%.3f (serial PIM-Tree %.0f / serial B+-Tree %.0f tuples/s, w=2^16, 1 thread)",
		tps("serial")/tps("serial_btree"), tps("serial"), tps("serial_btree"))
	e.logf("claim shared_speedup=%.3f (shared %d threads %.0f / shared 1 thread %.0f tuples/s; target >= 1.6 at 2 threads)",
		tps("shared")/tps("shared_1t"), e.nproc, tps("shared"), tps("shared_1t"))
	e.logf("claim over_serial=%.3f (sharded %d shards %.0f / serial %.0f tuples/s; target >= 1)",
		tps("sharded")/tps("serial"), e.nproc, tps("sharded"), tps("serial"))
	return nil
}

func ladderRung(e *env, r *report, name string, f *feed, diff uint32) (float64, uint64, error) {
	base := pimtree.Config{WindowR: sharedW, WindowS: sharedW, Diff: diff, DiscardMatches: true}
	switch name {
	case "index":
		return indexRung(e, r, f, diff)
	case "serial":
		base.Mode = pimtree.ModeSerial
	case "serial_btree":
		base.Mode, base.Backend = pimtree.ModeSerial, pimtree.BPlusTree
	case "shared_1t":
		base.Mode, base.Threads = pimtree.ModeShared, 1
	case "shared":
		base.Mode, base.Threads = pimtree.ModeShared, e.nproc
	case "sharded":
		base.Mode, base.Shards = pimtree.ModeSharded, e.nproc
	case "sharded_wal":
		dir := filepath.Join(e.workdir, "wal-ladder")
		defer os.RemoveAll(dir)
		if err := os.RemoveAll(dir); err != nil {
			return 0, 0, err
		}
		base.Mode, base.Shards = pimtree.ModeSharded, e.nproc
		base.Durability = pimtree.Durability{Dir: dir}
	case "wire":
		base.Mode, base.Shards = pimtree.ModeSharded, e.nproc
		ss, err := startServe(base, nil)
		if err != nil {
			return 0, 0, err
		}
		tps, got, err := servedRung(ss.addr(), f, func() uint64 { return ss.eng.Stats().Matches })
		if _, cerr := ss.close(); err == nil {
			err = cerr
		}
		return tps, got, err
	case "route":
		rs, err := startRoute(2, cluster.Config{WR: sharedW, WS: sharedW, Diff: diff, Backend: pimtree.PIMTree, LocalShards: 1}, nil)
		if err != nil {
			return 0, 0, err
		}
		tps, got, err := servedRung(rs.addr(), f, func() uint64 { return rs.fe.Stats().Matches })
		if _, cerr := rs.close(); err == nil {
			err = cerr
		}
		return tps, got, err
	default:
		return 0, 0, fmt.Errorf("unknown rung")
	}
	return engineRung(base, f)
}

// engineRung pushes the fill and one round into an in-process Engine.
func engineRung(cfg pimtree.Config, f *feed) (float64, uint64, error) {
	eng, err := pimtree.Open(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close(context.Background())
	buf := make([]pimtree.Arrival, batchSize)
	push := func(from, to int) error {
		for p := from; p < to; p += batchSize {
			b := buf[:min(batchSize, to-p)]
			f.copyInto(b, p)
			if err := eng.PushBatch(b); err != nil {
				return err
			}
		}
		return eng.Drain(context.Background())
	}
	if err := push(0, f.fill); err != nil {
		return 0, 0, err
	}
	m0, t0 := eng.Stats().Matches, nanotime()
	if err := push(f.fill, f.fill+f.round()); err != nil {
		return 0, 0, err
	}
	t1 := nanotime()
	return float64(f.round()) / (float64(t1-t0) / 1e9), eng.Stats().Matches - m0, nil
}

// servedRung pushes the fill and one round through a server over loopback,
// closed loop on one ingest connection.
func servedRung(addr string, f *feed, matches func() uint64) (float64, uint64, error) {
	c, err := server.Dial(addr, server.DialOptions{})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	buf := make([]pimtree.Arrival, batchSize)
	push := func(from, to int) error {
		for p := from; p < to; p += batchSize {
			b := buf[:min(batchSize, to-p)]
			f.copyInto(b, p)
			if err := c.PushBatch(b); err != nil {
				return err
			}
		}
		_, err := c.DrainWait()
		return err
	}
	if err := push(0, f.fill); err != nil {
		return 0, 0, err
	}
	m0, t0 := matches(), nanotime()
	if err := push(f.fill, f.fill+f.round()); err != nil {
		return 0, 0, err
	}
	t1 := nanotime()
	return float64(f.round()) / (float64(t1-t0) / 1e9), matches() - m0, nil
}

// indexRung joins the input with two pimtree.Index instances directly —
// probe the opposite window's index, insert into the own one, maintain on
// demand — and times every 16th arrival's index steps as spans.
func indexRung(e *env, r *report, f *feed, diff uint32) (float64, uint64, error) {
	var ix [2]*pimtree.Index
	for s := range ix {
		var err error
		if ix[s], err = pimtree.NewIndex(sharedW, pimtree.IndexOptions{}); err != nil {
			return 0, 0, err
		}
	}
	var (
		heads    [2]uint64
		minLive  uint64
		count    uint64
		maints   int
		liveFrom uint64
	)
	visit := func(_, ref uint32) bool {
		if uint64(ref) >= minLive {
			count++
		}
		return true
	}
	live := func(ref uint32) bool { return uint64(ref) >= liveFrom }
	step := func(p int, sampled bool) {
		a := f.at(p)
		s := a.Stream & 1
		o := s ^ 1
		minLive = heads[o] - min(heads[o], sharedW)
		lo := a.Key - min(a.Key, diff)
		hi := a.Key + min(diff, math.MaxUint32-a.Key)
		var t int64
		if sampled {
			t = e.tr.begin()
		}
		ix[o].Search(lo, hi, visit)
		if sampled {
			e.tr.end(spanIndexSearch, uint64(p), t)
			t = e.tr.begin()
		}
		ix[s].Insert(a.Key, uint32(heads[s]))
		heads[s]++
		if sampled {
			e.tr.end(spanIndexInsert, uint64(p), t)
		}
		if ix[s].NeedsMaintenance() {
			liveFrom = heads[s] - min(heads[s], sharedW)
			t := e.tr.begin()
			ix[s].Maintain(live)
			e.tr.end(spanIndexMaintain, uint64(p), t)
			maints++
		}
	}
	for p := 0; p < f.fill; p++ {
		step(p, false)
	}
	count, maints = 0, 0
	n := f.round()
	e.tr.on.Store(true)
	t0 := nanotime()
	for p := f.fill; p < f.fill+n; p++ {
		step(p, p%16 == 0)
	}
	t1 := nanotime()
	e.tr.on.Store(false)
	sum := e.tr.summarize()
	mean := func(n spanName) float64 {
		if s := sum[n]; s != nil && s.count > 0 {
			return float64(s.totalNs) / float64(s.count)
		}
		return 0
	}
	r.set("core.insert_ns", mean(spanIndexInsert))
	r.set("core.search_ns", mean(spanIndexSearch))
	r.set("core.maintain_ms", mean(spanIndexMaintain)/1e6)
	r.set("core.maintains_per_mtuple", float64(maints)/(float64(n)/1e6))
	var bytes, entries int
	for _, x := range ix {
		m := x.Memory()
		bytes += m.ImmutableLeafBytes + m.ImmutableInnerBytes + m.MutableBytes + m.MergeBufferBytes
		entries += x.Len()
	}
	r.set("core.bytes_per_tuple", float64(bytes)/float64(entries))
	return float64(n) / (float64(t1-t0) / 1e9), count, nil
}
