package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pimtree"
	"pimtree/internal/cluster"
	"pimtree/internal/metrics"
	"pimtree/internal/server"
)

// Workload shapes. Every input is generated from the seed by this program;
// the system under test only receives the generated arrivals.
const (
	matchRate = 2 // expected matches per arrival, as in the paper
	batchSize = 1024
	minRounds = 3
	// scenarioSeconds is how long a traced run measures each scenario
	// that exercises a layer the benchmarked workloads bypass.
	scenarioSeconds = 4

	sharedW     = 1 << 16
	sharedBlock = 1 << 19
	sharedFill  = 3 * sharedW

	timedGap   = 8                        // mean event-time gap between arrivals (µs)
	timedSpan  = 2 * timedGap * (1 << 14) // ~2^14 live tuples per stream window
	timedSlack = 4096
	timedLive  = 1 << 15 // MaxLive: twice the expected live tuples
	timedBlock = 1 << 17
	timedFill  = 1 << 16

	serveW    = 1 << 14
	serveFill = 3 * serveW
	serveRate = 60000
	routeRate = 3000
	// Latency windows (see latencyWindows), sized for >= minLatSamples
	// samples each: every p99 then has ten samples beyond it.
	minLatSamples = 1000
	closedWindow  = 500 * time.Millisecond
	serveWindow   = 100 * time.Millisecond
	routeWindow   = 500 * time.Millisecond
)

// setupReps is the number of set-ups per run; setup_s is their median.
var setupReps = 15

var workloads = map[string]func(*env, *report) error{
	"shared-count":  runSharedCount,
	"serve-shared":  runServeShared,
	"shared-skew":   runSharedSkew,
	"serve-count":   runServeCount,
	"durable-timed": runDurableTimed,
	"route-trickle": runRouteTrickle,
}

var offeredRates = map[string]float64{"serve-count": serveRate, "route-trickle": routeRate}

func workloadNames() string {
	var names []string
	for _, w := range append(workloadDefs, scenarioDefs...) {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// sharedFeed is shared-count's input, also pushed through the ladder.
func sharedFeed(seed int64) (*feed, uint32, error) {
	return countFeed(seed, sharedBlock, sharedFill, sharedW, matchRate)
}

// sharedConfig is the engine of shared-count, shared-skew and serve-shared:
// the paper's parallel join on a shared PIM-Tree.
func sharedConfig(e *env) pimtree.Config {
	return pimtree.Config{Mode: pimtree.ModeShared, Threads: e.nproc, WindowR: sharedW, WindowS: sharedW, Backend: pimtree.PIMTree}
}

func runSharedCount(e *env, r *report) error {
	return runShared(e, r, func() (*feed, uint32, error) { return sharedFeed(e.seed) })
}

func runSharedSkew(e *env, r *report) error {
	return runShared(e, r, func() (*feed, uint32, error) {
		return skewedCountFeed(e.seed, sharedBlock, sharedFill, sharedW, matchRate)
	})
}

// runShared runs the in-process shared join over a count feed.
func runShared(e *env, r *report, feed func() (*feed, uint32, error)) error {
	cr, err := runClosed(e, r, closedSpec{cfg: sharedConfig(e), feed: feed, w: sharedW})
	if err != nil || !e.traced {
		return err
	}
	r.set("join.push_busy_frac", cr.busy)
	r.set("join.drain_ms", float64(cr.last.drainNs)/1e6)
	r.set("join.merge_ms_per_mtuple", float64(cr.final.MergeTime)/1e6/(float64(cr.final.Tuples)/1e6))
	return nil
}

func runDurableTimed(e *env, r *report) error {
	dir := filepath.Join(e.workdir, "wal-durable-timed")
	defer os.RemoveAll(dir)
	cr, err := runClosed(e, r, closedSpec{
		cfg: pimtree.Config{
			Mode: pimtree.ModeShardedTime, Shards: e.nproc,
			Span: timedSpan, MaxLive: timedLive,
			Slack: timedSlack, LatePolicy: pimtree.LateDrop,
			Durability: pimtree.Durability{Dir: dir},
		},
		feed: func() (*feed, uint32, error) {
			return timedFeed(e.seed, timedBlock, timedFill, timedGap, timedSpan, timedSlack, matchRate)
		},
		span:   timedSpan,
		walDir: dir,
	})
	if err != nil || !e.traced {
		return err
	}
	st, wal := cr.final, cr.wal
	n := float64(st.Tuples)
	r.set("wal.durable_tps", cr.last.fig.tps)
	r.set("shard.push_busy_frac", cr.busy)
	r.set("shard.imbalance", st.Imbalance)
	r.set("shard.queue_hw", queueHW(cr.loads))
	r.set("ooo.late_dropped", float64(st.LateDropped))
	r.set("ooo.max_disorder_us", float64(st.MaxObservedDisorder))
	r.set("wal.fsyncs_per_ktuple", float64(wal.Fsyncs)/(n/1e3))
	r.set("wal.bytes_per_tuple", float64(wal.AppendedBytes)/n)
	if wal.Snapshots > 0 {
		r.set("wal.snapshot_ms", float64(wal.SnapshotNanos)/1e6/float64(wal.Snapshots))
	}

	// Recovery: reopen on the run's WAL directory. The recovered window
	// must hold exactly the live tuples of the input pushed: those within
	// Span of the largest timestamp.
	start := e.tr.begin()
	t0 := nanotime()
	eng, err := pimtree.Open(cr.cfg)
	secs := float64(nanotime()-t0) / 1e9
	e.tr.end(spanReopen, 0, start)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	ws := eng.WALStats()
	got := residentOf(eng.ShardLoads())
	if _, err := eng.Close(context.Background()); err != nil {
		return fmt.Errorf("close reopened engine: %w", err)
	}
	want := liveAtEnd(cr.f, cr.pushed, timedSpan)
	e.logf("recovery: %d tuples recovered, %d live in the input, %d resident at close", got, want, residentOf(cr.loads))
	if got != want {
		r.fail(int64(max(got-want, want-got)), "recovered window holds %d tuples, the input leaves %d live", got, want)
	}
	if ws.ReplayRecords == 0 || ws.Truncations > 0 || ws.WriteErrors > 0 {
		r.fail(1, "replay read %d records with %d truncations and %d write errors", ws.ReplayRecords, ws.Truncations, ws.WriteErrors)
	}
	r.set("wal.recovery_s", secs)
	r.set("wal.replay_records", float64(ws.ReplayRecords))
	r.set("wal.replay_ms", float64(ws.ReplayNanos)/1e6)
	return nil
}

func residentOf(loads []pimtree.ShardLoad) int {
	n := 0
	for _, l := range loads {
		n += l.Resident
	}
	return n
}

func queueHW(loads []pimtree.ShardLoad) float64 {
	var hw uint64
	for _, l := range loads {
		hw = max(hw, l.QueueHW)
	}
	return float64(hw)
}

func runServeShared(e *env, r *report) error {
	cr, err := runClosed(e, r, closedSpec{
		cfg:   sharedConfig(e),
		serve: true,
		feed:  func() (*feed, uint32, error) { return sharedFeed(e.seed) },
		w:     sharedW,
	})
	if err != nil || !e.traced {
		return err
	}
	sum := e.tr.summarize()
	r.set("server.serve_tps", cr.last.fig.tps)
	r.set("server.serve_p99_ms", cr.last.fig.p99)
	r.set("join.served_push_us_p50", sum[spanEnginePush].quantileUs(0.5))
	r.set("join.served_push_us_p99", sum[spanEnginePush].quantileUs(0.99))
	r.set("load.untagged", float64(cr.untagged))
	r.set("server.client_push_us_p50", sum[spanClientPush].quantileUs(0.5))
	r.set("server.client_push_us_p99", sum[spanClientPush].quantileUs(0.99))
	r.set("server.tuples_per_frame", float64(cr.serve.IngestTuples)/float64(cr.serve.IngestFrames))
	r.set("server.matches_dropped", float64(cr.serve.MatchesDropped))
	r.set("server.protocol_errors", float64(cr.serve.ProtocolErrors))
	return nil
}

func runServeCount(e *env, r *report) error {
	return runOpen(e, r, openSpec{
		rate: serveRate, window: serveWindow, w: serveW,
		start: func(diff uint32) (stack, error) {
			return startServe(pimtree.Config{Mode: pimtree.ModeSharded, Shards: e.nproc, WindowR: serveW, WindowS: serveW, Diff: diff}, e.tr)
		},
		layers: func(sum map[spanName]*spanStats, ph *openPhase) {
			r.set("shard.serve_p99_ms", ph.phaseP99)
			r.set("load.send_lag_p50_ms", ph.lagP50Ms)
			r.set("load.send_lag_p99_ms", ph.lagP99Ms)
			r.set("shard.engine_push_us_p50", sum[spanEnginePush].quantileUs(0.5))
			r.set("shard.engine_push_us_p99", sum[spanEnginePush].quantileUs(0.99))
		},
	})
}

func runRouteTrickle(e *env, r *report) error {
	var rs *routeStack
	return runOpen(e, r, openSpec{
		rate: routeRate, window: routeWindow, w: serveW,
		start: func(diff uint32) (stack, error) {
			var err error
			rs, err = startRoute(2, cluster.Config{WR: serveW, WS: serveW, Diff: diff, Backend: pimtree.PIMTree, LocalShards: 1}, e.tr)
			return rs, err
		},
		layers: func(sum map[spanName]*spanStats, ph *openPhase) {
			r.set("cluster.trickle_p99_ms", ph.fig.p99)
			r.set("cluster.frontend_push_us_p50", sum[spanFrontendPush].quantileUs(0.5))
			r.set("cluster.frontend_push_us_p99", sum[spanFrontendPush].quantileUs(0.99))
			st := rs.fe.Stats()
			var ops uint64
			for _, l := range rs.fe.ShardLoads() {
				ops += l.Inserts + l.Probes
			}
			r.set("cluster.member_ops_per_tuple", float64(ops)/float64(st.Tuples))
			r.set("cluster.node_imbalance", st.Imbalance)
			sheds, err := rs.promValue("pimtree_cluster_sheds_total")
			if err != nil {
				r.fail(1, "router /metrics: %v", err)
			}
			r.set("cluster.sheds", sheds)
			r.fail(int64(sheds), "router shed %v ops", sheds)
		},
	})
}

// closedSpec describes one closed-loop workload.
type closedSpec struct {
	cfg    pimtree.Config
	serve  bool // push over loopback TCP into the engine behind a server
	feed   func() (*feed, uint32, error)
	w      int    // count window, 0 for time windows
	span   uint64 // time window, 0 for count windows
	walDir string // removed before every set-up when set
}

// closedRun is what a closed-loop run leaves for its workload's layer
// metrics.
type closedRun struct {
	cfg    pimtree.Config // as opened, Diff resolved
	f      *feed
	pushed int
	last   *closedPhase        // the last measured phase (the traced one)
	busy   float64             // share of the last phase spent in PushBatch
	loads  []pimtree.ShardLoad // after the final drain
	wal    pimtree.WALStats    // after the final drain
	final  pimtree.RunStats    // from Close
	serve  server.ServeStats   // served sessions: the server's, after Close
	// untagged counts the served session's matches naming no stream sent.
	untagged uint64
}

func runClosed(e *env, r *report, spec closedSpec) (*closedRun, error) {
	var (
		cs       *closedSession
		cr       = &closedRun{}
		heapBase uint64
		setups   []float64
	)
	// Until the final Close succeeds, an early return tears the session
	// down.
	defer func() {
		if cs != nil {
			cs.close()
		}
	}()
	reps := setupReps
	if e.traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if cs != nil {
			_, err := cs.close()
			if cs = nil; err != nil {
				return nil, err
			}
		}
		cr.f = nil // the previous set-up's input must not count in heapBase
		if spec.walDir != "" {
			if err := os.RemoveAll(spec.walDir); err != nil {
				return nil, err
			}
		}
		t0 := nanotime()
		f, diff, err := spec.feed()
		if err != nil {
			return nil, err
		}
		tags := &tagger{}
		genNs := nanotime() - t0
		heapBase = liveHeapBytes() // the benchmark's own inputs and tag ring
		t1 := nanotime()
		cr.f, cr.cfg = f, spec.cfg
		cr.cfg.Diff = diff
		if cs, err = openClosed(cr.cfg, spec.serve, f, tags, e.tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(genNs+nanotime()-t1)/1e9)
	}
	var phases []*closedPhase
	if !e.traced {
		ph, err := cs.measure(e.seconds, minRounds, closedWindow, true)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		setFigures(r, ph.fig)
		r.set("setup_s", median(setups))
		heap := liveHeapBytes()
		r.set("heap_inuse_mb", float64(heap-min(heap, heapBase))/(1<<20))
		checkLatencySamples(r, ph.minLat)
		e.logf("rounds=%d tuples/round=%d latency_windows=%d min_latency_samples/window=%d", ph.rounds, cr.f.round(), len(ph.p99), ph.minLat)
		e.logf("unfiltered medians %v", ph.plain)
		e.logf("per-round tuples/s %s", fmtList(ph.tps, "%.0f"))
		e.logf("per-window p99_ms %s", fmtList(ph.p99, "%.2f"))
		e.logf("setup_s %s", fmtList(setups, "%.3f"))
	} else {
		// The workload's own traced run measures an untraced half first,
		// for the tracing overhead; a scenario runs traced only.
		secs := e.seconds
		if e.primary {
			secs /= 2
			pa, err := cs.measure(secs, 2, closedWindow, false)
			if err != nil {
				return nil, err
			}
			phases = append(phases, pa)
		}
		e.tr.on.Store(true)
		pb, err := cs.measure(secs, 2, closedWindow, true)
		e.tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		phases = append(phases, pb)
		if e.primary {
			pa := phases[0]
			r.set("trace.overhead_pct", 100*(pb.fig.cpuUs-pa.fig.cpuUs)/pa.fig.cpuUs)
			r.set("load.latency_samples", float64(pb.samples))
			setGC(r, pb.gc, pb.tuples)
		}
		cr.busy = float64(e.tr.summarize()[spanEnginePush].totalNs) / float64(pb.wallNs)
	}
	cr.last, cr.pushed = phases[len(phases)-1], cs.pos
	cr.loads, cr.wal = cs.eng.ShardLoads(), cs.eng.WALStats()
	wire, srv := cs.wire, cs.srv
	st, err := cs.close()
	if cs = nil; err != nil {
		return nil, err
	}
	cr.final = st
	rounds := 0
	for _, ph := range phases {
		rounds += ph.rounds
	}
	r.attempted += int64(cr.pushed)
	oracle, err := newRoundOracle(cr.f, spec.w, spec.span, cr.cfg.Diff)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	r.expect("matches", st.Matches, oracle.after(rounds))
	r.fail(int64(st.LateDropped), "%d late drops", st.LateDropped)
	if wire != nil {
		cr.serve, cr.untagged = srv.server().Stats(), wire.untagged
		r.expect("matches received", wire.received, oracle.after(rounds))
		r.fail(int64(wire.untagged), "%d untagged matches", wire.untagged)
		r.fail(int64(wire.errs), "%d error frames", wire.errs)
		r.fail(int64(cr.serve.MatchesDropped), "server dropped %d matches", cr.serve.MatchesDropped)
		r.fail(int64(cr.serve.ProtocolErrors), "%d protocol errors", cr.serve.ProtocolErrors)
	}
	return cr, nil
}

// checkLatencySamples charges a failure when a latency window of a
// benchmarked run holds too few samples for its p99 to rest on ten.
func checkLatencySamples(r *report, minLat int) {
	if minLat < minLatSamples {
		r.fail(1, "a latency window holds %d samples, below %d", minLat, minLatSamples)
	}
}

// setFigures reports a measured phase's end-to-end figures.
func setFigures(r *report, f figures) {
	r.set("throughput_tps", f.tps)
	r.set("match_latency_p50_ms", f.p50)
	r.set("match_latency_p99_ms", f.p99)
	r.set("cpu_us_per_tuple", f.cpuUs)
}

// setGC reports the GC counters (runtime/metrics, as the Engine facade
// reads them) over a measured phase.
func setGC(r *report, gc metrics.GCSnapshot, tuples int) {
	n := float64(tuples)
	r.set("pimtree.allocs_per_tuple", float64(gc.AllocObjects)/n)
	r.set("pimtree.gc_cycles_per_mtuple", float64(gc.GCCycles)/(n/1e6))
	r.set("pimtree.gc_pause_ms", gc.GCPauseSecs*1e3)
}

// stack is a served system under test: a server on a loopback port.
type stack interface {
	addr() string
	server() *server.Server
	close() (pimtree.RunStats, error)
}

// openSpec describes one open-loop workload.
type openSpec struct {
	rate   float64
	window time.Duration
	w      int
	start  func(diff uint32) (stack, error)
	// layers reads the traced run's layer metrics before the stack closes.
	layers func(sum map[spanName]*spanStats, ph *openPhase)
}

func runOpen(e *env, r *report, spec openSpec) error {
	n := int(spec.rate * e.seconds)
	fill := 3 * spec.w
	var (
		st       stack
		o        *openSession
		f        *feed
		diff     uint32
		heapBase uint64
		setups   []float64
	)
	reps := setupReps
	if e.traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if st != nil {
			o.close()
			_, err := st.close()
			// The previous set-up's input must not count in heapBase.
			if st, o, f = nil, nil, nil; err != nil {
				return err
			}
		}
		t0 := nanotime()
		var err error
		if f, diff, err = countFeed(e.seed, fill+n, fill, spec.w, matchRate); err != nil {
			return err
		}
		tags := newTags(f.block)
		genNs := nanotime() - t0
		heapBase = liveHeapBytes() // the benchmark's own inputs and tag table
		t1 := nanotime()
		if st, err = spec.start(diff); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if o, err = openOpen(st.addr(), f.block, fill, tags, e.tr); err != nil {
			st.close()
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(genNs+nanotime()-t1)/1e9)
	}
	closeAll := func() error {
		o.close()
		_, err := st.close()
		return err
	}
	r.attempted += int64(fill + n)
	if !e.traced {
		ph, err := o.measure(n, spec.rate, spec.window)
		if err != nil {
			closeAll()
			return err
		}
		o.samples = nil // drained: the reader appends no more
		heap := liveHeapBytes()
		setFigures(r, ph.fig)
		r.set("heap_inuse_mb", float64(heap-min(heap, heapBase))/(1<<20))
		r.set("setup_s", median(setups))
		checkLatencySamples(r, ph.minLat)
		e.logf("windows=%d min_latency_samples/window=%d send_lag_p99_ms=%.3f", len(ph.p99), ph.minLat, ph.lagP99Ms)
		e.logf("unfiltered medians %v", ph.plain)
		e.logf("per-second cpu_us %s", fmtList(ph.cpuUs, "%.2f"))
		e.logf("per-window p99_ms %s", fmtList(ph.p99, "%.2f"))
		e.logf("setup_s %s", fmtList(setups, "%.3f"))
	} else {
		var pa *openPhase
		nb := n
		if e.primary {
			var err error
			if pa, err = o.measure(n/2, spec.rate, spec.window); err != nil {
				closeAll()
				return err
			}
			nb -= n / 2
		}
		e.tr.on.Store(true)
		pb, err := o.measure(nb, spec.rate, spec.window)
		e.tr.on.Store(false)
		if err != nil {
			closeAll()
			return err
		}
		sum := e.tr.summarize()
		if e.primary {
			r.set("trace.overhead_pct", 100*(pb.fig.cpuUs-pa.fig.cpuUs)/pa.fig.cpuUs)
			r.set("load.latency_samples", float64(pb.samples))
			r.set("load.send_lag_p50_ms", pb.lagP50Ms)
			r.set("load.send_lag_p99_ms", pb.lagP99Ms)
			r.set("load.untagged", float64(o.untagged))
			setGC(r, pb.gc, pb.sent)
			r.set("server.client_push_us_p50", sum[spanClientPush].quantileUs(0.5))
			r.set("server.client_push_us_p99", sum[spanClientPush].quantileUs(0.99))
			ss := st.server().Stats()
			r.set("server.tuples_per_frame", float64(ss.IngestTuples)/float64(ss.IngestFrames))
			r.set("server.matches_dropped", float64(ss.MatchesDropped))
			r.set("server.protocol_errors", float64(ss.ProtocolErrors))
		}
		spec.layers(sum, pb)
	}
	ss := st.server().Stats()
	r.fail(int64(ss.MatchesDropped), "server dropped %d matches", ss.MatchesDropped)
	r.fail(int64(ss.ProtocolErrors), "%d protocol errors", ss.ProtocolErrors)
	if err := closeAll(); err != nil {
		return err
	}
	r.fail(int64(o.untagged), "%d untagged matches", o.untagged)
	r.fail(int64(o.errs), "%d error frames", o.errs)
	want, err := serialDigest(f.block, spec.w, diff)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	r.expect("matches", o.digest.n, want.n)
	if o.digest.n == want.n && o.digest.sum != want.sum {
		r.fail(1, "match multiset differs from the oracle's")
	}
	return nil
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
