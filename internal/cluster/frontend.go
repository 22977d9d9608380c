// Package cluster implements the router side of the distributed
// shared-nothing tier: a Frontend key-range-partitions ingest across N
// remote `pimjoin serve` nodes, ships pre-sequenced ops to each node's
// member session (internal/server's FrameJoinCluster leg), merges the
// per-node match streams back into one globally ordered feed, and
// aggregates per-node watermarks into a global frontier.
//
// The design is shard.Router lifted one level: the Frontend is the same
// shard.Sequencer plus a shard.Ring over remote nodes instead of local
// shards. It performs ALL global sequencing — per-stream sequence heads,
// band fan-out with the [te, tl) window captured at admission, eviction
// watermarks, timed-mode reordering — and the nodes only apply ops in
// shipment order (shard.Member, the shard executor fed over the wire) and
// report each probe's matched sequences. Exactness therefore follows
// from the same argument as the single-machine runtime: ops reach every
// engine in global arrival order, liveness is filtered by windows captured
// at admission, and the composition of the node partitioner with each
// node's local partitioner still gives every tuple exactly one home while
// probes fan out to every intersecting (node, local shard) pair. The match
// multiset over 1, 2, or N nodes is identical to a single direct Engine on
// the same input.
//
// Frontend implements server.Engine, so `pimjoin route` reuses the entire
// serving layer — client connections, producer serialization, match
// fan-out, drain ordering, admin endpoints — unchanged.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"pimtree"
	"pimtree/internal/join"
	"pimtree/internal/metrics"
	"pimtree/internal/ooo"
	"pimtree/internal/server"
	"pimtree/internal/shard"
)

// DegradePolicy selects what the router does when a node is declared down.
type DegradePolicy int

const (
	// Fail (the default) aborts the frontend: in-flight probes pending on
	// the dead node complete with empty results so the pipeline drains, and
	// every subsequent push or drain returns the failure — the client learns
	// that results past the failure point are incomplete.
	Fail DegradePolicy = iota
	// Shed keeps serving without the dead node's key range: inserts owned by
	// it are dropped and probes skip it (both counted by Sheds), while the
	// surviving ranges keep exact semantics. Use RemoveNode afterwards to
	// rebalance the ring over the survivors.
	Shed
)

// String names the policy.
func (p DegradePolicy) String() string {
	if p == Shed {
		return "shed"
	}
	return "fail"
}

// Config configures a cluster Frontend.
type Config struct {
	// Nodes are the serve-node protocol addresses (required, >= 1). Node i
	// initially owns the i-th equal-width slice of the key domain.
	Nodes []string

	// Engine shape, imposed identically on every member session.
	Timed   bool
	Self    bool
	WR, WS  int    // count-window lengths
	Span    uint64 // timed: window duration
	MaxLive int    // timed: live-tuple bound per window
	Diff    uint32 // band half-width
	Backend pimtree.Backend

	// Out-of-order admission (timed mode): same semantics as
	// pimtree.Config.Slack/LatePolicy. LateNone enforces strict timestamp
	// order at PushBatch.
	Slack      uint64
	LatePolicy pimtree.LatePolicy

	// LocalShards is the per-node sub-shard count shipped in the join frame
	// (0 = the node's GOMAXPROCS default).
	LocalShards int
	// BatchSize bounds ops per node before an eager flush (default 64; every
	// PushBatch flushes regardless, so this only caps frame size under large
	// batches).
	BatchSize int
	// Capacity bounds in-flight (routed, unpropagated) arrivals — the
	// router's backpressure ring (default 16Ki).
	Capacity int
	// NodeRing bounds each member's local in-flight probe ring (0 = member
	// default).
	NodeRing int

	// DialTimeout is the per-node dial budget including retries (default
	// 15s): dialing backs off and retries until the node accepts, so the
	// router may be started before its nodes.
	DialTimeout time.Duration
	// WriteTimeout, when positive, bounds each op-frame write to a node.
	WriteTimeout time.Duration
	// MaxFrame bounds wire payloads both ways (default server default).
	MaxFrame int

	// PingInterval is the health-probe cadence (default 1s); FailAfter is
	// how many consecutive failed probes — or probe intervals without any
	// frame from the node — declare it down (default 5).
	PingInterval time.Duration
	FailAfter    int
	// Degrade selects the routing policy once a node is down.
	Degrade DegradePolicy

	// Logf receives lifecycle log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.Capacity <= 0 {
		c.Capacity = 1 << 14
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 15 * time.Second
	}
	if c.PingInterval <= 0 {
		c.PingInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 5
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

func (c Config) validate() error {
	if len(c.Nodes) == 0 {
		return errors.New("cluster: at least one node address is required")
	}
	switch c.Backend {
	case pimtree.PIMTree, pimtree.IMTree, pimtree.BPlusTree, pimtree.BwTree:
	default:
		return fmt.Errorf("cluster: backend %s has no member-session adapter", c.Backend)
	}
	if c.Timed {
		if c.Span == 0 {
			return errors.New("cluster: Span must be positive in timed mode")
		}
		if c.MaxLive <= 0 {
			return errors.New("cluster: MaxLive must be positive in timed mode")
		}
		if c.LatePolicy == pimtree.LateCall {
			return errors.New("cluster: LateCall is not supported by the router (no OnLate hook)")
		}
	} else {
		if c.WR <= 0 {
			return errors.New("cluster: WR must be positive")
		}
		if !c.Self && c.WS <= 0 {
			return errors.New("cluster: WS must be positive")
		}
		if c.Slack > 0 || c.LatePolicy != pimtree.LateNone {
			return errors.New("cluster: Slack/LatePolicy require timed mode")
		}
	}
	return nil
}

// Frontend is the cluster router's engine: it implements server.Engine over
// N remote member sessions. PushBatch/Drain/Close are producer-serialized
// (the serving layer's single producer goroutine); Stats, ShardLoads,
// Tuning, Matches, and the membership operations are safe from any
// goroutine.
type Frontend struct {
	cfg  Config
	band join.Band
	ccfg server.ClusterConfig

	// prodMu serializes the producer path (pushes, drain, close) with
	// membership epochs, which arrive from admin goroutines.
	prodMu sync.Mutex
	closed bool
	lastTS uint64 // strict-mode timestamp guard

	// setMu guards the node-set identity across membership epochs for
	// readers (stats scrapers, the health prober); the producer path and
	// membership changes mutate under prodMu.
	setMu sync.RWMutex
	nodes []*node
	part  shard.RangePartitioner
	epoch atomic.Int64

	seq shard.Sequencer
	// ring is the in-flight completion ring over nodes: bucket b of a slot
	// belongs to fan-out node s1+b, completed by that node's reader
	// goroutine (or nilled by the shed/down paths).
	ring *shard.Ring
	pull *join.MatchQueue[pimtree.Match]

	reorder *ooo.Reorderer // timed-mode admission; nil for count windows

	// First fatal failure under the Fail policy; failed is its lock-free
	// fast path.
	errMu  sync.Mutex
	err    error
	failed atomic.Bool

	sheds         atomic.Uint64 // ops shed around down nodes
	handoffs      atomic.Uint64 // completed export/import moves
	handoffTuples atomic.Uint64 // window tuples moved between nodes

	start    time.Time
	pingStop chan struct{}
	pingDone chan struct{}
}

// New dials every configured node, opens its member session, and returns
// the running frontend. Dialing retries with backoff within DialTimeout, so
// the router tolerates being started before its nodes.
func New(cfg Config) (*Frontend, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var span uint64 // count windows
	if cfg.Timed {
		span = cfg.Span
	}
	fe := &Frontend{
		cfg:  cfg,
		band: join.Band{Diff: cfg.Diff},
		ccfg: server.ClusterConfig{
			Timed: cfg.Timed, Self: cfg.Self, Backend: cfg.Backend,
			Shards: cfg.LocalShards, WR: cfg.WR, WS: cfg.WS,
			MaxLive: cfg.MaxLive, Span: cfg.Span,
			Batch: cfg.BatchSize, Ring: cfg.NodeRing,
		},
		seq:      shard.NewSequencer(cfg.WR, cfg.WS, cfg.Self, span),
		pull:     join.NewMatchQueue[pimtree.Match](),
		pingStop: make(chan struct{}),
		pingDone: make(chan struct{}),
	}
	if cfg.Timed {
		fe.reorder = ooo.New(cfg.Slack, oooPolicy(cfg.LatePolicy), nil)
	}
	fe.ring = shard.NewRing(cfg.Capacity, len(cfg.Nodes), fe.emit, fe.flushAll)
	for pos, addr := range cfg.Nodes {
		nd, err := fe.dialNode(addr)
		if err != nil {
			for _, d := range fe.nodes {
				d.leaving.Store(true)
				d.mc.Close()
			}
			return nil, err
		}
		nd.pos = pos
		fe.nodes = append(fe.nodes, nd)
	}
	fe.part = shard.NewRangePartitioner(len(fe.nodes))
	for _, nd := range fe.nodes {
		go nd.reader()
	}
	go fe.prober()
	fe.start = time.Now()
	fe.cfg.Logf("cluster: routing across %d nodes (policy %s)", len(fe.nodes), cfg.Degrade)
	return fe, nil
}

// dialNode dials one node's member session, retrying with backoff within
// the dial budget.
func (fe *Frontend) dialNode(addr string) (*node, error) {
	deadline := time.Now().Add(fe.cfg.DialTimeout)
	backoff := 100 * time.Millisecond
	for {
		attempt := min(5*time.Second, time.Until(deadline))
		mc, err := server.DialMember(context.Background(), addr, fe.ccfg, server.MemberDialOptions{
			Timeout:      attempt,
			WriteTimeout: fe.cfg.WriteTimeout,
			MaxFrame:     fe.cfg.MaxFrame,
		})
		if err == nil {
			nd := newNode(fe, addr, mc)
			fe.cfg.Logf("cluster: joined node %s at %s", nd.id, addr)
			return nd, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("cluster: node %s: %w", addr, err)
		}
		time.Sleep(backoff)
		backoff = min(backoff*2, time.Second)
	}
}

// oooPolicy maps the public late policy onto the reorder buffer's (LateCall
// is rejected at validation — the router has no OnLate hook).
func oooPolicy(p pimtree.LatePolicy) ooo.Policy {
	if p == pimtree.LateEmit {
		return ooo.Emit
	}
	return ooo.Drop
}

// emit queues one retired arrival's matches for the pull side.
func (fe *Frontend) emit(s uint8, probeSeq uint64, buckets [][]uint64) {
	for _, bucket := range buckets {
		for _, mseq := range bucket {
			fe.pull.Push(pimtree.Match{
				ProbeStream: pimtree.StreamID(s),
				ProbeSeq:    probeSeq,
				MatchSeq:    mseq,
			})
		}
	}
}

// route routes one admitted arrival (TS is ignored for count windows): a
// probe op to every node whose range intersects the band interval, then an
// insert op to the key's owner node — shard.Router's route over nodes.
// Buckets of down nodes are nilled and pre-completed (the shed path), so
// the slot still retires.
func (fe *Frontend) route(t ooo.Tuple) {
	st := fe.seq.Next(t.Stream, t.TS)
	lo, hi := fe.band.Range(t.Key)
	s1, s2 := fe.part.ShardOf(lo), fe.part.ShardOf(hi)
	idx, slot := fe.ring.Admit(t.Stream, st.Seq, s2-s1+1)
	for p := s1; p <= s2; p++ {
		nd := fe.nodes[p]
		ok := nd.alive.Load() && nd.pushOutstanding(outstanding{
			idx: uint64(idx), slot: int32(slot), bucket: int32(p - s1),
		})
		if !ok {
			// Down node: its bucket must not leak the slot's previous
			// tenant's matches, and its pending share completes here.
			fe.sheds.Add(1)
			fe.ring.Complete(slot, p-s1, nil)
			continue
		}
		nd.probes.Add(1)
		fe.ship(nd, shard.Op{
			Stream: st.Probed, Lo: lo, Hi: hi, TE: st.TE, TL: st.TL, Idx: uint64(idx),
		})
	}
	if nd := fe.nodes[fe.part.ShardOf(t.Key)]; nd.alive.Load() {
		nd.inserts.Add(1)
		fe.ship(nd, shard.Op{
			Insert: true, Stream: st.Own, Key: t.Key, Seq: st.Seq, TE: st.WM, TS: t.TS,
		})
	} else {
		fe.sheds.Add(1)
	}
	fe.ring.Publish()
}

// ship appends an op to a node's pending batch, flushing on size.
func (fe *Frontend) ship(nd *node, o shard.Op) {
	nd.pend = append(nd.pend, o)
	if len(nd.pend) >= fe.cfg.BatchSize {
		fe.flushNode(nd)
	}
}

// flushNode ships a node's pending op batch.
func (fe *Frontend) flushNode(nd *node) {
	if len(nd.pend) == 0 {
		return
	}
	ops := nd.pend
	nd.pend = nd.pend[:0]
	if !nd.alive.Load() {
		return
	}
	if err := nd.mc.SendOps(ops); err != nil {
		fe.nodeDown(nd, fmt.Errorf("send ops: %w", err))
	}
}

// flushAll ships every node's pending batch.
func (fe *Frontend) flushAll() {
	for _, nd := range fe.nodes {
		fe.flushNode(nd)
	}
}

// fail records the first fatal failure (Fail policy).
func (fe *Frontend) fail(err error) {
	fe.errMu.Lock()
	if fe.err == nil {
		fe.err = err
	}
	fe.errMu.Unlock()
	fe.failed.Store(true)
}

// errLoad returns the recorded fatal failure, if any.
func (fe *Frontend) errLoad() error {
	if !fe.failed.Load() {
		return nil
	}
	fe.errMu.Lock()
	defer fe.errMu.Unlock()
	return fe.err
}

// --- server.Engine ---

// Mode reports the cluster-wide execution mode.
func (fe *Frontend) Mode() pimtree.Mode {
	if fe.cfg.Timed {
		return pimtree.ModeShardedTime
	}
	return pimtree.ModeSharded
}

// EmitsMatches reports true: the frontend always materializes matches.
func (fe *Frontend) EmitsMatches() bool { return true }

// Matches returns the pull-side match iterator (the serving layer arms it
// once and is its only consumer).
func (fe *Frontend) Matches() iter.Seq[pimtree.Match] {
	return fe.pull.Seq()
}

// PushBatch routes a batch of arrivals across the cluster. Single producer
// goroutine, like the Engine API.
func (fe *Frontend) PushBatch(batch []pimtree.Arrival) error {
	if err := fe.errLoad(); err != nil {
		return err
	}
	fe.prodMu.Lock()
	defer fe.prodMu.Unlock()
	if fe.closed {
		return pimtree.ErrClosed
	}
	if fe.cfg.Timed {
		if fe.cfg.LatePolicy == pimtree.LateNone {
			last := fe.lastTS
			for _, a := range batch {
				if a.TS < last {
					return fmt.Errorf("cluster: %w; set a LatePolicy (and Slack) to enable out-of-order ingestion", pimtree.ErrUnordered)
				}
				last = a.TS
			}
			fe.lastTS = last
		}
		for _, a := range batch {
			fe.reorder.Push(ooo.Tuple{Stream: uint8(a.Stream), Key: a.Key, TS: a.TS}, fe.route)
		}
	} else {
		for _, a := range batch {
			fe.route(ooo.Tuple{Stream: uint8(a.Stream), Key: a.Key})
		}
	}
	fe.flushAll()
	fe.ring.Propagate()
	return fe.errLoad()
}

// Drain flushes the cluster to a deterministic quiescent point: the reorder
// buffer (timed mode), every pending op batch, and the in-flight ring. On
// return every routed arrival's matches have been propagated.
func (fe *Frontend) Drain(ctx context.Context) error {
	fe.prodMu.Lock()
	defer fe.prodMu.Unlock()
	if fe.closed {
		return pimtree.ErrClosed
	}
	if fe.reorder != nil {
		fe.reorder.Flush(fe.route)
	}
	fe.flushAll()
	if err := fe.ring.WaitEmpty(ctx); err != nil {
		return fmt.Errorf("cluster: drain abandoned: %w", err)
	}
	return fe.errLoad()
}

// Close drains, tears the member sessions down, and returns the run's final
// statistics. The member sessions ending is what releases the nodes'
// window contents.
func (fe *Frontend) Close(ctx context.Context) (pimtree.RunStats, error) {
	fe.prodMu.Lock()
	defer fe.prodMu.Unlock()
	if fe.closed {
		return pimtree.RunStats{}, pimtree.ErrClosed
	}
	fe.closed = true
	if fe.reorder != nil {
		fe.reorder.Flush(fe.route)
	}
	fe.flushAll()
	werr := fe.ring.WaitEmpty(ctx)
	close(fe.pingStop)
	<-fe.pingDone
	fe.setMu.RLock()
	nodes := append([]*node(nil), fe.nodes...)
	fe.setMu.RUnlock()
	for _, nd := range nodes {
		nd.leaving.Store(true)
		nd.mc.Close()
	}
	for _, nd := range nodes {
		<-nd.readerDone
	}
	fe.pull.Close()
	st := pimtree.RunStats{
		Tuples:  fe.ring.Published(),
		Matches: fe.ring.Matches(),
		Elapsed: time.Since(fe.start),
	}
	st.Mtps = metrics.Mtps(st.Tuples, st.Elapsed)
	if fe.reorder != nil {
		st.LateDropped = fe.reorder.LateDropped()
		st.MaxObservedDisorder = fe.reorder.MaxDisorder()
	}
	st.Imbalance = fe.imbalance()
	if werr != nil {
		return st, fmt.Errorf("cluster: close abandoned: %w", werr)
	}
	return st, nil
}

// Stats returns a live cluster snapshot. Safe from any goroutine.
func (fe *Frontend) Stats() pimtree.RunStats {
	st := pimtree.RunStats{
		Tuples:  fe.ring.Published(),
		Matches: fe.ring.Matches(),
		Elapsed: time.Since(fe.start),
	}
	st.Mtps = metrics.Mtps(st.Tuples, st.Elapsed)
	if fe.reorder != nil {
		st.LateDropped = fe.reorder.LateDropped()
		st.MaxObservedDisorder = fe.reorder.MaxDisorder()
	}
	st.Imbalance = fe.imbalance()
	return st
}

// imbalance is the max/mean ratio over per-node resident window sizes.
func (fe *Frontend) imbalance() float64 {
	fe.setMu.RLock()
	defer fe.setMu.RUnlock()
	resident := make([]uint64, len(fe.nodes))
	for i, nd := range fe.nodes {
		resident[i] = nd.snapshotStatus().Resident
	}
	return metrics.Imbalance(resident)
}

// ShardLoads reports one load entry per node: ops routed to it, the
// outstanding-probe queue depth with its high-water mark, and the node's
// last-reported resident window size. Safe from any goroutine.
func (fe *Frontend) ShardLoads() []pimtree.ShardLoad {
	fe.setMu.RLock()
	defer fe.setMu.RUnlock()
	out := make([]pimtree.ShardLoad, len(fe.nodes))
	for i, nd := range fe.nodes {
		depth, hw := nd.outstandingLen()
		out[i] = pimtree.ShardLoad{
			Inserts:    nd.inserts.Load(),
			Probes:     nd.probes.Load(),
			QueueDepth: depth,
			QueueHW:    hw,
			Resident:   int(nd.snapshotStatus().Resident),
		}
	}
	return out
}

// Reconfigure is not supported cluster-wide: the member sessions' engine
// shape is fixed by the join handshake. Membership changes go through
// AddNode/RemoveNode (the /cluster admin endpoints) instead.
func (fe *Frontend) Reconfigure(pimtree.Delta) error {
	return fmt.Errorf("pimtree: cluster router %w (use the /cluster membership endpoints)", pimtree.ErrNotTunable)
}

// Tuning reports the cluster's live-tunable surface: the node count plays
// the shard-count role, and membership epochs play the reshape role.
func (fe *Frontend) Tuning() pimtree.Tuning {
	fe.setMu.RLock()
	nodes := len(fe.nodes)
	fe.setMu.RUnlock()
	return pimtree.Tuning{
		Mode:          fe.Mode(),
		Shards:        nodes,
		BatchSize:     fe.cfg.BatchSize,
		QueueCapacity: fe.cfg.Capacity,
		Reshapes:      int(fe.epoch.Load()),
	}
}

// GlobalFrontier aggregates the per-node watermarks into the cluster's
// global eviction frontier: the minimum watermark any live node has applied
// (a global sequence for count windows, a minimum live event time for timed
// ones). reported is false until every live node has heartbeat at least
// once. Safe from any goroutine.
func (fe *Frontend) GlobalFrontier() (frontier uint64, reported bool) {
	fe.setMu.RLock()
	defer fe.setMu.RUnlock()
	first := true
	for _, nd := range fe.nodes {
		if !nd.alive.Load() {
			continue
		}
		st, at := nd.snapshotStatusAt()
		if at.IsZero() {
			return 0, false
		}
		if first || st.EvictWM < frontier {
			frontier = st.EvictWM
		}
		first = false
	}
	return frontier, !first
}
