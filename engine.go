package pimtree

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/metrics"
	"pimtree/internal/shard"
	"pimtree/internal/stream"
	"pimtree/internal/tune"
	"pimtree/internal/wal"
)

// Mode selects the execution runtime behind an Engine.
type Mode int

// The execution modes. ModeAuto picks one from the Config: a time window
// (Span > 0) selects ModeShardedTime, a chained backend forces ModeSerial,
// and otherwise multicore hosts get ModeSharded and single-core hosts
// ModeSerial.
const (
	ModeAuto Mode = iota
	// ModeSerial runs the single-threaded incremental IBWJ (Section 2) —
	// every backend, synchronous matches, no goroutines.
	ModeSerial
	// ModeShared runs the paper's parallel shared-index join (Section 4):
	// worker threads over shared PIM-Tree or Bw-Tree indexes with ordered
	// result propagation.
	ModeShared
	// ModeSharded runs the key-range sharded runtime: single-writer
	// per-shard indexes behind a routing stage, with optional adaptive
	// rebalancing.
	ModeSharded
	// ModeShardedTime runs the sharded runtime over time-based windows with
	// out-of-order admission through a bounded reorder buffer.
	ModeShardedTime
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeSerial:
		return "serial"
	case ModeShared:
		return "shared"
	case ModeSharded:
		return "sharded"
	case ModeShardedTime:
		return "sharded-time"
	default:
		return "unknown"
	}
}

// modeFor maps the tune package's runtime identifiers back onto the public
// modes (internal/tune cannot import this package).
func modeFor(r tune.Runtime) Mode {
	switch r {
	case tune.Serial:
		return ModeSerial
	case tune.Shared:
		return ModeShared
	case tune.ShardedTime:
		return ModeShardedTime
	default:
		return ModeSharded
	}
}

// Named error conditions of the Engine API, matchable with errors.Is.
var (
	// ErrClosed is returned by operations on an engine that has been closed.
	ErrClosed = errors.New("pimtree: engine is closed")
	// ErrAborted is returned by operations on an engine whose Drain or Close
	// was abandoned by a canceled context; only Close is still permitted.
	ErrAborted = errors.New("pimtree: engine aborted by a canceled Drain or Close")
	// ErrUnsupportedBackend is wrapped by validation errors rejecting a
	// backend the selected execution mode cannot run.
	ErrUnsupportedBackend = errors.New("backend not supported by execution mode")
	// ErrUnordered is wrapped by errors rejecting timestamp-regressing input
	// pushed to a time-based runtime in strict (LateNone) mode.
	ErrUnordered = errors.New("arrivals are not timestamp-ordered")
	// ErrNotTunable is wrapped by Reconfigure errors on engines whose
	// execution mode has no live-tunable parameters (the serial and shared
	// runtimes).
	ErrNotTunable = errors.New("execution mode has no live-tunable parameters")
)

// errNotSorted is the uniform strict-mode disorder rejection shared by every
// time-based entry point.
func errNotSorted() error {
	return fmt.Errorf("pimtree: %w; set a LatePolicy (and Slack) to enable out-of-order ingestion", ErrUnordered)
}

// validateWindows is the uniform count-window validation shared by every
// count-window constructor.
func validateWindows(wr, ws int, self bool) error {
	if wr <= 0 {
		return fmt.Errorf("pimtree: WindowR %d must be positive", wr)
	}
	if !self && ws <= 0 {
		return fmt.Errorf("pimtree: WindowS %d must be positive", ws)
	}
	return nil
}

// validateTimeWindow is the uniform time-window validation shared by every
// time-based constructor.
func validateTimeWindow(span uint64, maxLive int, needLive bool) error {
	if span == 0 {
		return fmt.Errorf("pimtree: Span must be positive")
	}
	if needLive && maxLive <= 0 {
		return fmt.Errorf("pimtree: MaxLive must be positive")
	}
	return nil
}

// validateBackend is the uniform backend-support validation: every rejection
// wraps ErrUnsupportedBackend so callers can branch on the condition rather
// than the message.
func validateBackend(m Mode, b Backend) error {
	switch m {
	case ModeSerial:
		return nil // every backend has a serial adapter
	case ModeShared:
		if b == PIMTree || b == BwTree {
			return nil
		}
	case ModeSharded, ModeShardedTime:
		if b != BChain && b != IBChain {
			return nil
		}
	}
	return fmt.Errorf("pimtree: %s mode does not support the %s backend: %w", m, b, ErrUnsupportedBackend)
}

// Config is the one validated option set behind every execution mode — the
// union of the windows, band, backend, and index tuning the four runtimes
// share, plus the per-mode knobs each one reads. Open validates it once;
// the batch entry points (RunParallel, RunSharded, RunShardedTime, NewJoin)
// are wrappers that translate their historical option structs into a Config.
type Config struct {
	// Mode selects the runtime; ModeAuto (the zero value) picks one from
	// the rest of the configuration (see Mode).
	Mode Mode

	// WindowR and WindowS are the count-window lengths (WindowS is ignored
	// for self-joins). Required for the count-window modes.
	WindowR int
	WindowS int
	// Span is the time-window duration in timestamp units; setting it (with
	// ModeAuto) selects ModeShardedTime. MaxLive bounds simultaneously live
	// tuples per window and sizes the per-shard stores (required with Span).
	Span    uint64
	MaxLive int

	Self bool   // self-join: one stream, one window
	Diff uint32 // band half-width: |R.x - S.x| <= Diff

	// Backend selects the index structure. ModeShared supports PIMTree and
	// BwTree; the sharded modes support everything but the chained
	// backends; ModeSerial supports all. An unsupported combination fails
	// Open with an error wrapping ErrUnsupportedBackend.
	Backend Backend
	// ChainLength is L for the chain backends (default 2, serial mode only).
	ChainLength int
	// Index tunes the two-stage backends. In ModeShared a zero MergeRatio
	// defaults to 1 (Figure 9a: best under heavy index sharing); everywhere
	// else — including the sharded modes, whose per-shard indexes are
	// single-writer — it defaults to the serial 1/16.
	Index IndexOptions

	// Threads and TaskSize drive ModeShared's worker pool (defaults: 1 and
	// 8). BlockingMerge disables its non-blocking two-phase merge. With
	// ModeAuto, setting any of these selects ModeShared. Outside ModeShared
	// they are ignored, like every per-mode knob outside its mode.
	Threads       int
	TaskSize      int
	BlockingMerge bool
	// RecordLatency enables per-tuple latency sampling (ModeShared).
	RecordLatency bool

	// Shards, BatchSize, and Partitioner shape the sharded modes (defaults:
	// GOMAXPROCS, 64, equal-width ranges). Adaptive enables online shard
	// rebalancing tuned by Rebalance (ModeSharded only; setting it in any
	// other mode fails validation). In the sharded modes Shards and
	// BatchSize only set the starting values — both are live-tunable
	// afterwards through Engine.Reconfigure.
	Shards      int
	BatchSize   int
	Partitioner Partitioner
	Adaptive    bool
	Rebalance   RebalancePolicy

	// AutoTune starts the feedback controller: a background goroutine that
	// samples the live load statistics and applies bounded Reconfigure
	// deltas (grow/shrink shards, enable rebalancing) when sustained
	// pressure or idleness clears the controller's hysteresis. Sharded
	// modes only; with ModeAuto it selects ModeSharded like the other
	// sharded knobs. Tune adjusts the controller (ignored otherwise).
	AutoTune bool
	Tune     TunePolicy

	// Slack, LatePolicy, and OnLate configure out-of-order admission for
	// ModeShardedTime (see LatePolicy). With LateNone, pushes must be
	// timestamp-ordered and a regression fails with ErrUnordered. Setting
	// any of them in a count-window mode fails validation — there is no
	// event time for them to act on.
	Slack      uint64
	LatePolicy LatePolicy
	OnLate     func(t TimedArrival, lateness uint64)

	// OnMatch observes every match in arrival (propagation) order — the
	// push-side output. The pull side is Engine.Matches.
	OnMatch func(Match)
	// DiscardMatches keeps the engine from materializing individual matches
	// when neither output side is wanted: matches are only counted,
	// Matches() yields nothing, and OnMatch must be nil. The batch wrappers
	// set it when run without a callback, preserving their count-only fast
	// path.
	DiscardMatches bool

	// QueueCapacity bounds the in-flight (pushed but not yet propagated)
	// tuples of the parallel modes; a Push past it blocks until the ordered
	// propagation frontier advances — the session's backpressure. Zero
	// selects a default (8Ki for ModeShared, 16Ki for the sharded modes).
	// In the sharded modes it is live-tunable through Engine.Reconfigure;
	// in ModeShared it is fixed at Open.
	QueueCapacity int

	// Durability makes the sharded window state crash-recoverable through a
	// per-shard write-ahead log plus periodic compacting snapshots (see
	// Durability). Zero value disables it. With ModeAuto, setting
	// Durability.Dir selects a sharded mode like the other sharded knobs.
	Durability Durability
}

// validate resolves ModeAuto and checks the whole Config, returning the
// normalized copy. It is the single validation point behind every
// constructor in this package.
func (c Config) validate() (Config, error) {
	if c.Mode == ModeAuto {
		// The decision table lives in internal/tune so the control plane
		// (which re-validates merged configs on live reconfiguration) shares
		// one source of truth with Open.
		c.Mode = modeFor(tune.ResolveRuntime(tune.Workload{
			TimeWindow:     c.Span > 0,
			ChainedBackend: c.Backend == BChain || c.Backend == IBChain,
			ShardedKnobs:   c.Shards > 0 || c.Partitioner != nil || c.Adaptive || c.AutoTune || c.Durability.enabled(),
			SharedKnobs:    c.Threads > 0 || c.TaskSize > 0 || c.BlockingMerge || c.RecordLatency,
			Cores:          runtime.GOMAXPROCS(0),
		}))
	}
	switch c.Mode {
	case ModeSerial, ModeShared, ModeSharded:
		if err := validateWindows(c.WindowR, c.WindowS, c.Self); err != nil {
			return c, err
		}
		// The time-window knobs change join semantics entirely and the
		// out-of-order knobs act on event time, which count windows do not
		// have; rejecting them beats silently ignoring them. (With ModeAuto
		// a Span resolves to ModeShardedTime, so reaching here means the
		// caller pinned a count mode explicitly.)
		if c.Span > 0 || c.MaxLive > 0 {
			return c, fmt.Errorf("pimtree: Span/MaxLive require %s mode (got %s)", ModeShardedTime, c.Mode)
		}
		if c.Slack > 0 || c.LatePolicy != LateNone || c.OnLate != nil {
			return c, fmt.Errorf("pimtree: Slack/LatePolicy/OnLate require %s mode (got %s)", ModeShardedTime, c.Mode)
		}
	case ModeShardedTime:
		if err := validateTimeWindow(c.Span, c.MaxLive, true); err != nil {
			return c, err
		}
		if err := validateLate(c.LatePolicy, c.Slack, c.OnLate); err != nil {
			return c, err
		}
	default:
		return c, fmt.Errorf("pimtree: unknown Mode %d", c.Mode)
	}
	if err := validateBackend(c.Mode, c.Backend); err != nil {
		return c, err
	}
	if c.Mode == ModeShared && c.Backend == BwTree {
		// The Bw-Tree's eager deletes need windows comfortably larger than
		// the in-flight bound (StartShared would panic); surface it as a
		// validation error like every other bad Config.
		ws := c.WindowS
		if c.Self {
			ws = c.WindowR
		}
		if inflight, ok := join.SharedWindowCheck(c.Threads, c.TaskSize, c.WindowR, ws); !ok {
			return c, fmt.Errorf("pimtree: windows (%d,%d) too small for %d in-flight tuples with the %s backend's eager deletes in %s mode",
				c.WindowR, ws, inflight, c.Backend, c.Mode)
		}
	}
	if c.Adaptive && c.Mode != ModeSharded {
		return c, fmt.Errorf("pimtree: adaptive rebalancing requires %s mode (got %s)", ModeSharded, c.Mode)
	}
	if c.AutoTune && c.Mode != ModeSharded && c.Mode != ModeShardedTime {
		return c, fmt.Errorf("pimtree: auto-tuning requires %s or %s mode (got %s)", ModeSharded, ModeShardedTime, c.Mode)
	}
	if err := c.Durability.validate(c.Mode); err != nil {
		return c, err
	}
	if c.DiscardMatches && c.OnMatch != nil {
		return c, fmt.Errorf("pimtree: DiscardMatches with OnMatch set (pick a side)")
	}
	return c, nil
}

// Engine lifecycle states.
const (
	stateOpen int32 = iota
	stateAborted
	stateClosing
	stateClosed
)

// Engine is a long-lived streaming band-join session over one of the four
// execution runtimes. Open starts it; Push/PushTimed/PushBatch feed it
// incrementally; matches stream out through OnMatch (push side) and
// Matches (pull side); Stats snapshots progress mid-stream; Drain flushes
// it to a deterministic quiescent point; Close tears it down and returns
// the final statistics.
//
// Push, PushTimed, PushBatch, Drain, and Close must be called from one
// goroutine (the producer). Stats, Matches, Tuning, and Reconfigure are safe
// from any goroutine: the control plane serializes against the producer on
// an internal mutex, so an admin endpoint or the auto-tuner can reshape the
// engine while the producer keeps pushing.
type Engine struct {
	cfg  Config
	mode Mode

	// prodMu serializes the producer-side operations (pushes, Drain, Close
	// teardown) with live reconfiguration, which may arrive from any
	// goroutine. Producers are documented single-goroutine, so the mutex is
	// uncontended — and allocation-free — until the control plane acts.
	prodMu sync.Mutex
	// tunMu guards cfg against concurrent Tuning readers while Reconfigure
	// (under prodMu) swaps it.
	tunMu     sync.Mutex
	reconfigs atomic.Int64 // applied Reconfigure deltas
	decisions atomic.Int64 // controller decisions applied by the auto-tuner
	tuner     *tuner       // nil unless Config.AutoTune

	serial *join.Streaming
	shared *join.Shared
	router *shard.Router
	wlog   *wal.Log // durability layer; nil unless Config.Durability.Dir

	onMatch func(Match)
	pull    *join.MatchQueue[Match]

	tuples        atomic.Uint64
	serialMatches atomic.Uint64
	lastTS        uint64 // strict-mode timestamp guard (producer goroutine)
	start         time.Time
	gcBase        metrics.GCSnapshot // GC counters at Open; Stats/Close diff against it

	// sharedBuf is PushBatch's ModeShared conversion buffer, owned by the
	// producer goroutine and reused across calls so steady-state batch
	// ingestion does not allocate.
	sharedBuf []stream.Arrival

	state atomic.Int32
	bg    chan struct{} // abandoned Drain/Close teardown, awaited by Close
	final RunStats      // set before state becomes stateClosed
}

// Open validates the Config, builds the selected runtime, starts its
// workers, and returns the session handle. With Durability configured it
// first recovers any state a previous session left in the WAL directory, so
// the new session resumes the durable prefix.
func Open(cfg Config) (*Engine, error) {
	return openWithWALFS(cfg, nil)
}

// openWithWALFS is Open with the WAL filesystem injectable — the seam the
// crash-injection tests use to run recovery against an in-memory filesystem
// with deterministic crash points. nil selects the real filesystem.
func openWithWALFS(cfg Config, wfs wal.FS) (*Engine, error) {
	cc, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cc, mode: cc.Mode, onMatch: cc.OnMatch}
	if !cc.DiscardMatches {
		e.pull = join.NewMatchQueue[Match]()
	}
	var sink join.MatchSink
	if e.pull != nil || e.onMatch != nil {
		sink = e.dispatch
	}

	switch cc.Mode {
	case ModeSerial:
		scfg := join.SerialConfig{
			WR:          cc.WindowR,
			WS:          cc.WindowS,
			Self:        cc.Self,
			Band:        join.Band{Diff: cc.Diff},
			Index:       cc.Backend.kind(),
			ChainLength: cc.ChainLength,
			IM:          core.IMTreeConfig{MergeRatio: cc.Index.MergeRatio},
			PIM: core.PIMTreeConfig{
				MergeRatio:     cc.Index.MergeRatio,
				InsertionDepth: cc.Index.InsertionDepth,
			},
			Sink: sink,
		}
		e.serial = join.NewStreaming(scfg)
	case ModeShared:
		shcfg := join.SharedConfig{
			Threads:       cc.Threads,
			TaskSize:      cc.TaskSize,
			WR:            cc.WindowR,
			WS:            cc.WindowS,
			Self:          cc.Self,
			Band:          join.Band{Diff: cc.Diff},
			Index:         cc.Backend.kind(),
			BlockingMerge: cc.BlockingMerge,
			PIM: core.PIMTreeConfig{
				MergeRatio:     parallelMergeRatio(cc.Index.MergeRatio),
				InsertionDepth: cc.Index.InsertionDepth,
			},
			Sink: sink,
		}
		if cc.RecordLatency {
			shcfg.Latency = metrics.NewLatencyRecorder(1<<16, 4)
		}
		e.shared = join.StartShared(shcfg, cc.QueueCapacity)
	case ModeSharded, ModeShardedTime:
		rcfg := shard.Config{
			Shards:    defaultShards(cc.Shards),
			BatchSize: cc.BatchSize,
			Self:      cc.Self,
			Band:      join.Band{Diff: cc.Diff},
			Index:     cc.Backend.kind(),
			IM:        core.IMTreeConfig{MergeRatio: cc.Index.MergeRatio},
			PIM: core.PIMTreeConfig{
				MergeRatio:     cc.Index.MergeRatio,
				InsertionDepth: cc.Index.InsertionDepth,
			},
			Part: cc.Partitioner,
			Sink: sink,
		}
		if cc.Mode == ModeShardedTime {
			rcfg.Timed = true
			rcfg.Span = cc.Span
			rcfg.MaxLive = cc.MaxLive
			rcfg.Slack = cc.Slack
			rcfg.Late = cc.LatePolicy.oooPolicy()
			rcfg.OnLate = oooLateAdapter(cc.OnLate)
		} else {
			rcfg.WR = cc.WindowR
			rcfg.WS = cc.WindowS
			rcfg.Adaptive = cc.Adaptive
			rcfg.Rebalance = shard.Policy{
				MaxRatio:   cc.Rebalance.MaxRatio,
				MinGap:     cc.Rebalance.MinGap,
				SampleSize: cc.Rebalance.SampleSize,
				ForceEvery: cc.Rebalance.ForceEvery,
			}
		}
		var wst *wal.State
		if cc.Durability.enabled() {
			wlog, st, werr := wal.Open(walOptions(cc, wfs))
			if werr != nil {
				return nil, fmt.Errorf("pimtree: opening WAL: %w", werr)
			}
			e.wlog = wlog
			wst = st
			rcfg.WAL = wlog
			rcfg.SnapshotEvery = snapshotCadence(cc.Durability.SnapshotEvery)
		}
		e.router = shard.NewRouter(rcfg, cc.QueueCapacity)
		// Replay before anything can push: the workers are parked, so the
		// restored window is published by the first batch send.
		e.router.Restore(wst)
	}
	e.start = time.Now()
	e.gcBase = metrics.ReadGC()
	if cc.AutoTune {
		e.tuner = startTuner(e, cc.Tune)
	}
	return e, nil
}

// parallelMergeRatio applies Figure 9a's finding: under concurrency the
// merge ratio defaults to 1.
func parallelMergeRatio(m float64) float64 {
	if m == 0 {
		return 1
	}
	return m
}

func defaultShards(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Mode returns the resolved execution mode.
func (e *Engine) Mode() Mode { return e.mode }

// dispatch fans one propagated match out to both output sides.
func (e *Engine) dispatch(s uint8, probe, match uint64) {
	m := Match{ProbeStream: StreamID(s), ProbeSeq: probe, MatchSeq: match}
	if e.onMatch != nil {
		e.onMatch(m)
	}
	if e.pull != nil {
		e.pull.Push(m)
	}
}

func (e *Engine) pushable() error {
	switch e.state.Load() {
	case stateOpen:
		return nil
	case stateAborted:
		return ErrAborted
	default:
		return ErrClosed
	}
}

// lockProducer acquires the producer mutex and re-checks liveness under it:
// the engine may have started closing or aborted while the caller was parked
// behind a reconfiguration or an abandoned drain. Callers fast-fail on
// pushable before locking, so an aborted engine rejects pushes promptly
// instead of queueing them on the mutex.
func (e *Engine) lockProducer() error {
	e.prodMu.Lock()
	if err := e.pushable(); err != nil {
		e.prodMu.Unlock()
		return err
	}
	return nil
}

// Push feeds one count-window tuple. In the parallel modes it may block on
// backpressure (QueueCapacity); in ModeSerial its matches are dispatched
// before it returns.
func (e *Engine) Push(s StreamID, key uint32) error {
	if err := e.pushable(); err != nil {
		return err
	}
	if e.mode == ModeShardedTime {
		return fmt.Errorf("pimtree: %s mode requires PushTimed (tuples carry event timestamps)", e.mode)
	}
	if err := e.lockProducer(); err != nil {
		return err
	}
	e.pushCount(stream.Arrival{Stream: uint8(s), Key: key})
	e.prodMu.Unlock()
	return nil
}

func (e *Engine) pushCount(a stream.Arrival) {
	switch e.mode {
	case ModeSerial:
		e.pushSerial(a)
	case ModeShared:
		e.shared.Push(a)
	default:
		e.router.Push(a)
	}
}

// pushSerial is the serial-mode push core, shared with the Join wrapper: the
// parallel modes read their runtime's own counters, so only serial mode
// maintains the engine-side tuple/match accounting.
func (e *Engine) pushSerial(a stream.Arrival) int {
	n := e.serial.Push(a)
	e.serialMatches.Add(uint64(n))
	e.tuples.Add(1)
	return n
}

// PushTimed feeds one time-window tuple (ModeShardedTime). With a LatePolicy
// other than LateNone the tuple enters the reorder buffer and joins once the
// watermark releases it; in strict mode a timestamp regression is rejected
// with an error wrapping ErrUnordered.
func (e *Engine) PushTimed(s StreamID, key uint32, ts uint64) error {
	if err := e.pushable(); err != nil {
		return err
	}
	if e.mode != ModeShardedTime {
		return fmt.Errorf("pimtree: PushTimed requires %s mode (%s windows are count-based)", ModeShardedTime, e.mode)
	}
	if e.cfg.LatePolicy == LateNone {
		if ts < e.lastTS {
			return errNotSorted()
		}
		e.lastTS = ts
	}
	if err := e.lockProducer(); err != nil {
		return err
	}
	e.router.PushTimed(uint8(s), key, ts)
	e.prodMu.Unlock()
	return nil
}

// PushBatch feeds a batch of tuples, amortizing per-push overhead (one queue
// handoff in ModeShared). In ModeShardedTime the arrivals' TS fields carry
// the event timestamps and strict mode validates the whole batch before
// admitting any of it.
func (e *Engine) PushBatch(batch []Arrival) error {
	if err := e.pushable(); err != nil {
		return err
	}
	if err := e.lockProducer(); err != nil {
		return err
	}
	defer e.prodMu.Unlock()
	switch e.mode {
	case ModeShardedTime:
		if e.cfg.LatePolicy == LateNone {
			last := e.lastTS
			for _, a := range batch {
				if a.TS < last {
					return errNotSorted()
				}
				last = a.TS
			}
			e.lastTS = last
		}
		for _, a := range batch {
			e.router.PushTimed(uint8(a.Stream), a.Key, a.TS)
		}
	case ModeShared:
		// Convert in bounded chunks: a full-size intermediate slice would
		// double the transient arrival memory of large batch runs for no
		// gain (the ring copy happens either way, and one queue handoff per
		// chunk amortizes the lock just as well).
		const chunk = 4096
		if cap(e.sharedBuf) == 0 {
			e.sharedBuf = make([]stream.Arrival, 0, chunk)
		}
		buf := e.sharedBuf
		for lo := 0; lo < len(batch); lo += chunk {
			hi := min(lo+chunk, len(batch))
			buf = buf[:0]
			for _, a := range batch[lo:hi] {
				buf = append(buf, stream.Arrival{Stream: uint8(a.Stream), Key: a.Key})
			}
			e.shared.PushBatch(buf)
		}
	default:
		for _, a := range batch {
			e.pushCount(stream.Arrival{Stream: uint8(a.Stream), Key: a.Key})
		}
	}
	return nil
}

// Matches returns the pull side of the session: an iterator over matches in
// propagation (arrival) order. The call arms collection — matches
// propagated before it are not replayed, so arm the iterator before pushing
// to observe everything. The iterator blocks awaiting further matches while
// the engine is open and ends once the engine is closed and the buffered
// matches are consumed; consume it from its own goroutine (or after Close).
// Breaking out of the loop disarms collection and drops the buffer (an
// abandoned iterator must not accumulate matches forever); a later Matches
// call re-arms from that point. It yields nothing when the engine was
// opened with DiscardMatches.
func (e *Engine) Matches() iter.Seq[Match] {
	if e.pull == nil {
		return func(func(Match) bool) {}
	}
	return e.pull.Seq()
}

// Stats returns a live snapshot: tuples admitted by the runtime (in
// ModeShardedTime this excludes tuples still buffered for reordering or
// dropped as late, matching the accounting Close finalizes), matches
// propagated so far (trailing pushes by the in-flight tuples), wall time
// since Open, and — in the sharded modes — the adaptive layer's progress
// (Rebalances, MigratedTuples, Imbalance), so the rebalancer is observable
// mid-stream, not only after Close. The remaining maintenance counters
// (Merges, late accounting, latency) are finalized by Close; after Close,
// Stats returns the final statistics. Safe from any goroutine.
func (e *Engine) Stats() RunStats {
	if e.state.Load() == stateClosed {
		return e.final
	}
	var st RunStats
	switch e.mode {
	case ModeSerial:
		st.Tuples = int(e.tuples.Load())
		st.Matches = e.serialMatches.Load()
	case ModeShared:
		st.Tuples = e.shared.Tuples()
		st.Matches = e.shared.Matches()
	default:
		st.Tuples = e.router.Tuples()
		st.Matches = e.router.Matches()
		st.Rebalances = e.router.Rebalances()
		st.MigratedTuples = e.router.Migrated()
		st.Imbalance = shardImbalance(e.router.LoadSnapshot())
	}
	st.Elapsed = time.Since(e.start)
	st.Mtps = metrics.Mtps(st.Tuples, st.Elapsed)
	e.fillGC(&st)
	return st
}

// fillGC populates the GC-pressure fields of a RunStats from the delta
// between the current runtime counters and the snapshot taken at Open.
func (e *Engine) fillGC(st *RunStats) {
	d := metrics.ReadGC().Sub(e.gcBase)
	st.AllocObjects = d.AllocObjects
	st.AllocBytes = d.AllocBytes
	st.GCCycles = d.GCCycles
	st.GCPauseTotal = time.Duration(d.GCPauseSecs * float64(time.Second))
	if st.Tuples > 0 {
		st.AllocsPerTuple = float64(d.AllocObjects) / float64(st.Tuples)
		st.BytesPerTuple = float64(d.AllocBytes) / float64(st.Tuples)
	}
}

// ShardLoads returns each shard's live load snapshot in the sharded modes
// (nil elsewhere): inserts and probe fan-ins routed since the last rebalance
// epoch (populated only under adaptive rebalancing), pending queue depth,
// and resident window size. Safe from any goroutine; the snapshot is weakly
// consistent across shards.
func (e *Engine) ShardLoads() []ShardLoad {
	if e.router == nil {
		return nil
	}
	snap := e.router.LoadSnapshot()
	out := make([]ShardLoad, len(snap))
	for i, s := range snap {
		out[i] = ShardLoad{Inserts: s.Inserts, Probes: s.Probes, QueueDepth: s.QueueDepth, QueueHW: s.QueueHW, Resident: s.Resident}
	}
	return out
}

// EmitsMatches reports whether the session materializes individual matches —
// false when opened with Config.DiscardMatches, in which case Matches yields
// nothing and only the match count is maintained. The serving layer consults
// it to reject match subscriptions a discarding engine could never satisfy.
func (e *Engine) EmitsMatches() bool { return e.pull != nil }

// shardImbalance folds a shard load snapshot into the single imbalance
// ratio exposed by RunStats: over routed ops when the adaptive accounting is
// live, otherwise over resident window tuples (always maintained).
func shardImbalance(snap []shard.ShardLoad) float64 {
	routed := make([]uint64, len(snap))
	resident := make([]uint64, len(snap))
	anyRouted := false
	for i, s := range snap {
		routed[i] = s.Inserts + s.Probes
		if routed[i] > 0 {
			anyRouted = true
		}
		resident[i] = uint64(s.Resident)
	}
	if anyRouted {
		return metrics.Imbalance(routed)
	}
	return metrics.Imbalance(resident)
}

// Drain flushes the session to a deterministic quiescent point and blocks
// until every pushed tuple's matches have been propagated: pending shard
// batches are flushed, in-flight rebalance epochs complete, and in
// ModeShardedTime the reorder buffer is flushed — which advances the
// watermark past everything buffered, so strictly older tuples pushed
// afterwards are late. The session stays usable.
//
// If ctx is done first, Drain returns its error. In ModeShared the session
// simply keeps running (the drain was only a wait); in the sharded modes the
// abandoned drain keeps flushing in the background and the engine becomes
// aborted: further pushes fail with ErrAborted and only Close is permitted.
func (e *Engine) Drain(ctx context.Context) error {
	if err := e.pushable(); err != nil {
		return err
	}
	switch e.mode {
	case ModeSerial:
		return nil // synchronous: nothing is ever in flight
	case ModeShared:
		return e.shared.Drain(ctx)
	default:
		if err := e.lockProducer(); err != nil {
			return err
		}
		if ctx.Done() == nil {
			// Un-cancelable context (e.g. context.Background()): drain
			// synchronously instead of spawning the watchdog goroutine, so a
			// push-drain steady state stays allocation-free.
			e.router.Drain()
			e.prodMu.Unlock()
			return nil
		}
		done := make(chan struct{})
		go func() {
			// The drain goroutine owns the producer mutex until the router is
			// actually quiescent — an abandoned drain is still a producer-side
			// operation in flight, and Reconfigure must keep waiting for it.
			defer close(done)
			e.router.Drain()
			e.prodMu.Unlock()
		}()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			// Both can be ready at once and select picks randomly; a drain
			// that actually completed must not brick the session.
			select {
			case <-done:
				return nil
			default:
			}
			e.bg = done
			e.state.Store(stateAborted)
			return fmt.Errorf("pimtree: drain abandoned: %w", ctx.Err())
		}
	}
}

// Close drains and tears the session down: remaining queued tuples are
// processed, the reorder buffer is flushed, workers exit, and the final
// run statistics are returned. Closing an already-closed engine returns
// ErrClosed.
//
// If ctx is done before the teardown completes, Close returns its error;
// the teardown keeps running in the background, the engine counts as
// closed, and the final statistics are lost.
func (e *Engine) Close(ctx context.Context) (RunStats, error) {
	for {
		st := e.state.Load()
		if st == stateClosing || st == stateClosed {
			return RunStats{}, ErrClosed
		}
		if e.state.CompareAndSwap(st, stateClosing) {
			break
		}
	}
	if e.tuner != nil {
		// Stop the auto-tuner first: a reconfiguration in flight completes
		// (the workers are still up), and no new one starts against the
		// teardown.
		e.tuner.stop()
	}
	done := make(chan struct{})
	var st join.Stats
	go func() {
		defer close(done)
		if e.bg != nil {
			// An abandoned Drain is still flushing; the runtime is
			// single-producer, so wait for it before tearing down.
			<-e.bg
		}
		// Teardown is a producer-side operation: taking the mutex waits out
		// any reconfiguration (or late push) already holding it.
		e.prodMu.Lock()
		defer e.prodMu.Unlock()
		switch e.mode {
		case ModeSerial:
			m, t := e.serial.Merges()
			st = join.Stats{
				Tuples:    int(e.tuples.Load()),
				Matches:   e.serialMatches.Load(),
				Merges:    m,
				MergeTime: t,
			}
		case ModeShared:
			st = e.shared.Close()
		default:
			st = e.router.Close()
		}
		if e.pull != nil {
			e.pull.Close()
		}
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Both can be ready at once and select picks randomly; a teardown
		// that actually finished must not be reported abandoned (that
		// would discard the final statistics forever).
		select {
		case <-done:
		default:
			return RunStats{}, fmt.Errorf("pimtree: close abandoned: %w", ctx.Err())
		}
	}
	e.final = e.finish(st)
	e.state.Store(stateClosed)
	return e.final, nil
}

// finish converts the runtime's final statistics into the public RunStats.
func (e *Engine) finish(st join.Stats) RunStats {
	elapsed := st.Elapsed
	if elapsed == 0 {
		elapsed = time.Since(e.start)
	}
	rs := RunStats{
		Tuples:              st.Tuples,
		Matches:             st.Matches,
		Elapsed:             elapsed,
		Mtps:                metrics.Mtps(st.Tuples, elapsed),
		Merges:              st.Merges,
		MergeTime:           st.MergeTime,
		MeanMicros:          st.Latency.MeanMicros,
		P99Micros:           st.Latency.P99Micros,
		Rebalances:          st.Rebalances,
		MigratedTuples:      st.Migrated,
		LateDropped:         st.LateDropped,
		MaxObservedDisorder: st.MaxDisorder,
	}
	if e.router != nil {
		rs.Imbalance = shardImbalance(e.router.LoadSnapshot())
	}
	e.fillGC(&rs)
	return rs
}
