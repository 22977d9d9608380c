package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pimtree"
	"pimtree/internal/metrics"
)

// Closed-loop sessions push the feed's rounds in fixed-size batches, each
// batch as soon as the previous PushBatch returns: into an in-process
// Engine, or over loopback TCP into a served one (see wireClient).

const (
	tagShift = 4 // one latency tag per 16 sequence numbers per stream
	tagRing  = 1 << 15
)

// tagger measures match latency in a closed loop: the push time of every
// 16th tuple per stream is stored by sequence number, and the tuple's first
// match, seen by the OnMatch callback (serialized by the runtime's ordered
// propagation) or by a wire client's subscriber, is charged against it.
type tagger struct {
	ring    [2][tagRing]atomic.Int64
	last    [2]uint64 // last sampled probe seq + 1, per stream
	mu      sync.Mutex
	samples []latSample // guarded by mu: a phase may end before its matches
}

func (t *tagger) mark(stream uint8, seq uint64, now int64) {
	if seq&(1<<tagShift-1) == 0 {
		t.ring[stream&1][(seq>>tagShift)%tagRing].Store(now)
	}
}

func (t *tagger) onMatch(m pimtree.Match) { t.record(m, nanotime()) }

// record charges a match observed at time at (nanotime). Calls must not
// overlap.
func (t *tagger) record(m pimtree.Match, at int64) {
	if m.ProbeSeq&(1<<tagShift-1) != 0 {
		return
	}
	s := m.ProbeStream & 1
	if t.last[s] == m.ProbeSeq+1 {
		return
	}
	t.last[s] = m.ProbeSeq + 1
	if due := t.ring[s][(m.ProbeSeq>>tagShift)%tagRing].Load(); due != 0 {
		t.mu.Lock()
		t.samples = append(t.samples, latSample{due: due, lat: at - due})
		t.mu.Unlock()
	}
}

// pushTarget is what a closed loop pushes into: an Engine, or a wire
// client of a served one.
type pushTarget interface {
	PushBatch([]pimtree.Arrival) error
	Drain(context.Context) error
}

// closedSession is one open engine fed from a periodic feed.
type closedSession struct {
	f     *feed
	eng   *pimtree.Engine
	to    pushTarget
	tags  *tagger
	buf   []pimtree.Arrival // one batch
	pos   int               // next feed position
	tr    *tracer
	ids   uint64 // push ordinal (span id)
	timed bool   // time windows: only the final phase may drain

	// Served sessions: the server and the client pushing into it, whose
	// calls are the traced pushes and drains.
	srv                 *serveStack
	wire                *wireClient
	pushSpan, drainSpan spanName
}

// openClosed opens the engine, in process or (serve) behind a server on a
// loopback port, and pushes the feed's fill positions. Count windows are
// drained after the fill; time windows are not, because a Drain flushes the
// reorder buffer and would turn in-slack tuples of the first round into
// late drops.
func openClosed(cfg pimtree.Config, serve bool, f *feed, tags *tagger, tr *tracer) (*closedSession, error) {
	cs := &closedSession{f: f, tags: tags, buf: make([]pimtree.Arrival, batchSize), tr: tr, pushSpan: spanEnginePush, drainSpan: spanEngineDrain}
	if serve {
		var err error
		if cs.srv, err = startServe(cfg, tr); err != nil {
			return nil, err
		}
		if cs.wire, err = dialWire(cs.srv.addr(), f, tags); err != nil {
			cs.srv.close()
			return nil, err
		}
		cs.eng, cs.to, cs.pushSpan, cs.drainSpan = cs.srv.eng, cs.wire, spanClientPush, spanClientDrain
	} else {
		cfg.OnMatch = cs.tags.onMatch
		eng, err := pimtree.Open(cfg)
		if err != nil {
			return nil, err
		}
		cs.eng, cs.to = eng, eng
	}
	cs.timed = cfg.Span > 0
	if err := cs.push(f.fill, false); err != nil {
		cs.close()
		return nil, err
	}
	if !cs.timed {
		if err := cs.to.Drain(context.Background()); err != nil {
			cs.close()
			return nil, err
		}
	}
	return cs, nil
}

// push feeds the next n positions in batches, tagging sampled tuples.
func (cs *closedSession) push(n int, tag bool) error {
	for end := cs.pos + n; cs.pos < end; {
		b := cs.buf[:min(len(cs.buf), end-cs.pos)]
		cs.f.copyInto(b, cs.pos)
		now := nanotime()
		if tag {
			for i := range b {
				cs.tags.mark(uint8(b[i].Stream), cs.f.seq(cs.pos+i), now)
			}
		}
		start := cs.tr.begin()
		err := cs.to.PushBatch(b)
		cs.tr.end(cs.pushSpan, cs.ids, start)
		cs.ids++
		if err != nil {
			return fmt.Errorf("push at position %d: %w", cs.pos, err)
		}
		cs.pos += len(b)
	}
	return nil
}

// closedPhase is the record of one measured stretch of whole rounds.
type closedPhase struct {
	rounds  int
	tuples  int
	wallNs  int64
	tps     []float64 // per round
	cpuUs   []float64 // per round, CPU µs per tuple
	p50     []float64 // per latency window, ms
	p99     []float64 // per latency window, ms
	minLat  int       // fewest latency samples in a window
	samples int       // latency samples in the windows
	fig     figures
	plain   figures // the same without the steal filter
	drainNs int64   // the final Drain
	gc      metrics.GCSnapshot
}

// measure pushes whole rounds until seconds have passed (at least
// minRounds), drains, and returns per-round throughput and CPU cost, and
// match latency quantiles per window of push time (see latencyWindows).
// The last round's time includes the drain. A phase that another follows
// on time windows ends without the drain, which would flush the reorder
// buffer and make the next phase's in-slack tuples late.
func (cs *closedSession) measure(seconds float64, minRounds int, window time.Duration, final bool) (*closedPhase, error) {
	ph := &closedPhase{}
	m := cs.f.round()
	gc0 := metrics.ReadGC()
	probe := startStealProbe()
	defer probe.finish()
	t0, c0 := nanotime(), cpuNanos()
	bounds := []int64{t0}
	cpus := []int64{c0}
	deadline := t0 + int64(seconds*1e9)
	for {
		if err := cs.push(m, true); err != nil {
			return nil, err
		}
		ph.rounds++
		if ph.rounds >= minRounds && nanotime() >= deadline {
			break
		}
		bounds = append(bounds, nanotime())
		cpus = append(cpus, cpuNanos())
	}
	ds := nanotime()
	if final || !cs.timed {
		start := cs.tr.begin()
		err := cs.to.Drain(context.Background())
		cs.tr.end(cs.drainSpan, 0, start)
		if err != nil {
			return nil, fmt.Errorf("drain: %w", err)
		}
	}
	t1, c1 := nanotime(), cpuNanos()
	probe.finish()
	ph.drainNs = t1 - ds
	bounds = append(bounds, t1)
	cpus = append(cpus, c1)
	ph.gc = metrics.ReadGC().Sub(gc0)
	ph.tuples = ph.rounds * m
	ph.wallNs = t1 - t0
	for r := 0; r < ph.rounds; r++ {
		ph.tps = append(ph.tps, float64(m)/(float64(bounds[r+1]-bounds[r])/1e9))
		ph.cpuUs = append(ph.cpuUs, float64(cpus[r+1]-cpus[r])/1e3/float64(m))
	}
	// Samples of earlier phases fall outside this phase's windows.
	windows := latencyWindows(t0, ds, window)
	cs.tags.mu.Lock()
	ph.p50, ph.p99, ph.minLat, ph.samples = sliceQuantiles(cs.tags.samples, windows)
	if final {
		cs.tags.samples = nil // the drained engine emits no more matches
	}
	cs.tags.mu.Unlock()
	roundSteal, windowSteal := probe.perInterval(bounds), probe.perInterval(windows)
	ph.fig = figures{
		tps:   calmMedian(ph.tps, roundSteal),
		cpuUs: calmMedian(ph.cpuUs, roundSteal),
		p50:   calmMedian(ph.p50, windowSteal),
		p99:   calmMedian(ph.p99, windowSteal),
	}
	ph.plain = figures{tps: plainMedian(ph.tps), cpuUs: plainMedian(ph.cpuUs), p50: plainMedian(ph.p50), p99: plainMedian(ph.p99)}
	return ph, nil
}

// close tears the engine (and its server and client) down and returns its
// final statistics.
func (cs *closedSession) close() (pimtree.RunStats, error) {
	if cs.srv == nil {
		return cs.eng.Close(context.Background())
	}
	cs.wire.close()
	return cs.srv.close()
}
