package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"pimtree"
	"pimtree/internal/server"
)

// spanName identifies a traced boundary: a call from the benchmark into
// one module's public API.
type spanName uint8

const (
	spanClientPush    spanName = iota // server.Client.PushBatch
	spanClientDrain                   // server.Client.DrainWait
	spanEnginePush                    // Engine.PushBatch (in process or under a server)
	spanEngineDrain                   // Engine.Drain
	spanFrontendPush                  // cluster.Frontend.PushBatch under the router's server
	spanFrontendDrain                 // cluster.Frontend.Drain
	spanIndexSearch                   // pimtree.Index.Search
	spanIndexInsert                   // pimtree.Index.Insert
	spanIndexMaintain                 // pimtree.Index.Maintain
	spanReopen                        // pimtree.Open on an existing WAL directory
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.push", "client.drain", "engine.push", "engine.drain", "frontend.push",
	"frontend.drain", "index.search", "index.insert", "index.maintain", "engine.reopen",
}

// noParent marks root spans.
const noParent = numSpanNames

// spanParents names each span's parent: the span with this name and the
// same id (one id per batch, shared by the spans the batch caused).
var spanParents = [numSpanNames]spanName{
	noParent, noParent, spanClientPush, spanClientDrain, spanClientPush,
	spanClientDrain, noParent, noParent, noParent, noParent,
}

type span struct {
	start, end int64
	id         uint64
	name       spanName
}

// tracer keeps spans in memory, up to a fixed capacity, until the run ends.
// A nil or switched-off *tracer records nothing and costs one check per
// boundary.
type tracer struct {
	label   string // what was traced: the workload, a scenario, the ladder
	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(label string, capacity int) *tracer {
	return &tracer{label: label, spans: make([]span, 0, capacity)}
}

// begin returns the start timestamp for a span (0 when tracing is off).
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return nanotime()
}

// end records a span that started at start and ends now; a zero start
// (tracing was off at begin) records nothing.
func (t *tracer) end(name spanName, id uint64, start int64) {
	if start == 0 {
		return
	}
	end := nanotime()
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{start: start, end: end, id: id, name: name})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// spanStats summarizes one span name.
type spanStats struct {
	count   int
	totalNs int64
	selfNs  int64
	durUs   []float64
}

func (s *spanStats) quantileUs(q float64) float64 {
	if s == nil || len(s.durUs) == 0 {
		return 0
	}
	return quantile(s.durUs, q)
}

// summarize computes per-name counts, totals, duration samples and self
// time: a span's duration minus the part of it its children cover.
func (t *tracer) summarize() map[spanName]*spanStats {
	out := make(map[spanName]*spanStats)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		name spanName
		id   uint64
	}
	parents := make(map[key]int)
	covered := make([]int64, len(t.spans))
	for i, s := range t.spans {
		parents[key{s.name, s.id}] = i
	}
	for _, s := range t.spans {
		pn := spanParents[s.name]
		if pn == noParent {
			continue
		}
		if pi, ok := parents[key{pn, s.id}]; ok {
			p := t.spans[pi]
			if lo, hi := max(p.start, s.start), min(p.end, s.end); hi > lo {
				covered[pi] += hi - lo
			}
		}
	}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.count++
		st.totalNs += d
		st.selfNs += d - min(covered[i], d)
		st.durUs = append(st.durUs, float64(d)/1e3)
	}
	return out
}

// writeFile writes the spans as JSON lines, parents resolved by name.
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	type line struct {
		Name   string `json:"name"`
		ID     uint64 `json:"id"`
		Parent string `json:"parent,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for _, s := range spans {
		l := line{Name: spanNames[s.name], ID: s.id, Start: s.start, End: s.end}
		if p := spanParents[s.name]; p != noParent {
			l.Parent = spanNames[p]
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary writes one line per span name: count, total and self time,
// and duration quantiles.
func (t *tracer) printSummary(w io.Writer) {
	label := t.label
	sum := t.summarize()
	for n := spanName(0); n < numSpanNames; n++ {
		s := sum[n]
		if s == nil {
			continue
		}
		fmt.Fprintf(w, "# span %s %-15s count=%d total_ms=%.3f self_ms=%.3f p50_us=%.2f p99_us=%.2f\n",
			label, spanNames[n], s.count, float64(s.totalNs)/1e6, float64(s.selfNs)/1e6, s.quantileUs(0.5), s.quantileUs(0.99))
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "# span %s dropped=%d (capacity %d)\n", label, t.dropped, cap(t.spans))
	}
}

// tracedEngine wraps the engine a server serves (an Engine or a cluster
// Frontend), recording a span around each push and drain the server's
// producer goroutine makes. Batch ids are call ordinals, which match the
// client's push ordinals on a single ingest connection.
type tracedEngine struct {
	server.Engine
	tr          *tracer
	push, drain spanName
	pushes      uint64
	drains      uint64
}

func (t *tracedEngine) PushBatch(b []pimtree.Arrival) error {
	start := t.tr.begin()
	err := t.Engine.PushBatch(b)
	t.tr.end(t.push, t.pushes, start)
	t.pushes++
	return err
}

func (t *tracedEngine) Drain(ctx context.Context) error {
	start := t.tr.begin()
	err := t.Engine.Drain(ctx)
	t.tr.end(t.drain, t.drains, start)
	t.drains++
	return err
}
