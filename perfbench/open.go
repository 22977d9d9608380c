package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pimtree"
	"pimtree/internal/cluster"
	"pimtree/internal/metrics"
	"pimtree/internal/server"
)

// Open-loop sessions drive a served engine over loopback TCP: one ingest
// connection sends arrivals on a fixed-rate schedule that does not slow
// when the server does, and one subscriber connection receives every match.
// Each arrival's latency runs from its scheduled send time to the receipt of
// the frame carrying its first match, so a stall is charged to every
// arrival scheduled behind it.

// openSession is one ingest/subscriber connection pair against a server.
type openSession struct {
	ingest, sub *server.Client
	arr         []pimtree.Arrival // the whole input: fill, then measured arrivals
	pos         int               // next arrival to send
	tr          *tracer
	pushes      uint64 // client push ordinal (span id)
	drains      uint64 // client drain ordinal (span id)

	// Reader state: tags are written before the reader starts or while it
	// is parked between drains (ordered by the drained channel), read by the
	// reader goroutine.
	tags     [2][]int64 // per-stream seq -> due time (nanotime), 0 = untimed
	last     [2]uint64  // last probe seq + 1 seen, per stream
	samples  []latSample
	digest   matchDigest
	untagged uint64
	errs     uint64
	drained  chan struct{}
	done     chan error
}

// newTags allocates the per-stream tag table for an arrival sequence.
func newTags(arr []pimtree.Arrival) [2][]int64 {
	var n [2]int
	for _, a := range arr {
		n[a.Stream&1]++
	}
	return [2][]int64{make([]int64, n[0]), make([]int64, n[1])}
}

// openOpen dials the server, starts the subscriber's reader and pushes the
// fill arrivals, then drains so the measured phase starts from full windows.
// tags is the arrivals' tag table (newTags).
func openOpen(addr string, arr []pimtree.Arrival, fill int, tags [2][]int64, tr *tracer) (*openSession, error) {
	o := &openSession{arr: arr, tags: tags, tr: tr, drained: make(chan struct{}, 1), done: make(chan error, 1)}
	var err error
	if o.sub, err = server.Dial(addr, server.DialOptions{Subscribe: true}); err != nil {
		return nil, fmt.Errorf("dial subscriber: %w", err)
	}
	if o.ingest, err = server.Dial(addr, server.DialOptions{}); err != nil {
		o.sub.Close()
		return nil, fmt.Errorf("dial ingest: %w", err)
	}
	go func() { o.done <- o.read() }()
	for o.pos < fill {
		hi := min(o.pos+1024, fill)
		if err := o.push(o.arr[o.pos:hi]); err != nil {
			o.close()
			return nil, err
		}
		o.pos = hi
	}
	if err := o.drain(); err != nil {
		o.close()
		return nil, err
	}
	return o, nil
}

func (o *openSession) push(b []pimtree.Arrival) error {
	start := o.tr.begin()
	err := o.ingest.PushBatch(b)
	o.tr.end(spanClientPush, o.pushes, start)
	o.pushes++
	if err != nil {
		return fmt.Errorf("push: %w", err)
	}
	return nil
}

// drain waits until every match of every sent arrival has been received:
// the ingest connection's drain covers its own pushes, then the
// subscriber's drain acknowledgement is ordered after every match the
// engine propagated by then.
func (o *openSession) drain() error {
	start := o.tr.begin()
	_, err := o.ingest.DrainWait()
	o.tr.end(spanClientDrain, o.drains, start)
	o.drains++
	if err != nil {
		return fmt.Errorf("ingest drain: %w", err)
	}
	start = o.tr.begin()
	defer func() { o.tr.end(spanClientDrain, o.drains, start); o.drains++ }()
	if err := o.sub.Drain(); err != nil {
		return fmt.Errorf("subscriber drain: %w", err)
	}
	select {
	case <-o.drained:
		return nil
	case err := <-o.done:
		return fmt.Errorf("subscriber: %w", err)
	case <-time.After(60 * time.Second):
		return errors.New("subscriber drain timed out")
	}
}

// read consumes the subscriber's frames until the connection closes.
func (o *openSession) read() error {
	for {
		ev, err := o.sub.ReadEvent()
		if err != nil {
			return err
		}
		switch ev.Type {
		case server.FrameMatch:
			at := int64(ev.At.Sub(epoch))
			for _, m := range ev.Matches {
				o.digest.add(m)
				s := m.ProbeStream & 1
				if m.ProbeStream > 1 || m.ProbeSeq >= uint64(len(o.tags[s])) {
					o.untagged++
					continue
				}
				if o.last[s] == m.ProbeSeq+1 {
					continue
				}
				o.last[s] = m.ProbeSeq + 1
				if due := o.tags[s][m.ProbeSeq]; due != 0 {
					o.samples = append(o.samples, latSample{due: due, lat: at - due})
				}
			}
		case server.FrameDrained:
			o.drained <- struct{}{}
		case server.FrameError:
			o.errs++
			return fmt.Errorf("server error frame: %s", ev.Err)
		}
	}
}

func (o *openSession) close() {
	o.ingest.Close()
	o.sub.Close()
	<-o.done
}

// openPhase is the record of one measured open-loop stretch.
type openPhase struct {
	sent     int
	wallNs   int64     // first scheduled send to the final drain
	cpuUs    []float64 // per second, CPU µs per arrival
	p50, p99 []float64 // per latency window, ms
	phaseP99 float64   // over every sample of the phase, ms
	minLat   int       // fewest latency samples in a window
	samples  int       // latency samples in the windows
	lagP50Ms float64   // how late the sender ran, over all arrivals
	lagP99Ms float64
	fig      figures
	plain    figures // the same without the steal filter
	gc       metrics.GCSnapshot
}

// sendTick is the schedule's grid: arrivals due within one tick leave as
// one batch, as a client buffering for 100µs would send them.
const sendTick = 100 * time.Microsecond

// measure sends n arrivals at rate per second on a fixed schedule, then
// drains. CPU is reported per second of the schedule, latency quantiles
// per window of the schedule (see latencyWindows).
func (o *openSession) measure(n int, rate float64, window time.Duration) (*openPhase, error) {
	ph := &openPhase{sent: n}
	gap := 1e9 / rate
	tick := float64(sendTick)
	first := o.pos
	seqs := [2]uint64{}
	for _, a := range o.arr[:first] {
		seqs[a.Stream&1]++
	}
	t0 := nanotime() + int64(time.Millisecond)
	due := func(i int) int64 { return t0 + int64(math.Floor(float64(i)*gap/tick)*tick) }
	for i, a := range o.arr[first : first+n] {
		s := a.Stream & 1
		o.tags[s][seqs[s]] = due(i)
		seqs[s]++
	}
	o.samples = make([]latSample, 0, n)
	lagMs := make([]float64, 0, n)
	gc0 := metrics.ReadGC()
	probe := startStealProbe()
	defer probe.finish()
	c0 := cpuNanos()
	cpuBounds := []int64{t0}
	cpus := []int64{c0}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; i < n; {
		now := nanotime()
		for now >= cpuBounds[len(cpuBounds)-1]+int64(time.Second) {
			cpuBounds = append(cpuBounds, cpuBounds[len(cpuBounds)-1]+int64(time.Second))
			cpus = append(cpus, cpuNanos())
		}
		if d := due(i); d > now {
			timer.Reset(time.Duration(d - now))
			<-timer.C
			continue
		}
		j := i
		for j < n && due(j) <= now && j-i < 1024 {
			j++
		}
		if err := o.push(o.arr[first+i : first+j]); err != nil {
			return nil, err
		}
		for k := i; k < j; k++ {
			lagMs = append(lagMs, float64(now-due(k))/1e6)
		}
		i = j
	}
	o.pos = first + n
	if err := o.drain(); err != nil {
		return nil, err
	}
	t1, c1 := nanotime(), cpuNanos()
	probe.finish()
	ph.gc = metrics.ReadGC().Sub(gc0)
	ph.wallNs = t1 - t0
	// Whole seconds only: the last partial second's CPU includes the drain.
	// A phase shorter than a second is one slice, drain included.
	for k := 0; k+1 < len(cpus); k++ {
		ph.cpuUs = append(ph.cpuUs, float64(cpus[k+1]-cpus[k])/1e3/rate)
	}
	if len(ph.cpuUs) == 0 {
		ph.cpuUs = []float64{float64(c1-c0) / 1e3 / float64(n)}
		cpuBounds = []int64{t0, t1}
	}
	windows := latencyWindows(t0, due(n-1), window)
	ph.p50, ph.p99, ph.minLat, ph.samples = sliceQuantiles(o.samples, windows)
	windowSteal := probe.perInterval(windows)
	ph.fig = figures{
		tps:   float64(n) / (float64(ph.wallNs) / 1e9),
		cpuUs: calmMedian(ph.cpuUs, probe.perInterval(cpuBounds)),
		p50:   calmMedian(ph.p50, windowSteal),
		p99:   calmMedian(ph.p99, windowSteal),
	}
	ph.plain = figures{tps: ph.fig.tps, cpuUs: plainMedian(ph.cpuUs), p50: plainMedian(ph.p50), p99: plainMedian(ph.p99)}
	ph.lagP50Ms, ph.lagP99Ms = quantile(lagMs, 0.5), quantile(lagMs, 0.99)
	lat := make([]float64, len(o.samples))
	for i, s := range o.samples {
		lat[i] = float64(s.lat) / 1e6
	}
	ph.phaseP99 = quantile(lat, 0.99)
	return ph, nil
}

// serveStack is an Engine behind a server on an ephemeral loopback port.
type serveStack struct {
	eng *pimtree.Engine
	srv *server.Server
}

func startServe(cfg pimtree.Config, tr *tracer) (*serveStack, error) {
	eng, err := pimtree.Open(cfg)
	if err != nil {
		return nil, err
	}
	var served server.Engine = eng
	if tr != nil {
		served = &tracedEngine{Engine: eng, tr: tr, push: spanEnginePush, drain: spanEngineDrain}
	}
	srv, err := server.New(served, server.Options{Addr: "127.0.0.1:0", Slow: server.Block, SubscriberQueue: 1 << 16})
	if err != nil {
		eng.Close(context.Background())
		return nil, err
	}
	return &serveStack{eng: eng, srv: srv}, nil
}

func (s *serveStack) addr() string           { return s.srv.Addr().String() }
func (s *serveStack) server() *server.Server { return s.srv }

func (s *serveStack) close() (pimtree.RunStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// routeStack is a cluster router (a Frontend behind a server) over serve
// nodes, all on ephemeral loopback ports in this process.
type routeStack struct {
	nodes []*server.Server
	fe    *cluster.Frontend
	srv   *server.Server
}

// startRoute starts n serve nodes and a router over them. A node's own
// engine never sees cluster traffic (member sessions are shaped by the
// router's join frame), so it is a minimal serial one.
func startRoute(n int, cfg cluster.Config, tr *tracer) (*routeStack, error) {
	rs := &routeStack{}
	for i := 0; i < n; i++ {
		eng, err := pimtree.Open(pimtree.Config{Mode: pimtree.ModeSerial, WindowR: 8, WindowS: 8, Diff: 1, Backend: pimtree.BPlusTree})
		if err != nil {
			rs.close()
			return nil, err
		}
		srv, err := server.New(eng, server.Options{Addr: "127.0.0.1:0", NodeID: fmt.Sprintf("node%d", i)})
		if err != nil {
			eng.Close(context.Background())
			rs.close()
			return nil, err
		}
		rs.nodes = append(rs.nodes, srv)
		cfg.Nodes = append(cfg.Nodes, srv.Addr().String())
	}
	fe, err := cluster.New(cfg)
	if err != nil {
		rs.close()
		return nil, err
	}
	rs.fe = fe
	var served server.Engine = fe
	if tr != nil {
		served = &tracedEngine{Engine: fe, tr: tr, push: spanFrontendPush, drain: spanFrontendDrain}
	}
	rs.srv, err = server.New(served, server.Options{
		Addr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0", Role: "route",
		AdminMux: fe.AdminMux, ExtraProm: fe.PromFamilies,
		Slow: server.Block, SubscriberQueue: 1 << 16,
	})
	if err != nil {
		fe.Close(context.Background())
		rs.close()
		return nil, err
	}
	return rs, nil
}

func (rs *routeStack) addr() string           { return rs.srv.Addr().String() }
func (rs *routeStack) server() *server.Server { return rs.srv }

// close shuts the router down (which ends the member sessions), then the
// nodes, and returns the router's final statistics.
func (rs *routeStack) close() (pimtree.RunStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var st pimtree.RunStats
	var err error
	if rs.srv != nil {
		st, err = rs.srv.Shutdown(ctx)
	}
	for _, nd := range rs.nodes {
		if _, nerr := nd.Shutdown(ctx); err == nil {
			err = nerr
		}
	}
	return st, err
}

// promValue scrapes one unlabeled sample from the router's /metrics.
func (rs *routeStack) promValue(name string) (float64, error) {
	resp, err := http.Get("http://" + rs.srv.AdminAddr().String() + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("no %s sample", name)
}
