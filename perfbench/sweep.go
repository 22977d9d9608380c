package main

import (
	"context"
	"fmt"
	"time"

	"pimtree"
	"pimtree/internal/load"
	"pimtree/internal/metrics"
)

// The serve-path diagnostic: p99 match latency at a few fixed rates, and
// the highest rate holding p99 under the SLO, searched upward from the
// highest swept rate that held it. Each trial runs on a fresh serve-count
// stack so an overloaded trial's backlog cannot leak into the next.

var sweepRates = []int{1000, 10000, 60000, 100000}

const (
	sweepSLO      = 20 * time.Millisecond
	sweepTrialSec = 2.0
	capTrials     = 6
)

func runSweep(e *env, r *report) error {
	start := 0.0
	trial := 0
	runTrial := func(rate float64) (*load.Result, error) {
		trial++
		return serveTrial(e, r, e.seed+int64(trial), rate)
	}
	for _, rate := range sweepRates {
		res, err := runTrial(float64(rate))
		if err != nil {
			return fmt.Errorf("sweep at %d/s: %w", rate, err)
		}
		p99 := time.Duration(res.Latency.Quantile(0.99))
		r.set(fmt.Sprintf("load.p99_ms.%d", rate), float64(p99)/1e6)
		e.logf("sweep rate=%d/s p99_ms=%.3f p50_ms=%.3f samples=%d", rate, float64(p99)/1e6, float64(res.Latency.Quantile(0.5))/1e6, res.Latency.Count())
		if p99 <= sweepSLO {
			start = float64(rate)
		}
	}
	if start == 0 {
		e.logf("capacity: no swept rate holds p99 <= %v", sweepSLO)
		return nil
	}
	cr, err := load.FindCapacity(context.Background(), load.CapacityOptions{
		SLO: sweepSLO, MinRate: start, MaxRate: 8e5, MaxTrials: capTrials,
		Logf: func(format string, args ...any) { e.logf(format, args...) },
	}, func(_ context.Context, rate float64) (*load.Result, error) { return runTrial(rate) })
	if err != nil {
		return err
	}
	r.set("load.capacity_tps", cr.MaxRate)
	e.logf("capacity %.0f/s under p99 <= %v, searched from %.0f/s, %d cores, %d trials", cr.MaxRate, sweepSLO, start, e.nproc, len(cr.Trials))
	return nil
}

// serveTrial runs one fixed-rate open-loop trial against a fresh
// serve-count stack and checks its matches against the oracle.
func serveTrial(e *env, r *report, seed int64, rate float64) (*load.Result, error) {
	n := int(rate * sweepTrialSec)
	f, diff, err := countFeed(seed, serveFill+n, serveFill, serveW, matchRate)
	if err != nil {
		return nil, err
	}
	ss, err := startServe(pimtree.Config{Mode: pimtree.ModeSharded, Shards: e.nproc, WindowR: serveW, WindowS: serveW, Diff: diff}, nil)
	if err != nil {
		return nil, err
	}
	o, err := openOpen(ss.addr(), f.block, serveFill, newTags(f.block), nil)
	if err != nil {
		ss.close()
		return nil, err
	}
	ph, err := o.measure(n, rate, time.Duration(sweepTrialSec*float64(time.Second)))
	o.close()
	if _, cerr := ss.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r.attempted += int64(serveFill + n)
	want, err := serialDigest(f.block, serveW, diff)
	if err != nil {
		return nil, err
	}
	r.expect(fmt.Sprintf("sweep at %.0f/s matches", rate), o.digest.n, want.n)
	r.fail(int64(o.untagged), "sweep at %.0f/s: %d untagged matches", rate, o.untagged)
	res := &load.Result{Offered: rate, Sent: ph.sent, Elapsed: time.Duration(ph.wallNs), Matches: o.digest.n, Errors: int(o.errs)}
	var lat metrics.Histogram
	for _, s := range o.samples {
		lat.Record(s.lat)
	}
	res.Latency = lat
	return res, nil
}
