package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// runJSON runs the benchmark with args and decodes its last output line.
func runJSON(t *testing.T, args ...string) (resultJSON, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(args, "-workdir", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s\n%s", err, out.String(), errb.String())
	}
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out.String(), errb.String())
	}
	return res, out.String()
}

// checkResult asserts a clean run that printed exactly the catalog's
// metrics, each with its unit.
func checkResult(t *testing.T, res resultJSON, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, catalog has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloadsShort runs a short form of every workload and scenario on
// the default seed and on a held-out one: every oracle check passes and
// every end-to-end metric is printed, non-zero, with its unit.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range append(workloadDefs, scenarioDefs...) {
		for _, seed := range []string{"1", "20260917"} {
			t.Run(w.name+"/seed="+seed, func(t *testing.T) {
				res, _ := runJSON(t, "-workload", w.name, "-seed", seed, "-seconds", "1")
				checkResult(t, res, endToEnd)
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestHeapBaseline checks that heap_inuse_mb counts the engine, not the
// benchmark's inputs: a run that sets up once and one that sets up
// setupReps times (keeping only the last session) report the same live
// heap, so no earlier set-up's input leaks into the baseline.
func TestHeapBaseline(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			heap := func(reps int) float64 {
				defer func(n int) { setupReps = n }(setupReps)
				setupReps = reps
				res, _ := runJSON(t, "-workload", w.name, "-seed", "4", "-seconds", "1")
				return res.Metrics["heap_inuse_mb"].Value
			}
			one, many := heap(1), heap(setupReps)
			t.Logf("heap_inuse_mb %.3f after one set-up, %.3f after %d", one, many, setupReps)
			if one <= 0 || math.Abs(many-one) > 0.05*one {
				t.Errorf("heap_inuse_mb %.2f after one set-up, %.2f after %d", one, many, setupReps)
			}
		})
	}
}

// TestLatencySampleFloor checks that a run whose latency windows hold
// fewer than minLatSamples samples fails.
func TestLatencySampleFloor(t *testing.T) {
	r := newReport()
	checkLatencySamples(r, minLatSamples-1)
	if r.failed == 0 {
		t.Error("a window below the sample floor was not charged")
	}
	r = newReport()
	checkLatencySamples(r, minLatSamples)
	if r.failed != 0 {
		t.Errorf("a window at the sample floor was charged: %v", r.problems)
	}
}

// TestTracedShort runs one short traced run: it prints every per-layer
// metric (the scenarios, the ladder, the paper-claim ratios, the sweep)
// with its unit, and its span summaries.
func TestTracedShort(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run includes the ladder and the rate sweep")
	}
	res, out := runJSON(t, "-workload", "shared-count", "-seed", "3", "-seconds", "1", "-trace", "1")
	checkResult(t, res, perLayer)
	for _, name := range []string{"join.push_busy_frac", "shard.serve_p99_ms", "shard.engine_push_us_p99", "wal.recovery_s", "wal.replay_records", "cluster.trickle_p99_ms", "core.search_ns", "ladder.route.ns_per_tuple"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	for _, want := range []string{"# span shared-count engine.push", "# span serve-count engine.push", "# span durable-timed engine.push", "# span route-trickle frontend.push", "# span ladder index.search", "# claim shared_speedup=", "# sweep rate=1000/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

// TestRoundOracle checks the periodic-feed argument the closed-loop oracle
// rests on: the count after k rounds extrapolated from two rounds equals a
// direct serial join of all k rounds, for count and time windows.
func TestRoundOracle(t *testing.T) {
	const w = 256
	cf, cdiff, err := countFeed(5, 4096, 3*w, w, matchRate)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newRoundOracle(cf, w, 0, cdiff)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := countPrefixes(cf, w, cdiff, []int{cf.fill + 5*cf.round()})
	if err != nil {
		t.Fatal(err)
	}
	if o.after(5) != direct[0] || o.step == 0 {
		t.Errorf("count feed: extrapolated %d, direct %d (step %d)", o.after(5), direct[0], o.step)
	}

	const span, slack, gap = 2 * 8 * 256, 64, 8
	tf, tdiff, err := timedFeed(5, 4096, 1024, gap, span, slack, matchRate)
	if err != nil {
		t.Fatal(err)
	}
	o, err = newRoundOracle(tf, 0, span, tdiff)
	if err != nil {
		t.Fatal(err)
	}
	got, err := timedPrefix(tf, span, tdiff, tf.fill+5*tf.round())
	if err != nil {
		t.Fatal(err)
	}
	if o.after(5) != got || o.step == 0 {
		t.Errorf("timed feed: extrapolated %d, direct %d (step %d)", o.after(5), got, o.step)
	}
}

// TestCatalogFiles keeps BENCHMARK.json and METRICS.md in step with the
// catalog the program prints from (regenerate them with -catalog).
func TestCatalogFiles(t *testing.T) {
	for _, c := range []struct{ path, kind string }{{"../BENCHMARK.json", "json"}, {"METRICS.md", "md"}} {
		got, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := writeCatalog(&want, c.kind); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s is stale: regenerate with go run . -catalog %s", c.path, c.kind)
		}
	}
}
