package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef names one reported metric. For per-layer metrics, moves names
// the end-to-end metric and workload (or traced scenario) a change in the
// layer metric should move, and flat the workloads on which the prediction
// is no change. A run that bypasses a layer prints 0 for it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
	moves, flat        string
}

// workloadDef documents one workload or traced scenario.
type workloadDef struct {
	name, why string
}

// workloadDefs are the benchmarked workloads: each run prints the
// end-to-end metrics, which later changes are gated on.
var workloadDefs = []workloadDef{
	{"shared-count", "the paper's parallel join: closed loop, shared PIM-Tree, 2 threads, 2^16-tuple count windows, uniform keys; core, join and window do the work"},
	{"shared-skew", "shared-count on the paper's skewed keys (Gaussian, mean 0.5, sigma 0.125, band calibrated to 2 matches per arrival): key skew, the other axis a join is judged on"},
}

// scenarioDefs exercise the layers both workloads bypass. Their end-to-end
// figures swing with the shared disk, host scheduling or, on the sharded
// serve path, the cold shard's flush stall by more than any usable bound,
// so a traced run measures them as per-layer metrics only. They can still
// be run alone by name.
var scenarioDefs = []workloadDef{
	{"serve-shared", "shared-count served: closed loop over loopback TCP, 16Ki tuples in flight, into the same engine behind a server; server wire, queue and fan-out"},
	{"serve-count", "fixed-rate open loop over loopback TCP into a 2-shard engine on the library's uniform keys; shard router service time and its flush stall"},
	{"durable-timed", "closed loop, time windows with bounded disorder, Gaussian keys, WAL with the default batched fsync; wal, ooo and shard load do the work"},
	{"route-trickle", "3k/s open loop through a cluster frontend over 2 in-process serve nodes; the cluster tier"},
}

var endToEnd = []metricDef{
	{name: "throughput_tps", unit: "tuples/s", better: "higher", bound: 0.25},
	{name: "match_latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "match_latency_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_us_per_tuple", unit: "us", better: "lower", bound: 0.25},
	{name: "heap_inuse_mb", unit: "MB", better: "lower", bound: 0.1},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	sharedTPS  = "throughput_tps, cpu_us_per_tuple on shared-count and shared-skew"
	joinTPS    = "throughput_tps on shared-count and shared-skew"
	serveLat   = "server.serve_tps, server.serve_p99_ms (serve-shared scenario)"
	shardServe = "shard.serve_p99_ms (serve-count scenario)"
	durable    = "wal.durable_tps (durable-timed scenario)"
	trickle    = "cluster.trickle_p99_ms (route-trickle scenario)"
	both       = "shared-count, shared-skew"
	noJoin     = "serve-count, durable-timed, route-trickle scenarios"
)

var perLayer = []metricDef{
	// core: pimtree.Index, timed on the ladder's index rung.
	{"core.index_tps", "tuples/s", "higher", 0, sharedTPS, "route-trickle scenario"},
	{"core.insert_ns", "ns", "lower", 0, sharedTPS, "route-trickle scenario"},
	{"core.search_ns", "ns", "lower", 0, sharedTPS, "route-trickle scenario"},
	{"core.maintain_ms", "ms", "lower", 0, sharedTPS, "route-trickle scenario"},
	{"core.maintains_per_mtuple", "count", "lower", 0, sharedTPS, "route-trickle scenario"},
	{"core.bytes_per_tuple", "bytes", "lower", 0, "heap_inuse_mb on both", "none"},
	// join: serial and shared-index runtimes (ladder rungs), and spans on
	// the workloads' own runs.
	{"join.serial_tps", "tuples/s", "higher", 0, joinTPS, noJoin},
	{"join.serial_btree_tps", "tuples/s", "higher", 0, "none (base of join.pim_over_btree)", "all"},
	{"join.pim_over_btree", "ratio", "higher", 0, joinTPS, noJoin},
	{"join.shared_1t_tps", "tuples/s", "higher", 0, joinTPS, noJoin},
	{"join.shared_tps", "tuples/s", "higher", 0, joinTPS, noJoin},
	{"join.shared_speedup", "ratio", "higher", 0, "throughput_tps on shared-count", noJoin},
	{"join.push_busy_frac", "ratio", "lower", 0, joinTPS, noJoin},
	{"join.drain_ms", "ms", "lower", 0, joinTPS, noJoin},
	{"join.merge_ms_per_mtuple", "ms", "lower", 0, joinTPS, noJoin},
	{"join.served_push_us_p50", "us", "lower", 0, serveLat, both},
	{"join.served_push_us_p99", "us", "lower", 0, serveLat, both},
	// shard: Router, Member and timed store.
	{"shard.sharded_tps", "tuples/s", "higher", 0, shardServe, both},
	{"shard.over_serial", "ratio", "higher", 0, shardServe, both},
	{"shard.imbalance", "ratio", "lower", 0, durable + "; " + shardServe, both},
	{"shard.queue_hw", "count", "lower", 0, durable + "; " + shardServe, both},
	{"shard.push_busy_frac", "ratio", "lower", 0, durable, both},
	{"shard.serve_p99_ms", "ms", "lower", 0, "none (it is the serve-count scenario's own latency)", both},
	{"shard.engine_push_us_p50", "us", "lower", 0, shardServe, both},
	{"shard.engine_push_us_p99", "us", "lower", 0, shardServe, both},
	// ooo: reorder buffer (durable-timed scenario).
	{"ooo.late_dropped", "count", "lower", 0, "the failed count of any run", both},
	{"ooo.max_disorder_us", "us", "lower", 0, "none (input property; at most the slack)", both},
	// wal: write-ahead log (ladder rung; the durable-timed scenario).
	{"wal.tps", "tuples/s", "higher", 0, durable, both},
	{"wal.cost_ns_per_tuple", "ns", "lower", 0, durable, both},
	{"wal.durable_tps", "tuples/s", "higher", 0, "none (it is the scenario's own throughput)", both},
	{"wal.fsyncs_per_ktuple", "count", "lower", 0, durable, both},
	{"wal.bytes_per_tuple", "bytes", "lower", 0, durable, both},
	{"wal.snapshot_ms", "ms", "lower", 0, durable, both},
	{"wal.replay_records", "count", "lower", 0, "wal.recovery_s", both},
	{"wal.replay_ms", "ms", "lower", 0, "wal.recovery_s", both},
	{"wal.recovery_s", "s", "lower", 0, "none (reopen time of the durable-timed scenario)", both},
	// server: wire protocol, producer queue, fan-out.
	{"server.serve_tps", "tuples/s", "higher", 0, "none (it is the serve-shared scenario's own throughput)", both},
	{"server.serve_p99_ms", "ms", "lower", 0, "none (it is the serve-shared scenario's own latency)", both},
	{"server.wire_tps", "tuples/s", "higher", 0, serveLat + "; " + trickle, both},
	{"server.client_push_us_p50", "us", "lower", 0, serveLat, both},
	{"server.client_push_us_p99", "us", "lower", 0, serveLat, both},
	{"server.tuples_per_frame", "tuples", "higher", 0, serveLat, both},
	{"server.matches_dropped", "count", "lower", 0, "the failed count of the serve-shared scenario", both},
	{"server.protocol_errors", "count", "lower", 0, "the failed count of the serve-shared scenario", both},
	// cluster: Frontend router (ladder rung; the route-trickle scenario).
	{"cluster.route_tps", "tuples/s", "higher", 0, trickle, both},
	{"cluster.trickle_p99_ms", "ms", "lower", 0, "none (it is the scenario's own latency)", both},
	{"cluster.frontend_push_us_p50", "us", "lower", 0, trickle, both},
	{"cluster.frontend_push_us_p99", "us", "lower", 0, trickle, both},
	{"cluster.member_ops_per_tuple", "count", "lower", 0, trickle, both},
	{"cluster.node_imbalance", "ratio", "lower", 0, trickle, both},
	{"cluster.sheds", "count", "lower", 0, "the failed count of the route-trickle scenario", both},
	// pimtree: Engine facade GC counters over the workload's traced phase.
	{"pimtree.allocs_per_tuple", "count", "lower", 0, "cpu_us_per_tuple, match_latency_p99_ms on both", "none"},
	{"pimtree.gc_cycles_per_mtuple", "count", "lower", 0, "cpu_us_per_tuple, match_latency_p99_ms on both", "none"},
	{"pimtree.gc_pause_ms", "ms", "lower", 0, "cpu_us_per_tuple, match_latency_p99_ms on both", "none"},
	// load: the generator (not under test) and its serve-path diagnostic.
	{"load.send_lag_p50_ms", "ms", "lower", 0, "none (validity of the serve-count scenario's latencies)", "none"},
	{"load.send_lag_p99_ms", "ms", "lower", 0, "none (validity of the serve-count scenario's latencies)", "none"},
	{"load.latency_samples", "count", "higher", 0, "none (validity of match_latency_p99_ms)", "none"},
	{"load.untagged", "count", "lower", 0, "the failed count of the serve-shared scenario", both},
	{"load.p99_ms.1000", "ms", "lower", 0, "diagnostic: sharded serve path p99 at 1k/s", "none"},
	{"load.p99_ms.10000", "ms", "lower", 0, "diagnostic: sharded serve path p99 at 10k/s", "none"},
	{"load.p99_ms.60000", "ms", "lower", 0, "diagnostic: sharded serve path p99 at 60k/s", "none"},
	{"load.p99_ms.100000", "ms", "lower", 0, "diagnostic: sharded serve path p99 at 100k/s", "none"},
	{"load.capacity_tps", "tuples/s", "higher", 0, "diagnostic: highest sharded serve-path rate holding p99 <= 20 ms", "none"},
	// trace: tracing cost on the workload's own measured phase.
	{"trace.overhead_pct", "%", "lower", 0, "none (validity of the per-layer numbers)", "none"},
}

// Ladder rungs: the same shared-count input pushed through each layer in
// turn. Each rung reports ns per tuple and its difference from its base
// rung (the layer it adds to); its throughput is the layer metric named in
// tps, and its ladder metrics move with that one.
type rungDef struct {
	name, tps, base string
}

var rungs = []rungDef{
	{"index", "core.index_tps", ""},
	{"serial", "join.serial_tps", "index"},
	{"serial_btree", "join.serial_btree_tps", "index"},
	{"shared_1t", "join.shared_1t_tps", "serial"},
	{"shared", "join.shared_tps", "shared_1t"},
	{"sharded", "shard.sharded_tps", "shared"},
	{"sharded_wal", "wal.tps", "sharded"},
	{"wire", "server.wire_tps", "sharded"},
	{"route", "cluster.route_tps", "wire"},
}

func init() {
	for _, r := range rungs {
		d := lookupDef(r.tps)
		perLayer = append(perLayer,
			metricDef{"ladder." + r.name + ".ns_per_tuple", "ns", "lower", 0, d.moves, d.flat},
			metricDef{"ladder." + r.name + ".delta_ns", "ns", "lower", 0, d.moves, d.flat})
	}
}

// lookupDef returns the catalog entry of a metric; unknown names are a
// programming error.
func lookupDef(name string) metricDef {
	for _, d := range endToEnd {
		if d.name == name {
			return d
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d
		}
	}
	panic("perfbench: metric " + name + " is not in the catalog")
}

// benchmarkCommand and runSeconds are the benchmark's invocation contract,
// written to BENCHMARK.json.
var benchmarkCommand = []string{"python3", "perfbench/run.py"}

const runSeconds = 40

// writeCatalog prints the catalog as BENCHMARK.json ("json") or as the
// METRICS.md mapping of per-layer metrics ("md").
func writeCatalog(w io.Writer, kind string) error {
	switch kind {
	case "json":
		type wl struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}
		type e2e struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}
		type layer struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}
		doc := struct {
			Command    []string `json:"command"`
			Paths      []string `json:"paths"`
			RunSeconds int      `json:"run_seconds"`
			Workloads  []wl     `json:"workloads"`
			EndToEnd   []e2e    `json:"end_to_end"`
			PerLayer   []layer  `json:"per_layer"`
		}{Command: benchmarkCommand, Paths: []string{"perfbench"}, RunSeconds: runSeconds}
		for _, d := range workloadDefs {
			doc.Workloads = append(doc.Workloads, wl{d.name, d.why})
		}
		for _, d := range endToEnd {
			doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
		}
		for _, d := range perLayer {
			doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(doc); err != nil {
			return err
		}
		_, err := w.Write(buf.Bytes())
		return err
	case "md":
		var b strings.Builder
		b.WriteString("# Benchmark metrics\n\nGenerated by `go run . -catalog md`; do not edit.\n\n" +
			"Run from the repository root: `python3 perfbench/run.py --workload <name> --seed <n> --seconds " + fmt.Sprint(runSeconds) + " --trace 0|1`. " +
			"It builds this module against the checkout and prints `#` lines (provenance, per-interval figures, span summaries, " +
			"ladder, paper claims, sweep) and, last, one JSON object with `correct`, `attempted`, `failed` and `metrics`. " +
			"Each timing is the median over the run's rounds, seconds or latency windows, leaving out the intervals " +
			"that suffered more hypervisor steal than the median one (the unfiltered medians are logged beside it). Spans of a traced run are written to " +
			"`.bench_build/perfbench-work/trace-<workload>-<tracer>.jsonl`.\n\n")
		b.WriteString("## Workloads\n\n| name | why |\n|---|---|\n")
		for _, d := range workloadDefs {
			fmt.Fprintf(&b, "| `%s` | %s |\n", d.name, d.why)
		}
		b.WriteString("\n## Traced scenarios\n\nRun inside every traced run for their layer metrics; not gated.\n\n| name | why |\n|---|---|\n")
		for _, d := range scenarioDefs {
			fmt.Fprintf(&b, "| `%s` | %s |\n", d.name, d.why)
		}
		b.WriteString("\n## End-to-end metrics\n\nEvery workload prints all of them (`-trace 0`).\n\n| name | unit | better | bound |\n|---|---|---|---|\n")
		for _, d := range endToEnd {
			fmt.Fprintf(&b, "| `%s` | %s | %s | %.2f |\n", d.name, d.unit, d.better, d.bound)
		}
		b.WriteString("\n## Per-layer metrics\n\nPrinted by the traced run (`-trace 1`). \"Should move\" names the end-to-end metric and workload a change in the layer metric should move; \"flat on\" the workloads that bypass the layer, where the prediction is no change (a bypassed layer prints 0).\n\n| name | unit | better | should move | flat on |\n|---|---|---|---|---|\n")
		for _, d := range perLayer {
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", d.name, d.unit, d.better, d.moves, d.flat)
		}
		_, err := io.WriteString(w, b.String())
		return err
	}
	return fmt.Errorf("unknown catalog format %q (json|md)", kind)
}
