// Command perfbench is the repository benchmark. One run executes one
// named workload against the pimtree module's public APIs, checks every
// output against a serial oracle, and prints as its last line one JSON
// object: the end-to-end metrics, or with -trace 1 the per-layer metrics
// of a separate traced run (which also runs the layer ladder and the
// serve-path rate sweep). Lines before it, prefixed "#", record provenance,
// span summaries and diagnostics. It exits 1 when a check fails.
//
//	go run . -workload shared-count -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what a workload run gets: its arguments and where to write.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	primary bool   // false while a traced run measures another scenario
	workdir string // scratch space for WAL directories and the span file
	nproc   int
	log     *bufio.Writer // "#" lines on standard output
	tr      *tracer       // nil unless traced
	traces  *[]*tracer    // every tracer of a traced run, written out at the end
}

// traceAs returns a copy of the env whose spans go to a new tracer.
func (e *env) traceAs(label string) *env {
	sub := *e
	sub.tr = newTracer(label, 1<<17)
	*e.traces = append(*e.traces, sub.tr)
	return &sub
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, "# "+format+"\n", args...) }

// report collects one run's metrics and correctness accounting.
type report struct {
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// set records a catalog metric.
func (r *report) set(name string, v float64) {
	lookupDef(name)
	r.values[name] = v
}

// fail charges n failed operations with a reason.
func (r *report) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// expect charges |got - want| failures when the counts differ.
func (r *report) expect(what string, got, want uint64) {
	if got != want {
		d := int64(got - want)
		if got < want {
			d = int64(want - got)
		}
		r.fail(d, "%s: got %d, oracle %d", what, got, want)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/perfbench-work", "scratch directory (WAL files, span file)")
	catalog := fs.String("catalog", "", "print the metric catalog as json (BENCHMARK.json) or md (METRICS.md) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *catalog != "" {
		if err := writeCatalog(stdout, *catalog); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, primary: true, workdir: *workdir, nproc: runtime.GOMAXPROCS(0), log: out}
	if e.traced {
		e.tr = newTracer(*name, 1<<18)
		e.traces = &[]*tracer{e.tr}
	}
	e.logf("provenance %s", provenance(e, *name))
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	rep := newReport()
	for _, d := range defs {
		rep.values[d.name] = 0 // a layer the workload bypasses reports 0
	}
	start := time.Now()
	steal0, total0 := hostCPUTicks()
	err := w(e, rep)
	if err == nil && e.traced {
		err = runLayerScenarios(e, rep, *name)
	}
	if e.traced {
		for _, t := range *e.traces {
			t.printSummary(out)
			path := filepath.Join(*workdir, "trace-"+*name+"-"+t.label+".jsonl")
			if werr := t.writeFile(path); werr != nil {
				e.logf("span file: %v", werr)
			} else {
				e.logf("spans written to %s", path)
			}
		}
	}
	steal1, total1 := hostCPUTicks()
	if total1 > total0 {
		e.logf("host steal %.1f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	e.logf("elapsed %.1fs", time.Since(start).Seconds())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		rep.fail(1, "run aborted: %v", err)
	}
	metrics := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v := rep.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail(1, "metric %s is %v", d.name, v)
			v = 0
		}
		metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	for _, p := range rep.problems {
		e.logf("FAILED %s", p)
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	res := resultJSON{Correct: rep.failed == 0, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: metrics}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintf(out, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// runLayerScenarios completes a traced run: the scenarios that exercise the
// layers the benchmarked workloads bypass (the WAL, the reorder buffer and
// the cluster tier), each traced for scenarioSeconds; the layer ladder; and
// the serve-path rate sweep.
func runLayerScenarios(e *env, r *report, workload string) error {
	for _, sc := range scenarioDefs {
		if sc.name == workload {
			continue
		}
		sub := e.traceAs(sc.name)
		sub.primary = false
		sub.seconds = scenarioSeconds
		if err := workloads[sc.name](sub, r); err != nil {
			return fmt.Errorf("%s scenario: %w", sc.name, err)
		}
	}
	if err := runLadder(e.traceAs("ladder"), r); err != nil {
		return err
	}
	return runSweep(e, r)
}

// provenance records what the numbers ran on.
func provenance(e *env, workload string) string {
	p := map[string]any{
		"workload":   workload,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"traced":     e.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": e.nproc,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if r, ok := offeredRates[workload]; ok {
		p["offered_rate"] = r
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
