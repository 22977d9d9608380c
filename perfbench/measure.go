package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// epoch anchors every benchmark timestamp: nanotime is monotonic
// nanoseconds since process start.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// cpuNanos returns the process's user plus system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// liveHeapBytes collects garbage and returns the live heap, from
// runtime/metrics. The second collection frees what sync.Pools kept in
// their victim caches through the first, such as a closed session's
// buffers.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// hostCPUTicks reads the host's steal and total CPU ticks from /proc/stat
// (zeros where unavailable): a virtual machine's stolen time is the
// clearest sign that a run's wall-clock figures were disturbed from
// outside.
func hostCPUTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

// latSample is one latency observation: when the arrival was due (pushed,
// in a closed loop) and how long until its first match was observed, both
// in nanoseconds.
type latSample struct {
	due, lat int64
}

// latencyWindows returns the bounds of the whole windows of the given
// length in [from, to). Latency quantiles are taken per window, and the
// reported figure is the calm median over them (see calmMedian): the tail
// a typical window shows. A slowdown of the program itself shows in most
// windows. Windows are sized to hold at least 1000 samples, so each p99
// has ten samples beyond it.
func latencyWindows(from, to int64, window time.Duration) []int64 {
	bounds := []int64{from}
	for t := from + int64(window); t <= to; t += int64(window) {
		bounds = append(bounds, t)
	}
	return bounds
}

// stealProbe samples the virtual machine's cumulative stolen CPU ticks
// every stealEvery while a phase runs, so each measured interval can be
// charged the host interference it suffered.
type stealProbe struct {
	mu    sync.Mutex
	at    []int64
	steal []uint64
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

const stealEvery = 50 * time.Millisecond

func startStealProbe() *stealProbe {
	p := &stealProbe{stop: make(chan struct{}), done: make(chan struct{})}
	p.sample()
	go func() {
		defer close(p.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.sample()
			case <-p.stop:
				p.sample()
				return
			}
		}
	}()
	return p
}

func (p *stealProbe) sample() {
	s, _ := hostCPUTicks()
	now := nanotime()
	p.mu.Lock()
	p.at = append(p.at, now)
	p.steal = append(p.steal, s)
	p.mu.Unlock()
}

// finish stops the sampler and waits for it to exit; later calls return
// at once.
func (p *stealProbe) finish() {
	p.once.Do(func() {
		close(p.stop)
		<-p.done
	})
}

// perInterval returns the steal ticks charged to each interval
// [bounds[i], bounds[i+1]), from the samples nearest its ends.
func (p *stealProbe) perInterval(bounds []int64) []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	at := func(t int64) uint64 {
		i := sort.Search(len(p.at), func(i int) bool { return p.at[i] >= t })
		return p.steal[min(i, len(p.at)-1)]
	}
	out := make([]uint64, max(len(bounds)-1, 0))
	for i := range out {
		out[i] = at(bounds[i+1]) - at(bounds[i])
	}
	return out
}

// figures are a phase's reported values, each the calm median over the
// phase's intervals: rounds or seconds for throughput and CPU, latency
// windows for the quantiles.
type figures struct {
	tps, cpuUs, p50, p99 float64
}

// String prints the figures for a "#" line.
func (f figures) String() string {
	return fmt.Sprintf("tps=%.0f cpu_us=%.3f p50_ms=%.3f p99_ms=%.3f", f.tps, f.cpuUs, f.p50, f.p99)
}

// calmMedian is the median of xs over the intervals that suffered no more
// host steal than the median interval: a host that takes the CPUs away for
// part of a run moves it little, while a change in the program itself
// moves every interval. NaN entries (empty intervals) are skipped.
func calmMedian(xs []float64, steal []uint64) float64 {
	var ss []float64
	for i, x := range xs {
		if !math.IsNaN(x) {
			ss = append(ss, float64(steal[i]))
		}
	}
	limit := median(ss)
	var calm []float64
	for i, x := range xs {
		if !math.IsNaN(x) && float64(steal[i]) <= limit {
			calm = append(calm, x)
		}
	}
	return median(calm)
}

// plainMedian is the median of xs without the steal filter, NaN entries
// skipped; runs log it beside the calm median so the filter's effect shows.
func plainMedian(xs []float64) float64 {
	return calmMedian(xs, make([]uint64, len(xs)))
}

// sliceQuantiles buckets samples by due time into the intervals
// [bounds[i], bounds[i+1]) and returns each bucket's p50 and p99 latency in
// milliseconds (NaN for an empty bucket), the smallest bucket's sample
// count, and the number of samples bucketed.
func sliceQuantiles(samples []latSample, bounds []int64) (p50, p99 []float64, minCount, total int) {
	buckets := make([][]float64, len(bounds)-1)
	for _, s := range samples {
		i := searchBounds(bounds, s.due)
		if i >= 0 {
			buckets[i] = append(buckets[i], float64(s.lat)/1e6)
		}
	}
	for i, b := range buckets {
		if i == 0 || len(b) < minCount {
			minCount = len(b)
		}
		if len(b) == 0 {
			p50, p99 = append(p50, math.NaN()), append(p99, math.NaN())
			continue
		}
		p50 = append(p50, quantile(b, 0.5))
		p99 = append(p99, quantile(b, 0.99))
		total += len(b)
	}
	return p50, p99, minCount, total
}

// searchBounds returns i with bounds[i] <= t < bounds[i+1], or -1.
func searchBounds(bounds []int64, t int64) int {
	lo, hi := 0, len(bounds)-1
	if hi < 1 || t < bounds[0] || t >= bounds[hi] {
		return -1
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bounds[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the median of xs (mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
