// Package join implements every join algorithm the paper evaluates:
//
//   - single-threaded nested-loop window join (NLWJ) and index-based window
//     join (IBWJ) over B+-Tree, chained index, Bw-Tree, IM-Tree, and
//     PIM-Tree (Section 2),
//   - multithreaded NLWJ and IBWJ based on round-robin window partitioning
//     in the shape of the low-latency handshake join (Section 2.2.3),
//   - the paper's contribution: the parallel IBWJ over shared indexes with
//     a task queue, edge tuples, order-preserving result propagation, and
//     non-blocking two-phase merging (Section 4).
//
// All drivers consume a pre-generated arrival sequence (deterministic per
// seed) and report throughput, match counts, and optional latency summaries,
// which is what the figure-regeneration harness consumes.
package join

import (
	"time"

	"pimtree/internal/metrics"
	"pimtree/internal/stream"
)

// Band is the band-join predicate |R.x - S.x| <= Diff of Section 5.
type Band struct {
	Diff uint32
}

// Range returns the key interval [lo, hi] matching key under the band
// predicate, saturating at the domain edges.
func (b Band) Range(key uint32) (lo, hi uint32) {
	lo = key - b.Diff
	if lo > key {
		lo = 0
	}
	hi = key + b.Diff
	if hi < key {
		hi = ^uint32(0)
	}
	return lo, hi
}

// Matches reports whether two keys satisfy the band predicate.
func (b Band) Matches(a, c uint32) bool {
	if a > c {
		a, c = c, a
	}
	return c-a <= b.Diff
}

// Stats summarizes one join run.
type Stats struct {
	Tuples    int
	Matches   uint64
	Elapsed   time.Duration
	Merges    int
	MergeTime time.Duration
	Latency   metrics.Summary
	Chunks    []ChunkStat // per-chunk throughput when requested (Fig 13b)
	// Rebalances and Migrated are filled by the adaptive sharded runtime:
	// completed rebalance epochs and window tuples moved across shards.
	Rebalances int
	Migrated   int
	// LateDropped and MaxDisorder are filled by runtimes with out-of-order
	// admission (the timed sharded router): late tuples not joined, and the
	// largest observed event-time lateness.
	LateDropped uint64
	MaxDisorder uint64
}

// Mtps returns the throughput in million tuples per second.
func (s Stats) Mtps() float64 { return metrics.Mtps(s.Tuples, s.Elapsed) }

// MatchSink receives one join result: the probing tuple's stream and
// sequence number plus the matched tuple's sequence number in the opposite
// window. A nil sink means results are only counted. Sinks on parallel
// drivers are invoked during ordered result propagation, so invocations for
// probe tuples follow arrival order.
type MatchSink func(probeStream uint8, probeSeq, matchSeq uint64)

// IndexKind selects the index structure for IBWJ drivers.
type IndexKind int

// The index structures evaluated across the figures.
const (
	IndexBTree IndexKind = iota
	IndexChainB
	IndexChainIB
	IndexBwTree
	IndexIMTree
	IndexPIMTree
)

// String names the index as in the figures.
func (k IndexKind) String() string {
	switch k {
	case IndexBTree:
		return "B+-Tree"
	case IndexChainB:
		return "B-chain"
	case IndexChainIB:
		return "IB-chain"
	case IndexBwTree:
		return "Bw-Tree"
	case IndexIMTree:
		return "IM-Tree"
	case IndexPIMTree:
		return "PIM-Tree"
	default:
		return "unknown"
	}
}

// opposite is stream.Opposite under the name the shared-index runtimes
// (shared.go, sharedtime.go) call it by.
func opposite(s uint8) uint8 { return stream.Opposite(s) }
