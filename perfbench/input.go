package main

import (
	"fmt"
	"sort"

	"pimtree"
)

// feed is a periodic arrival stream: one generated block repeated forever,
// with event timestamps shifted by period on each repetition (timed feeds).
// Positions [0, fill) warm the windows up; measured round r covers positions
// [fill + r*len(block), fill + (r+1)*len(block)). Once the windows are full
// the join state at position p equals the state at p+len(block), so every
// round does the same work and the serial oracle only has to run the first
// two rounds (see roundOracle).
type feed struct {
	block  []pimtree.Arrival
	period uint64 // timestamp shift per repetition; 0 for count feeds
	fill   int
	// seqIn[q] is block position q's engine sequence number within its
	// stream and repetition: arrival order for count windows, event-time
	// rank for time windows (the time runtime numbers tuples as the
	// reorder buffer releases them). perBlock counts each stream's tuples
	// per repetition.
	seqIn    []uint32
	perBlock [2]uint64
	// posIn[s][q] is the block position of stream s's q-th tuple of a
	// repetition (count feeds only): seqIn inverted.
	posIn [2][]uint32
}

// round returns the number of positions in one measured round.
func (f *feed) round() int { return len(f.block) }

// at returns the arrival at stream position p.
func (f *feed) at(p int) pimtree.Arrival {
	k, q := p/len(f.block), p%len(f.block)
	a := f.block[q]
	a.TS += uint64(k) * f.period
	return a
}

// seq returns the engine sequence number of the arrival at position p.
func (f *feed) seq(p int) uint64 {
	k, q := p/len(f.block), p%len(f.block)
	return uint64(k)*f.perBlock[f.block[q].Stream&1] + uint64(f.seqIn[q])
}

// pos returns the stream position of the count-feed arrival that the
// engine numbers seq within stream s.
func (f *feed) pos(s uint8, seq uint64) int {
	k, q := seq/f.perBlock[s&1], seq%f.perBlock[s&1]
	return int(k)*len(f.block) + int(f.posIn[s&1][q])
}

// copyInto fills buf with the arrivals at positions [p, p+len(buf)).
func (f *feed) copyInto(buf []pimtree.Arrival, p int) {
	for i := range buf {
		buf[i] = f.at(p + i)
	}
}

// countFeed generates a two-way count-window feed, streams interleaved
// evenly, over the library's uniform keys — the traffic the repository's
// own producers send. The band half-width comes from the same generator's
// key domain (DiffForMatchRate) for an expected rate matches per arrival
// against a full window of w tuples.
func countFeed(seed int64, blockLen, fill, w int, rate float64) (*feed, uint32, error) {
	block := pimtree.Interleave(seed, pimtree.UniformSource(seed+1), pimtree.UniformSource(seed+2), 0.5, blockLen)
	f, err := newCountFeed(block, fill, w)
	return f, pimtree.DiffForMatchRate(w, rate), err
}

// gaussKeys is the paper's skewed key distribution: Gaussian with mean 0.5
// and sigma 0.125 of the key domain.
func gaussKeys(seed int64) pimtree.KeySource { return pimtree.GaussianSource(seed, 0.5, 0.125) }

// skewedCountFeed is countFeed over gaussKeys, with the band half-width
// calibrated on the same distribution for rate matches per arrival against
// a full window of w tuples.
func skewedCountFeed(seed int64, blockLen, fill, w int, rate float64) (*feed, uint32, error) {
	block := pimtree.Interleave(seed, gaussKeys(seed+1), gaussKeys(seed+2), 0.5, blockLen)
	f, err := newCountFeed(block, fill, w)
	return f, pimtree.CalibrateDiff(gaussKeys, w, rate), err
}

// newCountFeed numbers a count-window block's tuples per stream.
func newCountFeed(block []pimtree.Arrival, fill, w int) (*feed, error) {
	f := &feed{block: block, fill: fill, seqIn: make([]uint32, len(block))}
	for q := range block {
		s := block[q].Stream & 1
		f.seqIn[q] = uint32(f.perBlock[s])
		f.perBlock[s]++
		f.posIn[s] = append(f.posIn[s], uint32(q))
	}
	if err := f.checkCountLookback(w); err != nil {
		return nil, err
	}
	return f, nil
}

// checkCountLookback verifies the periodicity premise for count windows:
// every run of fill consecutive positions (cyclically) holds at least w
// tuples of each stream, so the windows at any measured position lie inside
// the fill positions before it — and the fill itself fills both windows.
func (f *feed) checkCountLookback(w int) error {
	n := len(f.block)
	if f.fill > n {
		return fmt.Errorf("fill %d exceeds the block length %d", f.fill, n)
	}
	var c [2]int
	for q := 0; q < f.fill; q++ {
		c[f.block[q].Stream&1]++
	}
	for start := 0; start < n; start++ {
		if c[0] < w || c[1] < w {
			return fmt.Errorf("positions [%d,%d) hold %d/%d tuples per stream, below the window %d", start, start+f.fill, c[0], c[1], w)
		}
		c[f.block[start].Stream&1]--
		c[f.block[(start+f.fill)%n].Stream&1]++
	}
	return nil
}

// timedFeed generates a two-way time-window feed: the library's Gaussian
// keys with the paper's shape (mean 0.5, sigma 0.125 of the key domain),
// timestamps with mean gap meanGap, shuffled so no tuple is later than
// slack behind the largest timestamp before it. The band half-width is
// calibrated on the same key distribution for an expected match rate of
// rate against the live tuples of a window.
func timedFeed(seed int64, blockLen, fill int, meanGap, span, slack uint64, rate float64) (*feed, uint32, error) {
	base := pimtree.Interleave(seed, gaussKeys(seed+1), gaussKeys(seed+2), 0.5, blockLen)
	sorted := pimtree.TimestampArrivals(seed+3, base, meanGap)
	shuffled := pimtree.ShuffleWithinSlack(seed+4, sorted, slack)
	last := sorted[len(sorted)-1].TS
	f := &feed{
		block:  make([]pimtree.Arrival, blockLen),
		period: last + meanGap,
		fill:   fill,
		seqIn:  make([]uint32, blockLen),
	}
	for q, a := range shuffled {
		f.block[q] = pimtree.Arrival{Stream: a.Stream, Key: a.Key, TS: a.TS}
	}
	// Event-time rank per stream: timestamps are distinct, so sorting the
	// block positions by timestamp numbers each stream's tuples exactly as
	// the runtime's watermark releases them.
	order := make([]int, blockLen)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return f.block[order[i]].TS < f.block[order[j]].TS })
	for _, q := range order {
		s := f.block[q].Stream & 1
		f.seqIn[q] = uint32(f.perBlock[s])
		f.perBlock[s]++
	}
	// Periodicity premise: a repetition outlasts a window plus the
	// disorder, and the fill spans one.
	fillSpan := f.block[fill].TS
	if f.period <= span+2*slack || fillSpan <= span+2*slack {
		return nil, 0, fmt.Errorf("timed block spans %d and fill %d, need more than span+2*slack = %d", f.period, fillSpan, span+2*slack)
	}
	live := int(span / (2 * meanGap)) // expected live tuples per stream window
	return f, pimtree.CalibrateDiff(gaussKeys, live, rate), nil
}

// liveAtEnd counts the tuples among the first n positions of a timed feed
// that a time window of span still holds after all of them: those within
// span of the largest timestamp.
func liveAtEnd(f *feed, n int, span uint64) int {
	var maxTS uint64
	for p := 0; p < n; p++ {
		maxTS = max(maxTS, f.at(p).TS)
	}
	live := 0
	for p := 0; p < n; p++ {
		if maxTS-f.at(p).TS < span {
			live++
		}
	}
	return live
}
