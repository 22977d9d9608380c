package main

import (
	"context"
	"fmt"
	"sort"

	"pimtree"
)

// The oracles are the serial reference joins every workload is checked
// against: ModeSerial for count windows, and for time windows the serial
// TimeJoin over the timestamp-sorted input (no reorder buffer involved).

// matchDigest folds a match multiset into an order-independent digest.
type matchDigest struct {
	n   uint64
	sum uint64
}

func (d *matchDigest) add(m pimtree.Match) {
	x := m.ProbeSeq*0x9E3779B97F4A7C15 ^ m.MatchSeq*0xC2B2AE3D27D4EB4F ^ uint64(m.ProbeStream)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	d.n++
	d.sum += x
}

// serialDigest joins the arrivals through a ModeSerial engine and returns
// the digest of its matches.
func serialDigest(arr []pimtree.Arrival, w int, diff uint32) (matchDigest, error) {
	var d matchDigest
	e, err := pimtree.Open(pimtree.Config{Mode: pimtree.ModeSerial, WindowR: w, WindowS: w, Diff: diff, OnMatch: d.add})
	if err != nil {
		return d, err
	}
	if err := e.PushBatch(arr); err != nil {
		return d, err
	}
	_, err = e.Close(context.Background())
	return d, err
}

// countPrefixes returns the serial match count of each prefix of the count
// feed ending at the given (ascending) positions.
func countPrefixes(f *feed, w int, diff uint32, ends []int) ([]uint64, error) {
	e, err := pimtree.Open(pimtree.Config{Mode: pimtree.ModeSerial, WindowR: w, WindowS: w, Diff: diff, DiscardMatches: true})
	if err != nil {
		return nil, err
	}
	defer e.Close(context.Background())
	buf := make([]pimtree.Arrival, 4096)
	out := make([]uint64, len(ends))
	p := 0
	for i, end := range ends {
		for p < end {
			b := buf[:min(len(buf), end-p)]
			f.copyInto(b, p)
			if err := e.PushBatch(b); err != nil {
				return nil, err
			}
			p += len(b)
		}
		out[i] = e.Stats().Matches
	}
	return out, nil
}

// timedPrefix returns the serial time-join match count of the timed feed's
// positions [0, end), joined in timestamp order.
func timedPrefix(f *feed, span uint64, diff uint32, end int) (uint64, error) {
	arr := make([]pimtree.Arrival, end)
	f.copyInto(arr, 0)
	sort.Slice(arr, func(i, j int) bool { return arr[i].TS < arr[j].TS })
	j, err := pimtree.NewTimeJoin(pimtree.TimeJoinOptions{Span: span, Diff: diff})
	if err != nil {
		return 0, err
	}
	for _, a := range arr {
		j.Push(a.Stream, a.Key, a.TS)
	}
	return j.Matches(), nil
}

// roundOracle gives the expected match count after the fill plus any number
// of whole measured rounds, all drained. Because the feed is periodic, the
// count grows by the same step every round after the first; the first round
// and the step come from two serial prefix runs.
type roundOracle struct {
	first, step uint64
}

func (o roundOracle) after(rounds int) uint64 {
	if rounds == 0 {
		panic("perfbench: roundOracle needs at least one round")
	}
	return o.first + uint64(rounds-1)*o.step
}

func newRoundOracle(f *feed, w int, span uint64, diff uint32) (roundOracle, error) {
	e1, e2 := f.fill+f.round(), f.fill+2*f.round()
	var a1, a2 uint64
	if span == 0 {
		a, err := countPrefixes(f, w, diff, []int{e1, e2})
		if err != nil {
			return roundOracle{}, err
		}
		a1, a2 = a[0], a[1]
	} else {
		var err error
		if a1, err = timedPrefix(f, span, diff, e1); err != nil {
			return roundOracle{}, err
		}
		if a2, err = timedPrefix(f, span, diff, e2); err != nil {
			return roundOracle{}, err
		}
	}
	if a2 < a1 {
		return roundOracle{}, fmt.Errorf("oracle prefix counts decrease: %d then %d", a1, a2)
	}
	return roundOracle{first: a1, step: a2 - a1}, nil
}
