// Package stream generates the synthetic workloads of Section 5: streams of
// band-join tuples whose join attributes follow uniform, Gaussian, Gamma, or
// shifting-Gaussian distributions, interleaved across two streams R and S
// with configurable (possibly asymmetric) rates.
//
// All generators are deterministic given a seed, which lets the tests compare
// parallel join output against a single-threaded oracle on identical input.
package stream

import (
	"math"
	"math/rand"
	"sort"
)

// KeySpace is the default join-attribute domain. Distribution values in
// [0, 2) map linearly onto it, so a shifting Gaussian with mean up to 1.5
// (Figure 13, r = 1) stays inside the uint32 domain.
const KeySpace = uint32(1) << 31

// scale maps a distribution value in [0, 2) to a key.
func scale(v float64) uint32 {
	if v < 0 {
		v = 0
	}
	if v >= 2 {
		v = math.Nextafter(2, 0)
	}
	return uint32(v * float64(KeySpace))
}

// KeyGen produces a stream of join-attribute values.
type KeyGen interface {
	Next() uint32
}

// Uniform draws keys uniformly from [0, KeySpace) — the default workload of
// every experiment unless a figure says otherwise.
type Uniform struct {
	rng *rand.Rand
}

// NewUniform returns a seeded uniform generator.
func NewUniform(seed int64) *Uniform {
	return &Uniform{rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next key.
func (u *Uniform) Next() uint32 { return u.rng.Uint32() % KeySpace }

// Gaussian draws keys from N(mu, sigma) over the unit interval, scaled to the
// key space. The paper's skew experiment uses mu=0.5, sigma=0.125
// (Figure 12b).
type Gaussian struct {
	rng       *rand.Rand
	mu, sigma float64
}

// NewGaussian returns a seeded Gaussian generator.
func NewGaussian(seed int64, mu, sigma float64) *Gaussian {
	return &Gaussian{rng: rand.New(rand.NewSource(seed)), mu: mu, sigma: sigma}
}

// Next returns the next key.
func (g *Gaussian) Next() uint32 {
	return scale(g.rng.NormFloat64()*g.sigma + g.mu)
}

// Gamma draws keys from a Gamma(k, theta) distribution normalized so that the
// bulk of the mass covers the unit interval (values are divided by
// k*theta + 8*sqrt(k)*theta, far beyond the tail). Figure 12b uses
// Gamma(3, 3) and Gamma(1, 5).
type Gamma struct {
	rng      *rand.Rand
	k, theta float64
	norm     float64
}

// NewGamma returns a seeded Gamma generator.
func NewGamma(seed int64, k, theta float64) *Gamma {
	if k <= 0 || theta <= 0 {
		panic("stream: gamma parameters must be positive")
	}
	return &Gamma{
		rng:   rand.New(rand.NewSource(seed)),
		k:     k,
		theta: theta,
		norm:  k*theta + 8*math.Sqrt(k)*theta,
	}
}

// Next returns the next key.
func (g *Gamma) Next() uint32 {
	return scale(g.sample() / g.norm)
}

// sample draws Gamma(k, theta) via Marsaglia–Tsang (squeeze method), the
// standard approach when the standard library offers no Gamma variates.
func (g *Gamma) sample() float64 {
	k := g.k
	boost := 1.0
	if k < 1 {
		// Gamma(k) = Gamma(k+1) * U^(1/k)
		boost = math.Pow(g.rng.Float64(), 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1.0 / math.Sqrt(9.0*d)
	for {
		x := g.rng.NormFloat64()
		v := 1.0 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.rng.Float64()
		if u < 1.0-0.0331*x*x*x*x {
			return boost * d * v * g.theta
		}
		if math.Log(u) < 0.5*x*x+d*(1.0-v+math.Log(v)) {
			return boost * d * v * g.theta
		}
	}
}

// ShiftingGaussian reproduces the three-phase drifting workload of
// Figure 13: a fixed N(0.5, 0.125) phase, a linear drift of the mean from
// 0.5 to 0.5+R over the middle phase, and a fixed N(0.5+R, 0.125) phase.
type ShiftingGaussian struct {
	rng     *rand.Rand
	sigma   float64
	r       float64
	p1, p2  int // lengths of phase 1 and phase 2
	emitted int
}

// NewShiftingGaussian returns a seeded drifting generator; r is the paper's
// shift-speed constant (0 = stationary), p1 and p2 the lengths of the first
// two phases in tuples (the third phase is unbounded).
func NewShiftingGaussian(seed int64, r float64, p1, p2 int) *ShiftingGaussian {
	if p2 <= 0 {
		p2 = 1
	}
	return &ShiftingGaussian{
		rng:   rand.New(rand.NewSource(seed)),
		sigma: 0.125,
		r:     r,
		p1:    p1,
		p2:    p2,
	}
}

// Mean returns the current phase-dependent mean.
func (s *ShiftingGaussian) Mean() float64 {
	switch {
	case s.emitted < s.p1:
		return 0.5
	case s.emitted < s.p1+s.p2:
		return 0.5 + s.r*float64(s.emitted-s.p1)/float64(s.p2)
	default:
		return 0.5 + s.r
	}
}

// Next returns the next key and advances the drift clock.
func (s *ShiftingGaussian) Next() uint32 {
	v := s.rng.NormFloat64()*s.sigma + s.Mean()
	s.emitted++
	return scale(v)
}

// StepSkew draws keys uniformly from a narrow hot band whose location jumps
// to a fresh position every period tuples. It is the adversarial workload for
// static key-range sharding: at any instant nearly all tuples land in the
// shards owning the current band, and every step invalidates boundaries
// learned from earlier traffic — the scenario adaptive rebalancing exists
// for. width is the band width as a fraction of the unit key interval.
type StepSkew struct {
	rng     *rand.Rand // in-band position
	jumps   *rand.Rand // band-center sequence
	width   float64
	period  int
	emitted int
	center  float64
}

// NewStepSkew returns a seeded step-skew generator (width in (0, 1], period
// in tuples; period <= 0 means the band never moves).
func NewStepSkew(seed int64, width float64, period int) *StepSkew {
	if width <= 0 || width > 1 {
		panic("stream: step-skew width must be in (0, 1]")
	}
	return &StepSkew{
		rng:    rand.New(rand.NewSource(seed)),
		jumps:  rand.New(rand.NewSource(seed ^ 0x5ca1ab1e)),
		width:  width,
		period: period,
	}
}

// Next returns the next key, jumping the hot band on period boundaries.
func (s *StepSkew) Next() uint32 {
	if s.emitted == 0 || (s.period > 0 && s.emitted%s.period == 0) {
		s.center = s.jumps.Float64() * (1 - s.width)
	}
	s.emitted++
	return scale(s.center + s.rng.Float64()*s.width)
}

// DriftingHotspot sweeps a narrow uniform band linearly across the unit key
// interval, wrapping around: a continuously moving hotspot, the smooth
// counterpart of StepSkew. period is the number of tuples per full sweep.
type DriftingHotspot struct {
	rng     *rand.Rand
	width   float64
	period  int
	emitted int
}

// NewDriftingHotspot returns a seeded drifting-hotspot generator.
func NewDriftingHotspot(seed int64, width float64, period int) *DriftingHotspot {
	if width <= 0 || width > 1 {
		panic("stream: hotspot width must be in (0, 1]")
	}
	if period <= 0 {
		period = 1
	}
	return &DriftingHotspot{
		rng:    rand.New(rand.NewSource(seed)),
		width:  width,
		period: period,
	}
}

// Next returns the next key and advances the hotspot.
func (h *DriftingHotspot) Next() uint32 {
	start := float64(h.emitted%h.period) / float64(h.period)
	h.emitted++
	v := start + h.rng.Float64()*h.width
	if v >= 1 {
		v -= 1 // wrap inside the unit interval
	}
	return scale(v)
}

// StreamR and StreamS tag the two input streams of a two-way join.
const (
	StreamR = uint8(0)
	StreamS = uint8(1)
)

// Opposite returns the other stream id of a two-way join.
func Opposite(s uint8) uint8 {
	if s == StreamR {
		return StreamS
	}
	return StreamR
}

// Arrival is one tuple arrival: which stream it belongs to and its join key.
type Arrival struct {
	Stream uint8
	Key    uint32
}

// Interleaver merges two key generators into a single arrival sequence. The
// probability that the next arrival belongs to S is pS (0.5 = the paper's
// symmetric default; Figure 11b sweeps 0..0.5).
type Interleaver struct {
	rng  *rand.Rand
	genR KeyGen
	genS KeyGen
	pS   float64
}

// NewInterleaver returns a seeded interleaver over the two generators.
func NewInterleaver(seed int64, genR, genS KeyGen, pS float64) *Interleaver {
	return &Interleaver{
		rng:  rand.New(rand.NewSource(seed)),
		genR: genR,
		genS: genS,
		pS:   pS,
	}
}

// Next returns the next arrival.
func (in *Interleaver) Next() Arrival {
	if in.rng.Float64() < in.pS {
		return Arrival{Stream: StreamS, Key: in.genS.Next()}
	}
	return Arrival{Stream: StreamR, Key: in.genR.Next()}
}

// Take materializes the next n arrivals.
func (in *Interleaver) Take(n int) []Arrival {
	out := make([]Arrival, n)
	for i := range out {
		out[i] = in.Next()
	}
	return out
}

// SelfStream wraps a single generator as a self-join arrival sequence (every
// tuple belongs to the one stream).
type SelfStream struct {
	gen KeyGen
}

// NewSelfStream returns a self-join arrival source.
func NewSelfStream(gen KeyGen) *SelfStream { return &SelfStream{gen: gen} }

// Next returns the next arrival (always StreamR).
func (s *SelfStream) Next() Arrival { return Arrival{Stream: StreamR, Key: s.gen.Next()} }

// Take materializes the next n arrivals.
func (s *SelfStream) Take(n int) []Arrival {
	out := make([]Arrival, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// ArrivalSource is anything producing arrivals (Interleaver, SelfStream).
type ArrivalSource interface {
	Next() Arrival
	Take(n int) []Arrival
}

// TimedArrival is one tuple arrival with an event timestamp, for the
// time-based joins.
type TimedArrival struct {
	Stream uint8
	Key    uint32
	TS     uint64
}

// Timestamp assigns sorted event times to an arrival sequence: consecutive
// gaps are drawn uniformly from [1, 2*meanGap-1] (strictly increasing, so
// any bounded-disorder shuffle of the result has a unique timestamp-sorted
// oracle). meanGap 0 is treated as 1 (consecutive integer timestamps).
func Timestamp(seed int64, arr []Arrival, meanGap uint64) []TimedArrival {
	if meanGap == 0 {
		meanGap = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]TimedArrival, len(arr))
	ts := uint64(0)
	for i, a := range arr {
		ts += 1 + uint64(rng.Int63n(int64(2*meanGap-1)))
		out[i] = TimedArrival{Stream: a.Stream, Key: a.Key, TS: ts}
	}
	return out
}

// ShuffleWithinSlack applies a bounded-disorder perturbation to a timed
// arrival sequence: each tuple is ranked by ts + U[0, slack] and the
// sequence is stably re-sorted by that rank. In the result, a tuple precedes
// another only if its event time exceeds the other's by at most slack, so
// the maximum observed lateness is bounded by slack — the workload the
// out-of-order ingestion layer is calibrated against. Slack 0 returns a
// copy. Slack must be below 2^62.
func ShuffleWithinSlack(seed int64, arr []TimedArrival, slack uint64) []TimedArrival {
	out := append([]TimedArrival(nil), arr...)
	if slack == 0 {
		return out
	}
	if slack >= 1<<62 {
		panic("stream: shuffle slack must be below 2^62")
	}
	rng := rand.New(rand.NewSource(seed))
	ranks := make([]uint64, len(out))
	idx := make([]int, len(out))
	for i := range out {
		ranks[i] = out[i].TS + uint64(rng.Int63n(int64(slack)+1))
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ranks[idx[a]] < ranks[idx[b]] })
	shuffled := make([]TimedArrival, len(out))
	for i, j := range idx {
		shuffled[i] = out[j]
	}
	return shuffled
}

// UniformDiff returns the band half-width `diff` that yields an expected
// match rate sigma_s against a window of w uniform keys:
// sigma_s = w * (2*diff+1) / KeySpace (Section 5's match-rate adjustment,
// closed form for the uniform case).
func UniformDiff(w int, sigmaS float64) uint32 {
	d := (sigmaS*float64(KeySpace)/float64(w) - 1) / 2
	if d < 0 {
		return 0
	}
	if d > float64(KeySpace) {
		return KeySpace
	}
	return uint32(d)
}

// CalibrateDiff empirically finds the band half-width that yields an expected
// match rate of sigmaS for an arbitrary key distribution, by sampling the
// generator and binary-searching diff against the empirical distribution.
// The paper performs the same adjustment ("the value of diff is adjusted
// according to the window length such that the match rate is always two").
func CalibrateDiff(newGen func(seed int64) KeyGen, w int, sigmaS float64) uint32 {
	const sampleN = 1 << 14
	const probeN = 1 << 11
	sample := make([]uint32, sampleN)
	g := newGen(0x5eed)
	for i := range sample {
		sample[i] = g.Next()
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	pg := newGen(0x9ebe)
	probes := make([]uint32, probeN)
	for i := range probes {
		probes[i] = pg.Next()
	}

	match := func(diff uint32) float64 {
		total := 0.0
		for _, x := range probes {
			lo := x - diff
			if lo > x { // underflow
				lo = 0
			}
			hi := x + diff
			if hi < x { // overflow
				hi = math.MaxUint32
			}
			i := sort.Search(sampleN, func(i int) bool { return sample[i] >= lo })
			j := sort.Search(sampleN, func(i int) bool { return sample[i] > hi })
			total += float64(j - i)
		}
		return total / float64(probeN) * float64(w) / float64(sampleN)
	}

	lo, hi := uint32(0), KeySpace
	for lo < hi {
		mid := lo + (hi-lo)/2
		if match(mid) < sigmaS {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
