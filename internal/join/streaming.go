package join

import (
	"time"

	"pimtree/internal/kv"
	"pimtree/internal/stream"
	"pimtree/internal/window"
)

// Streaming is the incremental form of the single-threaded IBWJ: tuples are
// pushed one at a time and matches are reported synchronously, which is the
// shape a downstream stream-processing operator embeds (the public package
// pimtree wraps it). IBWJSerial runs the same engine over a pre-materialized
// arrival slice.
type Streaming struct {
	cfg   SerialConfig
	rings [2]*window.Ring
	idxs  [2]serialIndex

	// Probe state for the zero-allocation hot path: the per-push probe
	// parameters live in struct fields and the index callback is built once
	// here, so Push never materializes an escaping closure. (A closure
	// literal passed through the serialIndex interface is conservatively
	// heap-allocated on every call; a cached func value is not.)
	probeEmit   func([]kv.Pair) bool
	probeOpp    *window.Ring
	probeStream uint8
	probeSeq    uint64
	probeHits   int
}

// NewStreaming builds an incremental IBWJ engine from the serial config.
func NewStreaming(cfg SerialConfig) *Streaming {
	wr, ws := cfg.windows()
	s := &Streaming{cfg: cfg}
	s.rings[0] = window.NewRing(wr)
	s.idxs[0] = newSerialIndex(cfg.Index, wr, cfg)
	if cfg.Self {
		s.rings[1] = s.rings[0]
		s.idxs[1] = s.idxs[0]
	} else {
		s.rings[1] = window.NewRing(ws)
		s.idxs[1] = newSerialIndex(cfg.Index, ws, cfg)
	}
	s.probeEmit = s.emitPairs
	return s
}

// emitPairs consumes one contiguous candidate run from the probed index,
// resolving each entry against the opposite window. It is the single cached
// callback behind every Push probe (see the probe fields on Streaming).
func (s *Streaming) emitPairs(ps []kv.Pair) bool {
	for _, p := range ps {
		if _, seq, live := s.probeOpp.Resolve(p.Ref); live {
			s.probeHits++
			if s.cfg.Sink != nil {
				s.cfg.Sink(s.probeStream, s.probeSeq, seq)
			}
		}
	}
	return true
}

// Push processes one arrival through the three IBWJ steps and returns the
// number of matches it produced. The configured sink (if any) observes each
// match before Push returns, preserving arrival order.
func (s *Streaming) Push(a stream.Arrival) (matches int) {
	own, ownIdx := s.rings[a.Stream], s.idxs[a.Stream]
	oppID := stream.Opposite(a.Stream)
	if s.cfg.Self {
		oppID = a.Stream
	}
	opp, oppIdx := s.rings[oppID], s.idxs[oppID]
	lo, hi := s.cfg.Band.Range(a.Key)

	s.probeOpp = opp
	s.probeStream = a.Stream
	s.probeSeq = own.Head()
	s.probeHits = 0
	oppIdx.QueryPairs(lo, hi, s.probeEmit)
	matches = s.probeHits

	ref, _, expired, hasExpired := own.Append(a.Key)
	if hasExpired {
		ownIdx.Remove(expired)
	}
	ownIdx.Insert(kv.Pair{Key: a.Key, Ref: ref})
	ownIdx.Maintain(own)
	return matches
}

// Seq returns the next sequence number of the given stream's window (the
// sequence the next pushed tuple of that stream will take).
func (s *Streaming) Seq(streamID uint8) uint64 {
	if s.cfg.Self {
		streamID = 0
	}
	return s.rings[streamID].Head()
}

// KeyOf resolves a sequence number of a stream's window to its key, if the
// tuple is still resident.
func (s *Streaming) KeyOf(streamID uint8, seq uint64) (uint32, bool) {
	if s.cfg.Self {
		streamID = 0
	}
	r := s.rings[streamID]
	ref := uint32(seq & uint64(r.Capacity()-1))
	key, gotSeq := r.Get(ref)
	return key, gotSeq == seq
}

// Merges reports merge statistics accumulated by the indexes.
func (s *Streaming) Merges() (int, time.Duration) {
	m1, t1 := s.idxs[0].Merges()
	if s.cfg.Self {
		return m1, t1
	}
	m2, t2 := s.idxs[1].Merges()
	return m1 + m2, t1 + t2
}

// WindowCount returns the number of live tuples in a stream's window.
func (s *Streaming) WindowCount(streamID uint8) int {
	if s.cfg.Self {
		streamID = 0
	}
	return s.rings[streamID].Count()
}
