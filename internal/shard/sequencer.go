package shard

import "pimtree/internal/stream"

// Sequencer is the global sequencing stage shared by the Router and the
// cluster Frontend: it owns the per-stream sequence heads and turns each
// admitted arrival into the window arithmetic its probe and insert carry.
// Producer only.
type Sequencer struct {
	heads [2]uint64 // per-store-slot global sequence counters
	wlen  [2]uint64 // count windows: window lengths per store slot
	self  bool
	span  uint64 // timed windows: window duration (0 selects count windows)
}

// Step is one sequenced arrival.
type Step struct {
	Own, Probed uint8  // store slots of the arrival's stream and of the window it probes
	Seq         uint64 // the arrival's global per-stream sequence
	TE, TL      uint64 // the probe's window: sequences below TL, and live from TE on
	WM          uint64 // the insert's eviction watermark
}

// NewSequencer returns a sequencer for count windows of lengths wr and ws,
// or — when span is positive — for time windows of that duration.
func NewSequencer(wr, ws int, self bool, span uint64) Sequencer {
	return Sequencer{wlen: [2]uint64{uint64(wr), uint64(ws)}, self: self, span: span}
}

// Slot folds a stream id onto its store slot.
func (q *Sequencer) Slot(s uint8) uint8 { return storeSlot(q.self, s) }

// storeSlot folds a stream id onto its store slot (self-joins use slot 0
// only).
func storeSlot(self bool, s uint8) uint8 {
	if self {
		return 0
	}
	return s
}

// Next sequences one arrival of stream s (ts is its event time; ignored for
// count windows). TL excludes tuples admitted after this one — including,
// for self-joins, the arrival itself. For count windows TE is the oldest
// sequence of the probed window and WM the oldest live sequence of the
// arrival's own window once it is inserted. For time windows both are the
// oldest live event time relative to ts (now - ts < span): admission order
// is timestamp order, so everything older than a span is globally expired.
func (q *Sequencer) Next(s uint8, ts uint64) Step {
	st := Step{Own: q.Slot(s), Probed: q.Slot(stream.Opposite(s))}
	st.TL = q.heads[st.Probed]
	st.Seq = q.heads[st.Own]
	q.heads[st.Own]++
	if q.span > 0 {
		if ts >= q.span {
			st.TE = ts - q.span + 1
		}
		st.WM = st.TE
		return st
	}
	if st.TL > q.wlen[st.Probed] {
		st.TE = st.TL - q.wlen[st.Probed]
	}
	st.WM = q.Frontier(st.Own)
	return st
}

// Frontier returns a count window's eviction frontier: the oldest sequence
// of store slot s still inside the window.
func (q *Sequencer) Frontier(s uint8) uint64 {
	if q.heads[s] > q.wlen[s] {
		return q.heads[s] - q.wlen[s]
	}
	return 0
}
