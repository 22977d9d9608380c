package cluster

import (
	"fmt"
	"time"

	"sync"
	"sync/atomic"

	"pimtree/internal/server"
	"pimtree/internal/shard"
)

// outstanding correlates one shipped probe op with its ring bucket. Entries
// enter a node's queue in ship order; the member answers probes in exactly
// that order (admission order is ship order, and propagation is ordered),
// so the reader pops the head for every decoded result group.
type outstanding struct {
	idx    uint64
	slot   int32
	bucket int32
}

// node is one cluster member as the frontend sees it: the transport, the
// pending op batch (producer-owned), the outstanding-probe queue (producer
// pushes, reader pops, death drains), liveness, and the last status
// heartbeat.
type node struct {
	fe   *Frontend
	addr string
	id   string
	pos  int // index in fe.nodes for the current membership epoch
	mc   *server.MemberClient

	pend []shard.Op // producer-goroutine only

	omu   sync.Mutex
	down  bool // set under omu before the death drain; gates new pushes
	outq  []outstanding
	ohead int
	outHW uint64

	alive    atomic.Bool
	leaving  atomic.Bool // expected shutdown: skip the degrade policy
	downOnce sync.Once
	downc    chan struct{} // closed once the node is declared down

	// ctrl carries export/import control events from the reader to the
	// membership goroutine during a handoff (never used outside one).
	ctrl       chan server.NodeEvent
	readerDone chan struct{}

	inserts atomic.Uint64
	probes  atomic.Uint64

	stMu     sync.Mutex
	status   server.NodeStatus
	statusAt time.Time
	lastSeen atomic.Int64 // unix nanos of the last frame from the node
}

func newNode(fe *Frontend, addr string, mc *server.MemberClient) *node {
	n := &node{
		fe: fe, addr: addr, id: mc.NodeID(), mc: mc,
		downc:      make(chan struct{}),
		ctrl:       make(chan server.NodeEvent, 16),
		readerDone: make(chan struct{}),
	}
	n.alive.Store(true)
	n.lastSeen.Store(time.Now().UnixNano())
	return n
}

// pushOutstanding registers a shipped probe op. It reports false once the
// node is down — the death drain has already completed every entry it will
// ever complete, so a late registration would strand its ring slot.
func (n *node) pushOutstanding(e outstanding) bool {
	n.omu.Lock()
	if n.down {
		n.omu.Unlock()
		return false
	}
	n.outq = append(n.outq, e)
	if depth := uint64(len(n.outq) - n.ohead); depth > n.outHW {
		n.outHW = depth
	}
	n.omu.Unlock()
	return true
}

// popOutstanding takes the oldest unanswered probe entry.
func (n *node) popOutstanding() (outstanding, bool) {
	n.omu.Lock()
	defer n.omu.Unlock()
	if n.ohead >= len(n.outq) {
		return outstanding{}, false
	}
	e := n.outq[n.ohead]
	n.ohead++
	switch {
	case n.ohead == len(n.outq):
		n.outq = n.outq[:0]
		n.ohead = 0
	case n.ohead >= 1024 && n.ohead*2 >= len(n.outq):
		c := copy(n.outq, n.outq[n.ohead:])
		n.outq = n.outq[:c]
		n.ohead = 0
	}
	return e, true
}

// outstandingLen reports the queue depth and its high-water mark.
func (n *node) outstandingLen() (depth int, hw uint64) {
	n.omu.Lock()
	defer n.omu.Unlock()
	return len(n.outq) - n.ohead, n.outHW
}

// snapshotStatus returns the last status heartbeat.
func (n *node) snapshotStatus() server.NodeStatus {
	n.stMu.Lock()
	defer n.stMu.Unlock()
	return n.status
}

// snapshotStatusAt returns the last status heartbeat and its arrival time
// (zero before the first).
func (n *node) snapshotStatusAt() (server.NodeStatus, time.Time) {
	n.stMu.Lock()
	defer n.stMu.Unlock()
	return n.status, n.statusAt
}

// reader owns the node's inbound half: results complete ring slots and feed
// the ordered merge; status frames refresh the health snapshot; handoff
// control frames forward to the membership goroutine. Any transport or
// correlation error declares the node down.
func (n *node) reader() {
	defer close(n.readerDone)
	for {
		ev, err := n.mc.ReadNodeEvent()
		if err != nil {
			n.fe.nodeDown(n, err)
			return
		}
		n.lastSeen.Store(time.Now().UnixNano())
		switch ev.Type {
		case server.FrameResults:
			for _, r := range ev.Results {
				e, ok := n.popOutstanding()
				if !ok || e.idx != r.Idx {
					n.fe.nodeDown(n, fmt.Errorf("result correlation lost (got idx %d)", r.Idx))
					return
				}
				// The decoded seqs are freshly allocated per group (see
				// decodeResults), so the bucket can retain them directly.
				n.fe.ring.Complete(int(e.slot), int(e.bucket), r.Seqs)
			}
			n.fe.ring.Propagate()
		case server.FrameNodeStatus:
			n.stMu.Lock()
			n.status = ev.Status
			n.statusAt = time.Now()
			n.stMu.Unlock()
		case server.FrameWindow, server.FrameExportDone, server.FrameImported:
			// Handoff control: hand to the membership goroutine. The downc
			// escape keeps the reader live if the node floods control frames
			// nobody asked for — the prober's staleness check will then
			// declare it down and release this send.
			select {
			case n.ctrl <- ev:
			case <-n.downc:
				return
			}
		case server.FrameError:
			n.fe.nodeDown(n, fmt.Errorf("node error: %s", ev.Err))
			return
		}
	}
}

// awaitCtrl waits for the next handoff control event, reporting false if
// the node died first.
func (n *node) awaitCtrl() (server.NodeEvent, bool) {
	select {
	case ev := <-n.ctrl:
		return ev, true
	case <-n.downc:
		return server.NodeEvent{}, false
	}
}

// nodeDown declares a node dead exactly once: mark it, close the transport,
// complete every probe entry it still owed (nilling the buckets so stale
// ring contents cannot leak into the merge), and apply the degrade policy.
// Safe from any goroutine — the reader, the prober, and send paths race to
// it freely.
func (fe *Frontend) nodeDown(n *node, cause error) {
	n.downOnce.Do(func() {
		n.alive.Store(false)
		close(n.downc)
		n.mc.Close()
		n.omu.Lock()
		n.down = true
		owed := append([]outstanding(nil), n.outq[n.ohead:]...)
		n.outq = nil
		n.ohead = 0
		n.omu.Unlock()
		for _, e := range owed {
			fe.ring.Complete(int(e.slot), int(e.bucket), nil)
		}
		if len(owed) > 0 {
			fe.sheds.Add(uint64(len(owed)))
		}
		fe.ring.Propagate()
		if n.leaving.Load() {
			fe.cfg.Logf("cluster: node %s (%s) left", n.id, n.addr)
			return
		}
		fe.cfg.Logf("cluster: node %s (%s) down: %v", n.id, n.addr, cause)
		if fe.cfg.Degrade == Fail {
			fe.fail(fmt.Errorf("cluster: node %s (%s) down: %w", n.id, n.addr, cause))
		}
	})
}

// prober is the health loop: every PingInterval it pings each live node (the
// member answers with a status heartbeat) and declares a node down after
// FailAfter consecutive failed pings or FailAfter intervals without any
// frame. Ping writes double as liveness probes — a broken transport fails
// fast here even when no ops are flowing.
func (fe *Frontend) prober() {
	defer close(fe.pingDone)
	t := time.NewTicker(fe.cfg.PingInterval)
	defer t.Stop()
	fails := make(map[*node]int)
	for {
		select {
		case <-fe.pingStop:
			return
		case <-t.C:
		}
		fe.setMu.RLock()
		nodes := append([]*node(nil), fe.nodes...)
		fe.setMu.RUnlock()
		for _, n := range nodes {
			if !n.alive.Load() {
				delete(fails, n)
				continue
			}
			if err := n.mc.Ping(); err != nil {
				fails[n]++
			} else {
				fails[n] = 0
			}
			if fails[n] >= fe.cfg.FailAfter {
				fe.nodeDown(n, fmt.Errorf("health probe: %d consecutive ping failures", fails[n]))
				delete(fails, n)
				continue
			}
			silent := time.Since(time.Unix(0, n.lastSeen.Load()))
			if silent > time.Duration(fe.cfg.FailAfter)*fe.cfg.PingInterval {
				fe.nodeDown(n, fmt.Errorf("health probe: no frames for %v", silent.Round(time.Millisecond)))
				delete(fails, n)
			}
		}
	}
}
