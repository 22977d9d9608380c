package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pimtree"
	"pimtree/internal/server"
)

// wireCredit bounds the tuples a wire client keeps in flight: pushed, but
// not yet seen propagated on its subscriber connection. It is twice
// ModeShared's default in-flight ring (QueueCapacity 8Ki), so the engine's
// queue stays full while credit returns over the wire.
const wireCredit = 2 * 8192

// wireClient is a closed-loop producer of a periodic feed over loopback
// TCP: one ingest connection that pushes only while fewer than wireCredit
// of its tuples are in flight, and one subscriber connection whose match
// frames return the credit (propagation is in arrival order, so a match of
// the tuple at position p means every position up to p has propagated).
// Match latency runs from a sampled tuple's push to the receipt of the
// frame carrying its first match.
type wireClient struct {
	ingest, sub *server.Client
	f           *feed
	tags        *tagger
	sent        int          // positions pushed
	done        atomic.Int64 // positions propagated, as the match frames show
	wake        chan struct{}

	// Reader state, read after the reader is parked (drain) or gone.
	received uint64 // matches received
	untagged uint64 // matches naming a stream the client never sent
	errs     uint64
	drained  chan struct{}
	exited   chan error
}

func dialWire(addr string, f *feed, tags *tagger) (*wireClient, error) {
	w := &wireClient{f: f, tags: tags, wake: make(chan struct{}, 1), drained: make(chan struct{}, 1), exited: make(chan error, 1)}
	var err error
	if w.sub, err = server.Dial(addr, server.DialOptions{Subscribe: true}); err != nil {
		return nil, fmt.Errorf("dial subscriber: %w", err)
	}
	if w.ingest, err = server.Dial(addr, server.DialOptions{}); err != nil {
		w.sub.Close()
		return nil, fmt.Errorf("dial ingest: %w", err)
	}
	go func() { w.exited <- w.read() }()
	return w, nil
}

// PushBatch sends the batch once the credit allows it.
func (w *wireClient) PushBatch(b []pimtree.Arrival) error {
	for w.sent+len(b)-int(w.done.Load()) > wireCredit {
		select {
		case <-w.wake:
		case err := <-w.exited:
			w.exited <- err
			return fmt.Errorf("subscriber: %w", err)
		case <-time.After(60 * time.Second):
			return errors.New("no credit returned in 60s")
		}
	}
	if err := w.ingest.PushBatch(b); err != nil {
		return err
	}
	w.sent += len(b)
	return nil
}

// Drain waits until every match of every pushed tuple has been received:
// the ingest connection's drain covers its own pushes, then the
// subscriber's drain acknowledgement is ordered after every match the
// engine propagated by then.
func (w *wireClient) Drain(context.Context) error {
	if _, err := w.ingest.DrainWait(); err != nil {
		return fmt.Errorf("ingest drain: %w", err)
	}
	if err := w.sub.Drain(); err != nil {
		return fmt.Errorf("subscriber drain: %w", err)
	}
	select {
	case <-w.drained:
		return nil
	case err := <-w.exited:
		w.exited <- err
		return fmt.Errorf("subscriber: %w", err)
	case <-time.After(60 * time.Second):
		return errors.New("subscriber drain timed out")
	}
}

// read consumes the subscriber's frames until the connection closes.
func (w *wireClient) read() error {
	for {
		ev, err := w.sub.ReadEvent()
		if err != nil {
			return err
		}
		switch ev.Type {
		case server.FrameMatch:
			at := int64(ev.At.Sub(epoch))
			last := -1
			for _, m := range ev.Matches {
				w.received++
				if m.ProbeStream > 1 {
					w.untagged++
					continue
				}
				w.tags.record(m, at)
				last = w.f.pos(uint8(m.ProbeStream), m.ProbeSeq)
			}
			if int64(last+1) > w.done.Load() {
				w.done.Store(int64(last + 1))
				select {
				case w.wake <- struct{}{}:
				default:
				}
			}
		case server.FrameDrained:
			w.drained <- struct{}{}
		case server.FrameError:
			w.errs++
			return fmt.Errorf("server error frame: %s", ev.Err)
		}
	}
}

func (w *wireClient) close() {
	w.ingest.Close()
	w.sub.Close()
	<-w.exited
}
