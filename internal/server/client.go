package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pimtree"
)

// DialOptions configures a Client.
type DialOptions struct {
	// Subscribe requests match egress: the server streams every match
	// propagated after the handshake to this connection.
	Subscribe bool
	// Timed declares timed ingest (arrivals carry event timestamps) —
	// required against a ModeShardedTime engine, rejected otherwise.
	Timed bool
	// Timeout bounds the dial and the handshake round-trip (default 10s).
	Timeout time.Duration
	// ReadTimeout, when positive, bounds each ReadEvent call: a frame that
	// does not arrive in time surfaces as a net timeout error. A timeout may
	// strike mid-frame, so the connection must be treated as broken after
	// one — reconnect rather than retry the read. Zero (the default) blocks
	// indefinitely, preserving the pre-timeout behavior for subscribers
	// that legitimately idle between matches.
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds each outbound frame write
	// (PushBatch, Drain). Zero blocks on TCP backpressure indefinitely.
	WriteTimeout time.Duration
	// MaxFrame bounds accepted inbound payloads and the client's own
	// outbound frame splitting (default DefaultMaxFrame). The protocol does
	// not negotiate it: set it no higher than the server's configured bound
	// (both default to DefaultMaxFrame).
	MaxFrame int
}

// Event is one server-to-client message surfaced by ReadEvent.
type Event struct {
	// Type is the frame type: FrameMatch, FrameDrained, or FrameError.
	Type byte
	// At is the local receive timestamp, captured as soon as the frame is
	// off the wire (before decoding) — the end-to-end latency tag the load
	// harness charges match latencies against.
	At time.Time
	// Matches holds the decoded records of a FrameMatch event.
	Matches []pimtree.Match
	// Err holds the server's message for a FrameError event.
	Err string
}

// Client is a minimal Go client for the wire protocol — the reference
// implementation the conformance tests, the loopback benchmark, and
// examples/serve drive. PushBatch/Drain/Close must be called from one
// goroutine; ReadEvent from one goroutine (the same or another).
type Client struct {
	nc   net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	wbuf []byte

	timed        bool
	maxFrame     int
	readTimeout  time.Duration
	writeTimeout time.Duration
}

// Dial connects, performs the Hello handshake, and returns the client.
// Equivalent to DialContext with the background context: the dial and the
// handshake are still bounded by o.Timeout, never indefinite.
func Dial(addr string, o DialOptions) (*Client, error) {
	return DialContext(context.Background(), addr, o)
}

// DialContext is Dial with cancellation: a ctx that expires or is canceled
// aborts the dial and the handshake (whichever is in flight) and surfaces
// the transport error. The ctx only governs connection establishment — it
// does not bound the returned client's lifetime (use ReadTimeout /
// WriteTimeout for per-call bounds).
func DialContext(ctx context.Context, addr string, o DialOptions) (*Client, error) {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	d := net.Dialer{Timeout: o.Timeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		nc: nc, br: bufio.NewReaderSize(nc, 1<<16), timed: o.Timed,
		maxFrame: o.MaxFrame, readTimeout: o.ReadTimeout, writeTimeout: o.WriteTimeout,
	}
	var flags byte
	if o.Subscribe {
		flags |= FlagSubscribe
	}
	if o.Timed {
		flags |= FlagTimed
	}
	// The handshake round-trip honors both the timeout and the ctx: a
	// cancellation mid-handshake forces the pending read/write to fail by
	// yanking the deadline into the past.
	nc.SetDeadline(time.Now().Add(o.Timeout))
	stop := context.AfterFunc(ctx, func() { nc.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	fail := func(err error) (*Client, error) {
		nc.Close()
		if ctx.Err() != nil {
			return nil, fmt.Errorf("server handshake: %w", ctx.Err())
		}
		return nil, fmt.Errorf("server handshake: %w", err)
	}
	if err := writeFrame(nc, FrameHello, encodeHello(ProtocolVersion, flags)); err != nil {
		return fail(err)
	}
	typ, payload, err := readFrame(c.br, c.maxFrame)
	if err != nil {
		return fail(err)
	}
	switch typ {
	case FrameHello:
		if _, _, err := decodeHello(payload); err != nil {
			return fail(err)
		}
	case FrameError:
		nc.Close()
		return nil, fmt.Errorf("server rejected connection: %s", payload)
	default:
		return fail(fmt.Errorf("unexpected %s frame", frameName(typ)))
	}
	if !stop() {
		// The cancellation fired between the successful read and here; the
		// deadline may already be poisoned. Treat as canceled.
		nc.Close()
		return nil, fmt.Errorf("server handshake: %w", ctx.Err())
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

// PushBatch sends one ingest frame carrying the batch. On a timed
// connection the arrivals' TS fields carry the event timestamps. Batches
// larger than the frame bound are split transparently.
func (c *Client) PushBatch(batch []pimtree.Arrival) error {
	if len(batch) == 0 {
		return nil
	}
	rec := recCount
	if c.timed {
		rec = recTimed
	}
	// At least one record per frame even under an absurdly small MaxFrame:
	// the server then rejects the frame cleanly instead of this loop
	// spinning forever at perFrame == 0.
	perFrame := max(c.maxFrame/rec, 1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.armWrite()
	for lo := 0; lo < len(batch); lo += perFrame {
		hi := min(lo+perFrame, len(batch))
		buf := c.wbuf[:0]
		for _, a := range batch[lo:hi] {
			buf = appendArrival(buf, a, c.timed)
		}
		c.wbuf = buf
		if err := writeFrame(c.nc, FrameIngest, buf); err != nil {
			return err
		}
	}
	return nil
}

// Drain asks the server to drain the engine to a quiescent point. The
// acknowledgement arrives as a FrameDrained event from ReadEvent, ordered
// after every match the drain covers (on a subscribing connection).
func (c *Client) Drain() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.armWrite()
	return writeFrame(c.nc, FrameDrain, nil)
}

// armWrite applies the per-call write deadline (w-lock held).
func (c *Client) armWrite() {
	if c.writeTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
}

// armRead applies the per-call read deadline.
func (c *Client) armRead() {
	if c.readTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.readTimeout))
	}
}

// ReadEvent reads the next server-to-client frame: a match batch, a drain
// acknowledgement, or a server error. io.EOF means the server closed the
// stream (e.g. after a graceful shutdown flushed the remaining matches).
func (c *Client) ReadEvent() (Event, error) {
	c.armRead()
	typ, payload, err := readFrame(c.br, c.maxFrame)
	if err != nil {
		return Event{}, err
	}
	at := time.Now()
	switch typ {
	case FrameMatch:
		ms, err := decodeMatches(payload)
		if err != nil {
			return Event{}, err
		}
		return Event{Type: FrameMatch, At: at, Matches: ms}, nil
	case FrameDrained:
		return Event{Type: FrameDrained, At: at}, nil
	case FrameError:
		return Event{Type: FrameError, At: at, Err: string(payload)}, nil
	default:
		return Event{}, fmt.Errorf("unexpected %s frame from server", frameName(typ))
	}
}

// DrainWait sends a drain request and consumes events until the
// acknowledgement, returning every match seen on the way (subscribing
// connections) — the synchronous convenience the tests and benchmark use.
// A server error surfaces as an error.
func (c *Client) DrainWait() ([]pimtree.Match, error) {
	if err := c.Drain(); err != nil {
		return nil, err
	}
	var out []pimtree.Match
	for {
		ev, err := c.ReadEvent()
		if err != nil {
			return out, err
		}
		switch ev.Type {
		case FrameMatch:
			out = append(out, ev.Matches...)
		case FrameDrained:
			return out, nil
		case FrameError:
			return out, errors.New(ev.Err)
		}
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }
