package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
)

// Sink receives the frames an Aggregator accepts. One Sink serves every
// connection; implementations must be safe for concurrent use (the
// aggregator serves each connection on its own goroutine). The
// report-level sink lives in internal/core — this package only moves
// frames.
//
// Any error returned from Hello or a frame method is fatal for that
// connection: the aggregator sends the shipper an ERR frame carrying
// the message and closes. The shipper's unacked frames survive on its
// side and arrive again on the next connection (or never, if the error
// is a schema mismatch and the shipper gives up — which is the point).
type Sink interface {
	// Hello validates a new session for site. Rejecting here (schema or
	// window-config mismatch) is the only safe failure point: nothing
	// from this connection has been applied yet.
	Hello(site string, h Hello) error
	// Delta delivers one window's encoded snapshot delta. Duplicate
	// (site, window, seq) triples MUST be idempotent — delivery is
	// at-least-once. payload is the caller's: a sink that keeps the bytes
	// keeps its own copy.
	Delta(site string, window int, seq uint64, watermark int64, payload []byte) error
	// Lost records that site permanently dropped window from its queue.
	Lost(site string, window int, seq uint64) error
	// Heartbeat advances site's liveness watermark (unix nanoseconds).
	Heartbeat(site string, watermark int64)
	// Fin declares site complete: every window ≤ maxWindow was shipped
	// or declared lost.
	Fin(site string, maxWindow int, seq uint64, watermark int64) error
	// Disconnect reports that site's connection ended (cleanly or not);
	// liveness tracking uses it to start the staleness clock.
	Disconnect(site string)
}

// Aggregator accepts shipper connections and feeds their frames to a
// Sink, acknowledging each processed frame by sequence number. It is
// transport only: dedup, merging, and liveness live behind the Sink.
type Aggregator struct {
	ln   net.Listener
	sink Sink
	logf func(format string, args ...any)

	mu    sync.Mutex
	conns map[net.Conn]bool
	done  bool
	wg    sync.WaitGroup
}

// NewAggregator wraps an accept loop around ln. Call Serve to run it.
func NewAggregator(ln net.Listener, sink Sink, logf func(format string, args ...any)) *Aggregator {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Aggregator{ln: ln, sink: sink, logf: logf, conns: make(map[net.Conn]bool)}
}

// Serve accepts connections until Close. It always returns a non-nil
// error; after Close the error is net.ErrClosed.
func (a *Aggregator) Serve() error {
	for {
		c, err := a.ln.Accept()
		if err != nil {
			a.mu.Lock()
			done := a.done
			a.mu.Unlock()
			if done {
				return net.ErrClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			a.logf("fleet: accept: %v", err)
			continue
		}
		a.mu.Lock()
		if a.done {
			a.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		a.conns[c] = true
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			a.handle(c)
			a.mu.Lock()
			delete(a.conns, c)
			a.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for
// handlers to drain.
func (a *Aggregator) Close() error {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return nil
	}
	a.done = true
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	err := a.ln.Close()
	a.wg.Wait()
	return err
}

// wireBuffer is each end's buffer on a shipping connection: the
// shipper's writer, the aggregator's reader.
const wireBuffer = 64 << 10

// flushingReader reads a connection after flushing its writer: the acks
// for every frame read so far leave, in one write, before the reader
// goes back to the socket and may wait there.
type flushingReader struct {
	conn net.Conn
	bw   *bufio.Writer
}

func (r flushingReader) Read(p []byte) (int, error) {
	if err := r.bw.Flush(); err != nil {
		return 0, err
	}
	return r.conn.Read(p)
}

// handle runs one shipper session: HELLO first, then data frames, each
// acknowledged after the sink accepts it. An ACK waits in the writer
// until the reader needs the socket again; an ERR is flushed at once.
func (a *Aggregator) handle(c net.Conn) {
	defer c.Close()
	bw := bufio.NewWriter(c)
	br := bufio.NewReaderSize(flushingReader{c, bw}, wireBuffer)
	site := ""
	defer func() {
		if site != "" {
			a.sink.Disconnect(site)
		}
	}()

	reject := func(seq uint64, msg string) {
		b, err := EncodeFrame(&Frame{Type: FrameErr, Seq: seq, Payload: []byte(msg)})
		if err == nil {
			bw.Write(b)
			bw.Flush()
		}
	}
	ack := func(seq uint64) bool {
		b, err := EncodeFrame(&Frame{Type: FrameAck, Seq: seq})
		if err != nil {
			return false
		}
		_, err = bw.Write(b)
		return err == nil
	}

	first, err := ReadFrame(br)
	if err != nil {
		if !errors.Is(err, net.ErrClosed) {
			a.logf("fleet: session open: %v", err)
		}
		return
	}
	if first.Type != FrameHello {
		reject(first.Seq, fmt.Sprintf("expected HELLO, got %s", first.Type))
		return
	}
	if first.Site == "" {
		reject(first.Seq, "HELLO without a site name")
		return
	}
	var hello Hello
	if err := MergeFrom(&hello, first.Payload); err != nil {
		reject(first.Seq, fmt.Sprintf("bad HELLO payload: %v", err))
		return
	}
	if err := a.sink.Hello(first.Site, hello); err != nil {
		reject(first.Seq, err.Error())
		return
	}
	site = first.Site
	if !ack(first.Seq) {
		return
	}

	for {
		f, err := ReadFrame(br)
		if err != nil {
			// EOF or a torn frame: either way the connection is done and
			// the shipper owns redelivery of anything unacknowledged.
			return
		}
		if f.Site != site {
			reject(f.Seq, fmt.Sprintf("frame for site %q on session for %q", f.Site, site))
			return
		}
		switch f.Type {
		case FrameDelta:
			err = a.sink.Delta(site, f.Window, f.Seq, f.Watermark, f.Payload)
		case FrameLost:
			err = a.sink.Lost(site, f.Window, f.Seq)
		case FrameHeartbeat:
			a.sink.Heartbeat(site, f.Watermark)
		case FrameFin:
			err = a.sink.Fin(site, f.Window, f.Seq, f.Watermark)
		case FrameHello:
			err = fmt.Errorf("duplicate HELLO")
		default:
			err = fmt.Errorf("unexpected %s frame from shipper", f.Type)
		}
		if err != nil {
			a.logf("fleet: site %s: %v", site, err)
			reject(f.Seq, err.Error())
			return
		}
		if !ack(f.Seq) {
			return
		}
	}
}
