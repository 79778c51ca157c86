package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"

	"enttrace/internal/faults"
)

// ShipperConfig configures a site's delta shipper.
type ShipperConfig struct {
	// Addr is the aggregator's TCP address (used by the default dialer).
	Addr string
	// Site names this shipper in every frame; required, unique per fleet.
	Site string
	// Hello is sent on every (re)connect; the aggregator validates it
	// before accepting frames.
	Hello Hello
	// Dial overrides the connection seam (tests use net.Pipe).
	Dial func() (net.Conn, error)
	// Clock drives retry timing (tests use a fake; default RealClock).
	Clock Clock
	// Backoff is the reconnect policy template. Backoff.MaxAttempts is
	// the give-up threshold: that many consecutive failed dials without
	// an intervening success abandons the queue (0 = retry forever).
	Backoff Backoff
	// QueueLimit bounds unacknowledged DELTA frames. When a new delta
	// would exceed it, the oldest unacknowledged delta is evicted, its
	// window recorded as lost, and a LOST control frame queued in its
	// place (control frames are exempt from the bound). Default 1024.
	QueueLimit int
	// NetFaults optionally injects wire faults on the send path. HELLO
	// bypasses it: a session's handshake is not injectable.
	NetFaults *faults.Wire
	// Logf receives connection lifecycle events (nil = silent).
	Logf func(format string, args ...any)
}

// ErrGaveUp is wrapped by the error Close returns when the reconnect
// budget was exhausted with frames still undelivered.
var ErrGaveUp = errors.New("fleet: shipper gave up reconnecting")

// errPeerFatal wraps an ERR frame from the aggregator (schema or config
// mismatch) — retrying cannot help, so the shipper stops immediately.
var errPeerFatal = errors.New("fleet: aggregator rejected session")

// ShipperStats counts delivery-path events, for telemetry.
type ShipperStats struct {
	Shipped    int64 // frames handed to the shipper
	Acked      int64 // frames acknowledged
	Reconnects int64 // successful connections after the first
	Resends    int64 // frames re-sent after a reconnect
	Evicted    int64 // deltas evicted by the queue bound
}

// Shipper streams a site's per-window snapshot deltas to an aggregator
// with at-least-once delivery: every tracked frame (DELTA, LOST, FIN)
// carries a monotonic per-site sequence number and stays in an unacked
// queue until the aggregator's cumulative ACK covers it; on reconnect,
// everything unacknowledged is resent in order. Duplicates are the
// aggregator's problem (it dedups by sequence), loss is the shipper's:
// only an explicit queue-bound eviction or reconnect give-up drops
// data, and both are recorded.
//
// All sends go through one internal goroutine. ShipDelta, Heartbeat and
// Fin are safe for concurrent use with each other (entanalyze ships from
// the analyzer's window callback, which runs on replay-worker
// goroutines, while a ticker goroutine heartbeats); frames enter the
// queue in the order their calls do. Call Fin then Close when the trace
// is done, once every other call has returned.
type Shipper struct {
	cfg  ShipperConfig
	in   chan *Frame
	msgs chan connMsg // ack/error events from the reader goroutine

	abortCh chan struct{} // Abort: exit now, abandon queue
	doneCh  chan struct{} // run loop exited

	mu        sync.Mutex
	lost      map[int]bool // windows dropped by eviction or give-up
	dead      error        // terminal failure, if any
	stats     ShipperStats
	abortOnce sync.Once
}

type connMsg struct {
	gen int
	seq uint64
	err error
}

// NewShipper starts a shipper. It connects lazily — the first frame
// triggers the first dial.
func NewShipper(cfg ShipperConfig) (*Shipper, error) {
	if cfg.Site == "" {
		return nil, fmt.Errorf("fleet: shipper requires a site name")
	}
	if len(cfg.Site) > MaxSiteLen {
		return nil, fmt.Errorf("fleet: site name %d bytes (max %d)", len(cfg.Site), MaxSiteLen)
	}
	if cfg.Dial == nil {
		addr := cfg.Addr
		if addr == "" {
			return nil, fmt.Errorf("fleet: shipper requires an address or Dial seam")
		}
		cfg.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Shipper{
		cfg:     cfg,
		in:      make(chan *Frame, 256),
		msgs:    make(chan connMsg, 256),
		abortCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
		lost:    make(map[int]bool),
	}
	go s.run()
	return s, nil
}

// ShipDelta queues one window's encoded snapshot delta. watermark is
// the site's packet-time high water in unix nanoseconds. Safe to call
// from any goroutine, concurrently with Heartbeat and Fin, but not with
// or after Close; deltas are sequenced in call order, so a caller that
// needs window order serializes its calls (core's OnWindow does).
func (s *Shipper) ShipDelta(window int, watermark int64, payload []byte) {
	s.submit(&Frame{Type: FrameDelta, Site: s.cfg.Site, Window: window, Watermark: watermark, Payload: payload})
}

// Heartbeat advances the site's liveness watermark without data. Best
// effort: dropped when disconnected (a heartbeat that needed a retry
// queue would be stale by the time it arrived).
func (s *Shipper) Heartbeat(watermark int64) {
	s.submit(&Frame{Type: FrameHeartbeat, Site: s.cfg.Site, Watermark: watermark})
}

// Fin declares the site complete: every window ≤ maxWindow has been
// shipped or reported lost. Tracked like a delta — it is resent until
// acknowledged.
func (s *Shipper) Fin(maxWindow int, watermark int64) {
	s.submit(&Frame{Type: FrameFin, Site: s.cfg.Site, Window: maxWindow, Watermark: watermark})
}

func (s *Shipper) submit(f *Frame) {
	select {
	case <-s.doneCh:
		// Run loop already exited (gave up or aborted); a tracked frame
		// submitted now is lost.
		if tracked(f) {
			s.noteLostFrame(f)
		}
	default:
		select {
		case s.in <- f:
			s.mu.Lock()
			s.stats.Shipped++
			s.mu.Unlock()
		case <-s.doneCh:
			if tracked(f) {
				s.noteLostFrame(f)
			}
		}
	}
}

// Close drains: it blocks until every tracked frame is acknowledged, or
// the reconnect budget is exhausted, or Abort is called. It returns nil
// only on a full drain; otherwise an error wrapping ErrGaveUp (or the
// peer's fatal rejection) with the lost windows.
func (s *Shipper) Close() error {
	close(s.in)
	<-s.doneCh
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return fmt.Errorf("%w (windows lost: %v)", s.dead, s.lostLocked())
	}
	return nil
}

// Abort abandons the queue immediately; queued windows are recorded
// lost. Safe to call concurrently with Close.
func (s *Shipper) Abort() {
	s.abortOnce.Do(func() { close(s.abortCh) })
	<-s.doneCh
}

// LostWindows returns the windows this shipper dropped (eviction or
// give-up), sorted.
func (s *Shipper) LostWindows() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lostLocked()
}

func (s *Shipper) lostLocked() []int {
	out := make([]int, 0, len(s.lost))
	for w := range s.lost {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Stats returns a snapshot of delivery counters.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Shipper) noteLostFrame(f *Frame) {
	if f.Type != FrameDelta {
		return
	}
	s.mu.Lock()
	s.lost[f.Window] = true
	s.mu.Unlock()
}

func tracked(f *Frame) bool {
	return f.Type == FrameDelta || f.Type == FrameLost || f.Type == FrameFin
}

// run is the single goroutine owning connection, queue, and sequencing.
func (s *Shipper) run() {
	defer close(s.doneCh)
	var (
		conn    net.Conn
		gen     int // connection generation, tags reader messages
		queue   []*Frame
		deltas  int    // DELTA frames in queue (the bounded population)
		nextSeq uint64 = 1
		backoff        = s.cfg.Backoff
		// in is nil once the producer has closed s.in. A closed channel is
		// always ready to receive, so selecting on it would spin for as
		// long as the queue takes to drain; a nil channel's case never
		// fires, and the draining loop sleeps until an ack, a connection
		// error or Abort wakes it.
		in = s.in
	)
	teardown := func() {
		if conn != nil {
			conn.Close()
			conn = nil
		}
		s.cfg.NetFaults.ConnReset()
	}
	defer teardown()

	die := func(err error) {
		s.mu.Lock()
		s.dead = err
		for _, f := range queue {
			if f.Type == FrameDelta {
				s.lost[f.Window] = true
			}
		}
		s.mu.Unlock()
		queue, deltas = nil, 0
	}

	// rawSend writes bytes to the current conn (the injector's seam).
	rawSend := func(b []byte) error {
		_, err := conn.Write(b)
		return err
	}
	// sendFrame pushes one frame to the conn, through the injector unless
	// it is the HELLO (a duplicated HELLO ends the session). Returns the
	// connection error, if any; the caller tears down.
	sendFrame := func(f *Frame) error {
		b, err := EncodeFrame(f)
		if err != nil {
			// Encoding is infallible for frames we build; treat as fatal.
			die(fmt.Errorf("fleet: encode %s frame: %w", f.Type, err))
			return nil
		}
		if f.Type == FrameHello {
			return rawSend(b)
		}
		return s.cfg.NetFaults.Send(b, rawSend)
	}

	// attempt makes one full connection attempt: dial, HELLO, resend the
	// unacked queue. Returns the count resent on success.
	attempt := func() (int, bool) {
		c, err := s.cfg.Dial()
		if err != nil {
			s.cfg.Logf("fleet[%s]: dial: %v", s.cfg.Site, err)
			return 0, false
		}
		conn = c
		gen++
		// HELLO is untracked (seq 0): it re-arrives on every connect.
		helloPayload, err := Marshal(&s.cfg.Hello)
		if err != nil {
			die(fmt.Errorf("fleet: encode hello: %w", err))
			return 0, false
		}
		if err := sendFrame(&Frame{Type: FrameHello, Site: s.cfg.Site, Payload: helloPayload}); err != nil {
			s.cfg.Logf("fleet[%s]: hello: %v", s.cfg.Site, err)
			teardown()
			return 0, false
		}
		// Resend everything unacknowledged, oldest first.
		for i, f := range queue {
			if err := sendFrame(f); err != nil {
				s.cfg.Logf("fleet[%s]: resend seq %d: %v", s.cfg.Site, f.Seq, err)
				teardown()
				return i, false
			}
		}
		return len(queue), true
	}

	// connect retries attempt with backoff until success, give-up, or
	// abort. On success the ack reader for the new connection starts.
	connect := func() bool {
		for {
			resent, ok := attempt()
			if ok {
				backoff.Reset()
				s.mu.Lock()
				if gen > 1 {
					s.stats.Reconnects++
					s.stats.Resends += int64(resent)
				}
				s.mu.Unlock()
				go s.readAcks(conn, gen)
				return true
			}
			if s.isDead() {
				return false
			}
			d, ok := backoff.Next()
			if !ok {
				die(fmt.Errorf("%w after %d attempts", ErrGaveUp, s.cfg.Backoff.MaxAttempts))
				return false
			}
			timer := s.cfg.Clock.After(d)
		wait:
			for {
				select {
				case <-timer:
					break wait
				case <-s.abortCh:
					die(fmt.Errorf("%w: aborted", ErrGaveUp))
					return false
				case <-s.msgs:
					// Stale reader message from a dead connection; drop it
					// and keep waiting.
				}
			}
		}
	}

	enqueue := func(f *Frame) {
		if !tracked(f) {
			// Untracked (heartbeat): best-effort send, never queued.
			if conn != nil {
				if err := sendFrame(f); err != nil {
					s.cfg.Logf("fleet[%s]: heartbeat: %v", s.cfg.Site, err)
					teardown()
				}
			}
			return
		}
		if f.Type == FrameDelta && deltas >= s.cfg.QueueLimit {
			// Evict the oldest unacked delta; a LOST control frame takes
			// over its delivery obligation.
			for i, q := range queue {
				if q.Type == FrameDelta {
					s.mu.Lock()
					s.lost[q.Window] = true
					s.stats.Evicted++
					s.mu.Unlock()
					lostF := &Frame{Type: FrameLost, Site: s.cfg.Site, Window: q.Window, Seq: nextSeq}
					nextSeq++
					queue[i] = lostF
					deltas--
					if conn != nil {
						if err := sendFrame(lostF); err != nil {
							teardown()
						}
					}
					break
				}
			}
		}
		f.Seq = nextSeq
		nextSeq++
		queue = append(queue, f)
		if f.Type == FrameDelta {
			deltas++
		}
		if conn == nil {
			if !connect() {
				return
			}
			// connect already resent the whole queue, f included.
			return
		}
		if err := sendFrame(f); err != nil {
			s.cfg.Logf("fleet[%s]: send seq %d: %v", s.cfg.Site, f.Seq, err)
			teardown()
			if !connect() {
				return
			}
		}
	}

	// prune removes the exact acknowledged frame. Acks are per-frame,
	// not cumulative: after a queue eviction replaces an old slot with a
	// newer LOST frame, the queue is no longer seq-sorted, and a
	// cumulative prune could drop a frame that was never processed.
	prune := func(seq uint64) {
		for i, f := range queue {
			if f.Seq != seq {
				continue
			}
			if f.Type == FrameDelta {
				deltas--
			}
			queue = append(queue[:i], queue[i+1:]...)
			s.mu.Lock()
			s.stats.Acked++
			s.mu.Unlock()
			return
		}
	}

	for {
		if s.isDead() {
			// Terminal: swallow producers until they close the channel so
			// submit never blocks, recording tracked frames as lost.
			if in == nil {
				return
			}
			select {
			case f, ok := <-in:
				if !ok {
					return
				}
				if tracked(f) {
					s.noteLostFrame(f)
				}
			case <-s.abortCh:
				return
			}
			continue
		}
		if in == nil {
			if len(queue) == 0 {
				return // drained: everything tracked is acknowledged
			}
			// Closing with residue: reconnect to flush it.
			if conn == nil && !connect() {
				continue
			}
			// No later send will release a frame a reorder holds, and
			// its ack may be what the queue waits for.
			if err := s.cfg.NetFaults.Flush(rawSend); err != nil {
				s.cfg.Logf("fleet[%s]: flush: %v", s.cfg.Site, err)
				teardown()
				continue
			}
		}
		select {
		case f, ok := <-in:
			if !ok {
				in = nil
				continue
			}
			enqueue(f)
		case m := <-s.msgs:
			if m.gen != gen {
				continue // stale reader from a torn-down connection
			}
			if m.err != nil {
				if errors.Is(m.err, errPeerFatal) {
					die(m.err)
					continue
				}
				s.cfg.Logf("fleet[%s]: conn: %v", s.cfg.Site, m.err)
				teardown()
				if len(queue) > 0 {
					connect()
				}
				continue
			}
			prune(m.seq)
		case <-s.abortCh:
			die(fmt.Errorf("%w: aborted", ErrGaveUp))
			if in == nil {
				return
			}
		}
	}
}

func (s *Shipper) isDead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead != nil
}

// readAcks is the per-connection reader goroutine: it forwards ACK
// sequence numbers and surfaces ERR frames and read failures, tagged
// with the connection generation so the run loop can ignore stale ones.
// It ends with its connection: on the first read error (run's teardown
// closes the conn), on anything but an ACK, or when the run loop is gone.
func (s *Shipper) readAcks(conn net.Conn, gen int) {
	br := bufio.NewReader(conn)
	for {
		m := connMsg{gen: gen}
		f, err := ReadFrame(br)
		switch {
		case err != nil:
			m.err = err
		case f.Type == FrameAck:
			m.seq = f.Seq
		case f.Type == FrameErr:
			m.err = fmt.Errorf("%w: %s", errPeerFatal, f.Payload)
		default:
			m.err = fmt.Errorf("fleet: unexpected %s frame from aggregator", f.Type)
		}
		select {
		case s.msgs <- m:
		case <-s.doneCh:
			// The run loop has returned and nobody receives: with msgs
			// full, a bare send would park this goroutine forever.
			return
		}
		if m.err != nil {
			return
		}
	}
}
