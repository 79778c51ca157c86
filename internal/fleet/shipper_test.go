package fleet

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enttrace/internal/faults"
)

// recordingSink captures every sink call, deduplicating deltas by
// (site, window, seq) the way the real fleet merger does.
type recordingSink struct {
	mu         sync.Mutex
	helloErr   error
	deltaErr   func(window int) error
	hellos     []Hello
	deltas     map[string]map[int][]byte // site → window → last payload
	seqs       map[string]map[uint64]int // site → seq → deliveries
	lost       map[string]map[int]bool
	fins       map[string]int
	marks      map[string]int64
	disc       int
	deliveries int64
}

func newRecordingSink() *recordingSink {
	return &recordingSink{
		deltas: map[string]map[int][]byte{},
		seqs:   map[string]map[uint64]int{},
		lost:   map[string]map[int]bool{},
		fins:   map[string]int{},
		marks:  map[string]int64{},
	}
}

func (r *recordingSink) Hello(site string, h Hello) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.helloErr != nil {
		return r.helloErr
	}
	r.hellos = append(r.hellos, h)
	return nil
}

func (r *recordingSink) Delta(site string, window int, seq uint64, mark int64, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deltaErr != nil {
		if err := r.deltaErr(window); err != nil {
			return err
		}
	}
	r.deliveries++
	if r.seqs[site] == nil {
		r.seqs[site] = map[uint64]int{}
		r.deltas[site] = map[int][]byte{}
	}
	r.seqs[site][seq]++
	if r.seqs[site][seq] == 1 { // idempotent apply
		r.deltas[site][window] = append([]byte(nil), payload...)
	}
	r.marks[site] = mark
	return nil
}

func (r *recordingSink) Lost(site string, window int, seq uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lost[site] == nil {
		r.lost[site] = map[int]bool{}
	}
	r.lost[site][window] = true
	return nil
}

func (r *recordingSink) Heartbeat(site string, mark int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.marks[site] = mark
}

func (r *recordingSink) Fin(site string, maxWindow int, seq uint64, mark int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fins[site] = maxWindow
	return nil
}

func (r *recordingSink) Disconnect(site string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.disc++
}

func (r *recordingSink) windows(site string) map[int][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int][]byte{}
	for w, p := range r.deltas[site] {
		out[w] = p
	}
	return out
}

// startAggregator serves a recording sink on a loopback listener.
func startAggregator(t *testing.T, sink Sink) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(ln, sink, t.Logf)
	done := make(chan struct{})
	go func() { agg.Serve(); close(done) }()
	return ln.Addr().String(), func() { agg.Close(); <-done }
}

// wire builds a wire injector from a spec, with stalls replayed
// instantly.
func wire(t *testing.T, spec string) *faults.Wire {
	t.Helper()
	s, err := faults.ParseSpec(spec, faults.Sends)
	if err != nil {
		t.Fatal(err)
	}
	w := faults.NewWire(s)
	w.SetSleep(func(time.Duration) {})
	return w
}

// fastBackoff keeps shipper tests quick without a fake clock: the run
// loop's waits are microseconds.
func fastBackoff(maxAttempts int) Backoff {
	return Backoff{Base: 100 * time.Microsecond, Max: time.Millisecond, MaxAttempts: maxAttempts, Rand: func() float64 { return 0 }}
}

func TestShipperCleanDelivery(t *testing.T) {
	sink := newRecordingSink()
	addr, stop := startAggregator(t, sink)
	defer stop()
	sh, err := NewShipper(ShipperConfig{
		Addr: addr, Site: "a",
		Hello:   Hello{Schema: 42, WindowNanos: int64(time.Minute), OriginNanos: 7},
		Backoff: fastBackoff(0),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 5; w++ {
		sh.ShipDelta(w, int64(w)*100, []byte{byte(w), byte(w)})
	}
	sh.Heartbeat(999)
	sh.Fin(4, 1000)
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := sink.windows("a")
	if len(got) != 5 {
		t.Fatalf("aggregator has %d windows, want 5: %v", len(got), got)
	}
	for w := 0; w < 5; w++ {
		if len(got[w]) != 2 || got[w][0] != byte(w) {
			t.Errorf("window %d payload %v", w, got[w])
		}
	}
	if sink.fins["a"] != 4 {
		t.Errorf("fin maxWindow %d, want 4", sink.fins["a"])
	}
	if len(sink.hellos) != 1 || sink.hellos[0].Schema != 42 {
		t.Errorf("hellos %v", sink.hellos)
	}
	if lw := sh.LostWindows(); len(lw) != 0 {
		t.Errorf("lost windows on clean run: %v", lw)
	}
}

// TestShipperRedeliversAfterDrops pins at-least-once delivery: injected
// connection drops must never lose a window — the shipper reconnects
// and resends everything unacknowledged.
func TestShipperRedeliversAfterDrops(t *testing.T) {
	sink := newRecordingSink()
	addr, stop := startAggregator(t, sink)
	defer stop()
	// Drop the connection at several send ordinals, including back to
	// back (the resend itself gets dropped once). Seven frames each sent
	// once plus three drops make ten sends at least, so all three fire.
	inj := wire(t, "drop@2,drop@3,drop@8")
	sh, err := NewShipper(ShipperConfig{
		Addr: addr, Site: "a",
		Backoff:   fastBackoff(0),
		NetFaults: inj,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 6; w++ {
		sh.ShipDelta(w, int64(w), []byte{byte(w)})
	}
	sh.Fin(5, 6)
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := sink.windows("a")
	for w := 0; w < 6; w++ {
		if len(got[w]) != 1 || got[w][0] != byte(w) {
			t.Fatalf("window %d missing or wrong after drops: %v", w, got)
		}
	}
	if sink.fins["a"] != 5 {
		t.Fatalf("fin lost: %v", sink.fins)
	}
	if st := sh.Stats(); st.Reconnects == 0 || st.Resends == 0 {
		t.Errorf("drops fired but no reconnects recorded: %+v", st)
	}
	if len(inj.Manifest()) != 3 {
		t.Errorf("injector fired %d events, want 3", len(inj.Manifest()))
	}
}

// TestShipperDupAndReorder pins that duplicated and reordered frames on
// the wire do not change what the sink ends up with.
func TestShipperDupAndReorder(t *testing.T) {
	sink := newRecordingSink()
	addr, stop := startAggregator(t, sink)
	defer stop()
	inj := wire(t, "dup@1,reorder@3")
	sh, err := NewShipper(ShipperConfig{
		Addr: addr, Site: "a", Backoff: fastBackoff(0), NetFaults: inj, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		sh.ShipDelta(w, int64(w), []byte{byte(w)})
	}
	sh.Fin(3, 4)
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := sink.windows("a")
	for w := 0; w < 4; w++ {
		if len(got[w]) != 1 || got[w][0] != byte(w) {
			t.Fatalf("window %d wrong under dup/reorder: %v", w, got)
		}
	}
	sink.mu.Lock()
	deliveries := sink.deliveries
	sink.mu.Unlock()
	if deliveries < 5 { // 4 windows + at least one duplicate
		t.Errorf("duplicate never reached the sink (%d deliveries)", deliveries)
	}
}

// shipUnder ships n deltas and a FIN under a wire spec and checks that
// Close returns within a deadline and that every window and the FIN
// arrived. On a missed deadline it aborts the shipper, so a hang fails
// the test instead of stalling it.
func shipUnder(t *testing.T, spec string, n int) {
	t.Helper()
	sink := newRecordingSink()
	addr, stop := startAggregator(t, sink)
	defer stop()
	inj := wire(t, spec)
	sh, err := NewShipper(ShipperConfig{
		Addr: addr, Site: "a", Backoff: fastBackoff(0), NetFaults: inj,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := range n {
		sh.ShipDelta(w, int64(w), []byte{byte(w)})
	}
	sh.Fin(n-1, int64(n))
	closed := make(chan error, 1)
	go func() { closed <- sh.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("%s: Close: %v", spec, err)
			return
		}
	case <-time.After(5 * time.Second):
		sh.Abort()
		<-closed
		t.Errorf("%s: Close had not returned after 5s (fired %v)", spec, inj.Manifest())
		return
	}
	got := sink.windows("a")
	for w := range n {
		if len(got[w]) != 1 || got[w][0] != byte(w) {
			t.Errorf("%s: window %d lost (fired %v)", spec, w, inj.Manifest())
			return
		}
	}
	sink.mu.Lock()
	fin, ok := sink.fins["a"]
	sink.mu.Unlock()
	if !ok || fin != n-1 {
		t.Errorf("%s: FIN lost (fired %v)", spec, inj.Manifest())
	}
}

// TestShipperSurvivesHeldFrames pins the wire schedules that once lost
// windows or hung Close: back-to-back reorders (the second hold used to
// overwrite the first), a reorder on the last tracked frame (nothing
// sent after it to release the hold), and an event at send 0 (it used
// to fall on the HELLO, and a duplicated HELLO ends the session).
func TestShipperSurvivesHeldFrames(t *testing.T) {
	for _, spec := range []string{
		"reorder@1,reorder@2",
		"reorder@1,reorder@1",
		"reorder@4",
		"reorder@3,reorder@4",
		"dup@0",
		"reorder@0,drop@1",
	} {
		shipUnder(t, spec, 4)
	}
}

// TestShipperLosesNothingUnderRandomWireSchedules is DESIGN's
// at-least-once claim over the injector's own random grammar: under
// every seeded wire schedule, Close returns and every window arrives.
func TestShipperLosesNothingUnderRandomWireSchedules(t *testing.T) {
	for seed := range 200 {
		shipUnder(t, fmt.Sprintf("netrand:%d:5:20", seed), 12)
	}
}

func TestShipperGivesUpAndRecordsLoss(t *testing.T) {
	sh, err := NewShipper(ShipperConfig{
		Site:    "a",
		Dial:    func() (net.Conn, error) { return nil, errors.New("refused") },
		Backoff: fastBackoff(3),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh.ShipDelta(0, 1, []byte{0})
	sh.ShipDelta(1, 2, []byte{1})
	err = sh.Close()
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("Close = %v, want ErrGaveUp", err)
	}
	lw := sh.LostWindows()
	if len(lw) != 2 || lw[0] != 0 || lw[1] != 1 {
		t.Fatalf("lost windows %v, want [0 1]", lw)
	}
}

// TestShipperQueueBoundEvicts pins the bounded-queue contract: when the
// aggregator stops acking, old deltas are evicted (recorded lost, LOST
// frame queued) instead of growing without bound.
func TestShipperQueueBoundEvicts(t *testing.T) {
	// A listener that accepts and reads nothing: frames pile up unacked.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	sh, err := NewShipper(ShipperConfig{
		Addr: ln.Addr().String(), Site: "a",
		Backoff:    fastBackoff(0),
		QueueLimit: 2,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 5; w++ {
		sh.ShipDelta(w, int64(w), []byte{byte(w)})
	}
	// 5 deltas through a 2-slot queue: windows 0, 1, 2 must be evicted.
	deadline := time.After(5 * time.Second)
	for {
		if st := sh.Stats(); st.Evicted == 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("evictions %d, want 3 (stats %+v)", sh.Stats().Evicted, sh.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	lw := sh.LostWindows()
	if len(lw) != 3 || lw[0] != 0 || lw[2] != 2 {
		t.Fatalf("lost windows %v, want [0 1 2]", lw)
	}
	sh.Abort()
}

func TestShipperStopsOnSchemaReject(t *testing.T) {
	sink := newRecordingSink()
	sink.helloErr = fmt.Errorf("schema mismatch: want 1, got 2")
	addr, stop := startAggregator(t, sink)
	defer stop()
	sh, err := NewShipper(ShipperConfig{
		Addr: addr, Site: "a", Backoff: fastBackoff(0), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh.ShipDelta(0, 1, []byte{0})
	err = sh.Close()
	if err == nil {
		t.Fatal("Close succeeded despite peer rejection")
	}
	if !errors.Is(err, errPeerFatal) {
		t.Fatalf("Close = %v, want peer-fatal", err)
	}
	if got := sink.windows("a"); len(got) != 0 {
		t.Fatalf("rejected session delivered data: %v", got)
	}
}

// TestShipperSurvivesAggregatorRestart kills the aggregator mid-stream
// and brings a new one up on the same address: the shipper must
// reconnect and redeliver everything unacknowledged.
func TestShipperSurvivesAggregatorRestart(t *testing.T) {
	sink := newRecordingSink()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	agg := NewAggregator(ln, sink, t.Logf)
	go agg.Serve()

	sh, err := NewShipper(ShipperConfig{
		Addr: addr, Site: "a", Backoff: fastBackoff(0), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh.ShipDelta(0, 1, []byte{0})
	// Wait until window 0 landed, then restart the aggregator.
	for i := 0; len(sink.windows("a")) == 0; i++ {
		if i > 5000 {
			t.Fatal("window 0 never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	agg.Close()
	sh.ShipDelta(1, 2, []byte{1}) // lands while the aggregator is down

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	agg2 := NewAggregator(ln2, sink, t.Logf)
	go agg2.Serve()
	defer agg2.Close()

	sh.ShipDelta(2, 3, []byte{2})
	sh.Fin(2, 4)
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := sink.windows("a")
	for w := 0; w < 3; w++ {
		if len(got[w]) != 1 || got[w][0] != byte(w) {
			t.Fatalf("window %d lost across restart: %v", w, got)
		}
	}
	if sink.fins["a"] != 2 {
		t.Fatalf("fin not redelivered: %v", sink.fins)
	}
}

// TestShipperExitsLeaveNoGoroutines pins that every way a shipper ends —
// a full drain, Abort with a burst in flight, reconnect give-up, a
// peer-fatal reject — takes its reader goroutines with it, and that the
// aggregator's Close takes its handlers. The reader used to finish every
// path with a bare send on msgs: after run had returned, with the buffer
// full of unread acks, it parked there for the life of the process.
func TestShipperExitsLeaveNoGoroutines(t *testing.T) {
	sink := newRecordingSink()
	addr, stop := startAggregator(t, sink)
	ship := func(site string, deltas int, dial func() (net.Conn, error), maxAttempts int) *Shipper {
		t.Helper()
		sh, err := NewShipper(ShipperConfig{Addr: addr, Site: site, Dial: dial, Backoff: fastBackoff(maxAttempts)})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < deltas; w++ {
			sh.ShipDelta(w, int64(w), []byte{byte(w)})
		}
		return sh
	}

	sh := ship("drain", 300, nil, 0)
	sh.Fin(299, 300)
	if err := sh.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Abort while the aggregator is still acking a burst well past the
	// 256-slot msgs buffer.
	for i := 0; i < 20; i++ {
		ship(fmt.Sprintf("abort-%d", i), 900, nil, 0).Abort()
	}
	sh = ship("gave-up", 2, func() (net.Conn, error) { return nil, errors.New("refused") }, 3)
	if err := sh.Close(); !errors.Is(err, ErrGaveUp) {
		t.Fatalf("give-up: Close = %v, want ErrGaveUp", err)
	}
	stop()

	reject := newRecordingSink()
	reject.helloErr = errors.New("schema mismatch")
	addr, stop = startAggregator(t, reject)
	sh = ship("rejected", 1, nil, 0)
	if err := sh.Close(); !errors.Is(err, errPeerFatal) {
		t.Fatalf("reject: Close = %v, want peer-fatal", err)
	}
	stop()

	var stacks string
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		stacks = string(buf[:runtime.Stack(buf, true)])
		leaked := false
		for _, fn := range []string{"readAcks", "(*Shipper).run", "(*Aggregator).handle"} {
			leaked = leaked || strings.Contains(stacks, fn)
		}
		if !leaked {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("fleet goroutines still alive a second after every shipper and aggregator ended:\n%s", stacks)
}

// countingConn counts the writes that reach a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countingListener hands out accepted connections that count writes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

// heldDial is a Dial seam that blocks until release is called, so that
// everything a test submits meanwhile is ready at once when the first
// connection opens.
func heldDial(addr string, writes *atomic.Int64) (dial func() (net.Conn, error), release func()) {
	held := make(chan struct{})
	dial = func() (net.Conn, error) {
		<-held
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{c, writes}, nil
	}
	return dial, func() { close(held) }
}

// TestShipperBatchesWrites pins one write per burst on both ends: 64
// deltas and a FIN, all ready when the connection opens, leave the
// shipper in a few writes, and the aggregator's 66 acks (the HELLO's
// included) in a few more, where a write per frame made 66 on each.
func TestShipperBatchesWrites(t *testing.T) {
	sink := newRecordingSink()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var shipWrites, aggWrites atomic.Int64
	agg := NewAggregator(countingListener{ln, &aggWrites}, sink, t.Logf)
	served := make(chan struct{})
	go func() { agg.Serve(); close(served) }()
	dial, release := heldDial(ln.Addr().String(), &shipWrites)
	sh, err := NewShipper(ShipperConfig{Site: "a", Dial: dial, Backoff: fastBackoff(0), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	const deltas = 64
	payload := make([]byte, 100)
	for w := range deltas {
		payload[0] = byte(w)
		sh.ShipDelta(w, int64(w), payload)
	}
	sh.Fin(deltas-1, deltas)
	release()
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	agg.Close()
	<-served
	if got := len(sink.windows("a")); got != deltas {
		t.Fatalf("aggregator holds %d windows, want %d", got, deltas)
	}
	if st := sh.Stats(); st.Acked != deltas+1 {
		t.Errorf("acked %d tracked frames, want %d", st.Acked, deltas+1)
	}
	t.Logf("writes: shipper %d, aggregator %d", shipWrites.Load(), aggWrites.Load())
	if n := shipWrites.Load(); n > 4 {
		t.Errorf("shipper made %d writes for a burst of %d frames, want ≤ 4", n, deltas+2)
	}
	if n := aggWrites.Load(); n > 8 {
		t.Errorf("aggregator made %d writes for %d acks, want ≤ 8", n, deltas+2)
	}
}

// TestShipperLoneFrameLeavesAtOnce pins flush-before-waiting: a single
// delta, with nothing after it and no Close, is acknowledged. A frame
// that waited for a full buffer would never be.
func TestShipperLoneFrameLeavesAtOnce(t *testing.T) {
	sink := newRecordingSink()
	addr, stop := startAggregator(t, sink)
	defer stop()
	sh, err := NewShipper(ShipperConfig{Addr: addr, Site: "a", Backoff: fastBackoff(0), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Abort()
	sh.ShipDelta(0, 1, []byte{0})
	for deadline := time.Now().Add(2 * time.Second); sh.Stats().Acked != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a lone delta was not acknowledged within 2s: %+v", sh.Stats())
		}
	}
}

// TestShipperStallFlushesFirst pins that a netstall delays its frame and
// later ones only: when the stall sleeps, the aggregator already holds
// every frame sent before it, though they were buffered behind a burst.
func TestShipperStallFlushesFirst(t *testing.T) {
	sink := newRecordingSink()
	addr, stop := startAggregator(t, sink)
	defer stop()
	const deltas, stallAt = 12, 6 // no event before it: send N is window N
	inj := wire(t, fmt.Sprintf("netstall@%d", stallAt))
	var missing []int
	inj.SetSleep(func(time.Duration) {
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			got := sink.windows("a")
			missing = missing[:0]
			for w := range stallAt {
				if got[w] == nil {
					missing = append(missing, w)
				}
			}
			if len(missing) == 0 || time.Now().After(deadline) {
				return
			}
		}
	})
	var writes atomic.Int64
	dial, release := heldDial(addr, &writes)
	sh, err := NewShipper(ShipperConfig{Site: "a", Dial: dial, Backoff: fastBackoff(0), NetFaults: inj, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for w := range deltas {
		sh.ShipDelta(w, int64(w), []byte{byte(w)})
	}
	sh.Fin(deltas-1, deltas)
	release()
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if fired := inj.Manifest(); len(fired) != 1 || fired[0].At != stallAt {
		t.Fatalf("fired %v, want one stall at send %d", fired, stallAt)
	}
	if len(missing) != 0 {
		t.Fatalf("windows %v, sent before the stall, had not reached the aggregator when it slept", missing)
	}
	if got := len(sink.windows("a")); got != deltas {
		t.Fatalf("aggregator holds %d windows, want %d", got, deltas)
	}
}
