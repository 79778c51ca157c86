package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"enttrace/internal/appproto/cifs"
	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/appproto/dns"
	"enttrace/internal/appproto/ftp"
	"enttrace/internal/appproto/http"
	"enttrace/internal/appproto/netbios"
	"enttrace/internal/appproto/smtp"
	"enttrace/internal/appproto/sunrpc"
	"enttrace/internal/categories"
	"enttrace/internal/enterprise"
	"enttrace/internal/fleet"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/scan"
	"enttrace/internal/stats"
)

// replayApps runs the application-level analysis that the sequential
// dispatcher used to interleave with packet processing, as a two-phase
// deterministic replay:
//
// Phase A (serial, cheap) walks connections in canonical first-packet
// order doing only the order-sensitive work — FTP PASV and Endpoint
// Mapper port registrations — and snapshots each connection's registry
// classification at its position in that order. The snapshot is what
// pins the incremental semantics: a port registered later in the trace
// classifies only later-starting connections, for any worker count.
//
// Phase B (parallel) fans the expensive work — per-connection payload
// parsing, transport-level accumulation, and UDP message dispatch — out
// across the replay workers. Work is sharded by canonical host pair, so
// every stateful pairing domain (DNS/NBNS transaction matching, NFS/NCP
// call-reply pairing, per-host-pair outcome folding) lives wholly inside
// one worker and is processed there in global order; each worker
// accumulates into its own appAggregates shard. The shards bank into
// the windows in shard order (an unwindowed run's drain into its one
// slot at Report), and because every merged quantity is either
// commutative or pair-contained, the report is byte-identical for any
// replay worker count.
//
// Phase B's UDP pass does not wait for replayApps: it reads no verdict
// and no registration, so each shard replays its datagrams while the
// trace is still being read (traceFeed), and what replayApps starts is
// the rest of that pass — the datagrams of the last batches — then the
// connection pass. Phase B also carries the connection-level
// accumulation that used to run serially after replay: the Table
// 3/Figure 1/origin sums (commutative) ride beside the worker's shard
// and are cut with it.
//
// replayApps returns after phase A with phase B in flight; the caller
// runs work that is independent of the per-shard state (trace load
// accounting, the Figure 2 fan) concurrently, then calls the
// returned join, which only waits for the workers. Phase B touches only
// per-worker state, the stream buffers it owns, the (mutex-guarded)
// reassembly pool and the trace's hand-off; it reads the registry,
// connections, and kept set without writing them — which is what makes
// the overlap safe.
//
// In a windowed run each worker cuts its shard at window boundaries and
// publishes the deltas to the trace's hand-off as it goes (see
// replayShard); the windows every worker has passed are banked and
// emitted while the replay is still running, by the workers themselves.
//
// maxTS is the trace's event-time extent; connections still idle past
// the IdleEvict horizon at that instant count toward the AgedOut
// disposition. The check reads only the connection's own timestamps and
// the trace-wide extent, so the count is bit-identical for any worker
// count — whether or not the shard tables' memory sweep ever ran.
//
// kept is parallel to f.conns: kept[i] reports whether f.conns[i]
// survived the scan filter. A connection's reassembled streams, if the
// packet stage kept any, hang off its flows.Conn.
func (a *Analyzer) replayApps(f *traceFeed, kept []bool, maxTS time.Time) (join func()) {
	workers := f.workers
	nshard := len(workers)
	conns := f.conns

	// Phase A: classification snapshots (protocol name and Figure 1
	// category) plus dynamic port registrations, in first-packet order.
	// Registrations must precede every snapshot taken after them — this
	// loop is the only place the registry is written, so phase B can
	// classify from the snapshots alone and never touch the registry
	// concurrently.
	names := make([]string, len(conns))
	cats := make([]string, len(conns))
	for i, conn := range conns {
		name, cat := a.registry.Classify(conn.Proto, conn.Key.Src, conn.Key.Dst, conn.Key.SrcPort, conn.Key.DstPort)
		names[i], cats[i] = name, cat
		if !a.opts.PayloadAnalysis {
			continue
		}
		app := connStreamsOf(conn)
		if app == nil {
			continue
		}
		switch {
		case name == "FTP" && conn.Key.DstPort == 21:
			if kept[i] {
				app.cliStream.Close()
				app.srvStream.Close()
			}
			a.replayFTPRegistrations(conn.Key.Dst, app.srvBuf.Buf)
		case name == "DCE/RPC-EPM":
			if kept[i] {
				// The sequential path closed kept EPM streams at trace
				// end, flushing still-pending out-of-order data through
				// the PDU parser; mirror that before reading segments.
				app.cliStream.Close()
				app.srvStream.Close()
			}
			// Channel keys carry the trace ordinal: FirstIdx restarts at
			// zero every trace, and the RPC analyzer's bind state
			// persists for the Analyzer's lifetime.
			a.replayEPM(dcerpc.ChanKey{Trace: a.traceCount, Conn: conn.FirstIdx, Side: dcerpc.SideClient}, app.epmCli.segments())
			a.replayEPM(dcerpc.ChanKey{Trace: a.traceCount, Conn: conn.FirstIdx, Side: dcerpc.SideServer}, app.epmSrv.segments())
		}
	}

	// Phase B: fan out by canonical host pair. The feed listed each
	// shard's connections in global order as they arrived, so each
	// worker sees exactly the serial subsequence of its pairs.
	trace := a.traceCount
	h := newHandoff(a.windowStore, nshard, maxTS)
	run := func(w int) {
		ap := workers[w].apps
		// processConn replays one connection into the worker's current
		// aggregates.
		processConn := func(i int32, ca *connAggregates) {
			conn := conns[i]
			app := connStreamsOf(conn)
			// AgedOut census: every connection (kept or filtered) idle
			// past the horizon at end of trace. Idle-split predecessor
			// segments qualify by construction (their successor's first
			// packet already lies past Last + horizon).
			if a.opts.IdleEvict > 0 && maxTS.Sub(conn.Last) > a.opts.IdleEvict {
				ca.agedOut++
			}
			if kept[i] {
				a.accumulateConn(ca, conn, cats[i])
				// Transport-level accumulation happens for every kept
				// conn even without payloads (email figures, windows
				// success rates, backup).
				ap.transportConn(conn, names[i])
				if a.opts.PayloadAnalysis && app != nil {
					a.parseConnPayload(ap, trace, conn, names[i], app)
				}
			}
			if app != nil {
				// Parse results hold copies, never sub-slices (the
				// borrow contract ends here); recycle the pooled stream
				// storage — including unparsed streams' out-of-order
				// segments — so the next trace reuses this one's buffers.
				app.release()
				// Census after release: Discard has finalized the ledger.
				// Every connection with streams contributes, kept or not —
				// hostile input must not hide behind the scan filter.
				ca.hostile.fold(app)
			}
		}
		// The shard's pass goroutine stopped at end of input
		// (traceFeed.finish): the rest of its UDP pass is this
		// goroutine's.
		f.replayUDP(w, true)
		a.replayShard(workers[w], h, w, conns, f.byShard[w], &f.passes[w].cuts, processConn)
		h.bankUntilAllPassed()
	}
	// Even a single replay worker runs as a goroutine, so the caller's
	// shard-independent accumulation overlaps it on multicore hardware.
	var wg sync.WaitGroup
	wg.Add(nshard)
	for w := 0; w < nshard; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}

	return wg.Wait
}

// replayShard is one worker's connection pass over its share of a
// trace, after its UDP pass (traceFeed.replayUDP) has replayed the
// shard's datagrams in arrival order — the order the sequential path
// parsed them in relative to connection replay. A connection banks
// wholly into the window of its first packet, even when it straddles a
// boundary. The shard cuts wherever either pass crosses a window
// boundary in event time (c carries the UDP pass's place on the window
// clock into this one), and a windowed run also cuts at end of trace,
// so that every window the trace touched has its share. Each pass walks
// in arrival order, which within a trace is timestamp order, so its cuts
// are monotone; timestamp regressions (possible in real captures) clamp
// to the current window.
//
// The worker hands its cuts to h whenever its connection pass enters a
// new window — its frontier: it will cut nothing more below it — and
// once more, as done, at the end. The UDP pass publishes no frontier: a
// connection may still bank into any window the UDP pass crossed, so
// its cuts go out with the first frontier. An unwindowed run has no
// boundaries (every timestamp maps to window 0) and no window waiting on
// the shard, so the worker never cuts and publishes nothing but its
// frontier: the shard accumulates across traces until Report drains it.
// Workers never wait for each other to replay (a lagging worker cuts
// late, and holds the windows it has not passed); one that is done banks
// for the rest (see handoff).
func (a *Analyzer) replayShard(shard *epochAgg, h *handoff, w int, conns []*flows.Conn, connIdx []int32, c *shardCuts, processConn func(int32, *connAggregates)) {
	c.floor = 0
	frontier := -1
	for _, i := range connIdx {
		c.enter(shard, a.windowStore, conns[i].Start)
		if c.cur != frontier {
			frontier = c.cur
			h.publish(w, c.deltas, frontier)
			clear(c.deltas) // banked by move: the window owns them now
			c.deltas = c.deltas[:0]
		}
		processConn(i, &shard.connAggregates)
	}
	if a.dur > 0 && c.cur >= 0 {
		c.cut(shard)
	}
	h.publish(w, c.deltas, passedAll)
}

// shardCuts is a replay shard's place on the window clock during one
// trace: the window it is in (-1 before its first datagram or
// connection), the floor the current pass does not fall below, and the
// deltas it has cut and not yet handed over.
type shardCuts struct {
	cur, floor int
	deltas     []windowDelta
}

// enter moves the shard into the window of ts (never below the pass's
// floor), cutting what it banked in the window it leaves.
func (c *shardCuts) enter(shard *epochAgg, st *windowStore, ts time.Time) {
	c.floor = max(c.floor, st.windowOf(ts))
	if c.cur >= 0 && c.floor != c.cur {
		c.cut(shard)
	}
	c.cur = c.floor
}

// cut moves everything the shard banked since its last cut out, onto the
// deltas, for the window it is in to keep.
func (c *shardCuts) cut(shard *epochAgg) {
	if d := fleet.Cut(shard); d != nil {
		c.deltas = append(c.deltas, windowDelta{window: c.cur, delta: d})
	}
}

// traceFeed is the hand-off from the packet stage to the replay shards
// while a trace is still being read. Once per batch each pipeline shard's
// sink publishes the connections it created, the datagrams it captured
// (already split by replay shard, pairShard) and its watermark
// (pipeline.Sink.Publish). The smallest watermark over the pipeline
// shards is the feed's frontier: every shard has published everything
// below it. Below the frontier the feed keeps
//
//   - the trace's connections in canonical first-packet order, the order
//     pipeline.Result.SortedConns gives after the run, with each replay
//     shard's positions in it: built under the lock by the publisher;
//   - each replay shard's UDP pass: its datagrams replayed in global
//     index order by the shard's pass goroutine, which a publish wakes
//     when the pass is due (start, kick);
//   - the trace's scanner census (scan.Builder), observing the
//     connections in that order as far as they are settled, on its own
//     goroutine, which a publish wakes when enough wait (observe): a TCP
//     connection whose first packet was not a pure SYN may still flip
//     its originator (flows.Conn.reorient), so the census stops at the
//     first such connection until end of input.
//
// None of them reads anything end of input decides. What does — the
// census's verdicts, phase A, the connection pass and the retransmission
// sums — waits for AddTraceSource.
//
// Like the replay workers, the feed lives as long as the Analyzer, its
// widths fixed at first use, and reset empties it after each trace: it
// keeps its buffers, so a trace allocates nothing here once the first
// has grown them.
type traceFeed struct {
	st      *windowStore
	workers []*epochAgg
	// replayed counts the datagrams the UDP passes have replayed, across
	// traces. It moves while a trace is read; the test that the pass runs
	// during the read watches it.
	replayed atomic.Int64

	// in is each pipeline shard's side of the feed.
	in []*feedIn

	mu sync.Mutex
	// conns is the trace's connections below the frontier in
	// first-packet order; byShard lists each replay shard's positions in
	// conns, in the same order. The first settled of conns are settled
	// connections, as many as lead the list; the census goroutine has
	// been handed the first censusAt of them.
	conns             []*flows.Conn
	byShard           [][]int32
	settled, censusAt int
	// udp holds each replay shard's published datagrams, one run per
	// pipeline shard, each in index order. The shard's pass has replayed
	// a prefix of each run (udpPass.pos) and drops it when it next looks;
	// a publisher only appends, past the end the pass reads to.
	udp [][][]udpEvent

	passes []udpPass
	// waiting counts, per replay shard, the datagrams published since its
	// pass last looked.
	waiting []int

	// wake holds each pass goroutine's wake-up, running the goroutines,
	// while a trace with payload analysis is read.
	wake    []chan struct{}
	running sync.WaitGroup

	// census is the trace's scanner census. While the trace is read only
	// the census goroutine touches it, woken by censusWake; observed is
	// how many connections it has observed, which the test that the
	// census runs during the read watches.
	census     *scan.Builder
	censusWake chan struct{}
	observed   atomic.Int64
}

// feedIn is one pipeline shard's side of the feed: the batch its sink is
// filling, which only the shard's goroutine touches, and — under the
// feed's lock — what it has published.
type feedIn struct {
	// batchConns and batchUDP (per replay shard) are the batch's
	// connections and datagrams, until Publish hands them over; due marks
	// the replay shards whose UDP pass the publish should run.
	batchConns []fedConn
	batchUDP   [][]udpEvent
	due        []bool

	// through is the shard's last published watermark; pending its
	// published connections not yet below the frontier, in creation (=
	// first-packet) order, of which order has taken off.
	through int64
	pending []fedConn
	off     int
}

// fedConn is a connection as its sink publishes it: with its
// first-packet index, its replay shard and whether it is settled, all
// fixed at creation. They are read there, by the connection's own
// worker: reorientation swaps Key's addresses later, which pairShard
// does not see but a read from another goroutine would race.
//
// settled is all the census needs to read the connection itself. A
// settled connection (flows.Conn.Settled) is never reoriented, and
// nothing else writes its Key, Multicast or Start after its first
// packet, so those three hold still from the publish that carries it —
// which orders them before any read under the feed's lock — while its
// worker goes on writing its counters. An unsettled one's Key is read at
// end of input only.
type fedConn struct {
	conn    *flows.Conn
	idx     int64
	shard   int32
	settled bool
}

// udpPass is one replay shard's UDP pass over a trace: run by its pass
// goroutine while the trace is read, finished by the replay worker after.
type udpPass struct {
	// pos is how far the pass has replayed each pipeline shard's run of
	// runs, the snapshot of the feed's runs it is reading.
	pos  []int
	runs [][]udpEvent
	cuts shardCuts
}

func newTraceFeed(st *windowStore, workers []*epochAgg, pipelineShards int) *traceFeed {
	n := len(workers)
	f := &traceFeed{
		st:      st,
		workers: workers,
		in:      make([]*feedIn, pipelineShards),
		byShard: make([][]int32, n),
		udp:     make([][][]udpEvent, n),
		passes:  make([]udpPass, n),
		waiting: make([]int, n),
	}
	for q := range f.in {
		f.in[q] = &feedIn{batchUDP: make([][]udpEvent, n), due: make([]bool, n)}
	}
	for r := range f.udp {
		f.udp[r] = make([][]udpEvent, pipelineShards)
		f.passes[r].pos = make([]int, pipelineShards)
		f.passes[r].cuts.cur = -1
	}
	return f
}

// reset empties the feed once a trace is done with it. The buffers stay
// for the next trace; the trace's connections, datagrams and deltas in
// them do not, or the last trace's would stay reachable for as long as
// the Analyzer lives.
func (f *traceFeed) reset() {
	for _, in := range f.in {
		clear(in.pending)
		in.through, in.pending, in.off = 0, in.pending[:0], 0
	}
	clear(f.conns)
	f.conns, f.settled, f.censusAt, f.census = f.conns[:0], 0, 0, nil
	f.observed.Store(0)
	for r, runs := range f.udp {
		f.byShard[r], f.waiting[r] = f.byShard[r][:0], 0
		p := &f.passes[r]
		for q, run := range runs {
			clear(run)
			runs[q] = run[:0]
			p.pos[q] = 0
		}
		clear(p.cuts.deltas)
		p.cuts = shardCuts{cur: -1, deltas: p.cuts.deltas[:0]}
	}
}

// abort banks what the UDP passes took in of a trace whose read failed,
// as its end would have: each pass's pending cuts and, windowed, what its
// worker holds in the window the pass is in, shard by shard. An
// unwindowed run's workers never cut: Report drains what they hold.
// Callers have stopped the passes (finish).
func (f *traceFeed) abort() {
	var deltas []windowDelta
	for r, shard := range f.workers {
		c := &f.passes[r].cuts
		if f.st.dur > 0 && c.cur >= 0 {
			c.cut(shard)
		}
		deltas = append(deltas, c.deltas...)
	}
	f.st.bankDeltas(deltas)
}

// publish takes pipeline shard q's batch and watermark, empties the
// batch, and orders the connections the frontier has passed. It marks
// due the UDP passes to run now: every one when more is false — the
// worker has no batch of its own queued — and otherwise those with
// passBacklog datagrams waiting. By the same rule, with censusBacklog
// connections, it wakes the census.
func (f *traceFeed) publish(q int, through int64, more bool) {
	in := f.in[q]
	f.mu.Lock()
	in.pending = append(in.pending, in.batchConns...)
	for r, evs := range in.batchUDP {
		f.udp[r][q] = append(f.udp[r][q], evs...)
		f.waiting[r] += len(evs)
		in.due[r] = !more || f.waiting[r] >= passBacklog
	}
	in.through = through
	f.order(f.frontier())
	waiting := f.settled - f.censusAt
	f.mu.Unlock()
	if waiting >= censusBacklog || !more && waiting > 0 {
		kick(f.censusWake)
	}
	// What the batch held is the feed's to keep now; the sink's copies
	// must not keep a connection or a payload alive.
	clear(in.batchConns)
	in.batchConns = in.batchConns[:0]
	for r, evs := range in.batchUDP {
		clear(evs)
		in.batchUDP[r] = evs[:0]
	}
}

// finish is end of input: each shard has published all it will. It
// stops the pass goroutines — what is left of each pass is its replay
// worker's — and orders every connection left.
func (f *traceFeed) finish() {
	for _, wake := range f.wake {
		close(wake)
	}
	close(f.censusWake)
	f.running.Wait()
	f.wake = f.wake[:0]
	f.mu.Lock()
	defer f.mu.Unlock()
	f.order(math.MaxInt64)
}

// frontier is the smallest watermark. Callers hold mu.
func (f *traceFeed) frontier() int64 {
	lo := int64(math.MaxInt64)
	for _, in := range f.in {
		lo = min(lo, in.through)
	}
	return lo
}

// order moves the pending connections below bound into canonical order:
// a merge of the shards' runs by first-packet index, which is unique, so
// the order is total and the same for any shard count. Callers hold mu.
func (f *traceFeed) order(bound int64) {
	for {
		var best *feedIn
		bestIdx := bound
		for _, in := range f.in {
			if in.off < len(in.pending) && in.pending[in.off].idx < bestIdx {
				best, bestIdx = in, in.pending[in.off].idx
			}
		}
		if best == nil {
			break
		}
		fc := best.pending[best.off]
		best.off++
		f.byShard[fc.shard] = append(f.byShard[fc.shard], int32(len(f.conns)))
		if fc.settled && f.settled == len(f.conns) {
			f.settled++
		}
		f.conns = append(f.conns, fc.conn)
	}
	for _, in := range f.in {
		n := copy(in.pending, in.pending[in.off:])
		clear(in.pending[n:])
		in.pending, in.off = in.pending[:n], 0
	}
}

// observe hands the census the leading settled connections below the
// frontier that it has not seen. The census goroutine runs it, outside
// the feed's lock but for taking the list as it stands: below its
// length, the list is never written again. The census reads the
// connections themselves unlocked (fedConn).
func (f *traceFeed) observe() {
	f.mu.Lock()
	settled := f.conns[:f.settled]
	f.censusAt = f.settled
	f.mu.Unlock()
	f.census.Add(settled[f.census.Len():])
	f.observed.Store(int64(f.census.Len()))
}

// censusBacklog is how many settled connections wait for the census
// while the publishing worker has batches of its own queued.
const censusBacklog = 256

// passBacklog is how many datagrams a replay shard's UDP pass lets wait
// while the publishing worker has batches of its own queued. Each run
// of a pass takes a core from the packet path and fills its cache with
// the analyzers'; a pass after every batch on a busy worker cost more
// than the replay it carried (EXPERIMENTS "UDP messages replay while the
// trace is read").
const passBacklog = 256

// start readies the feed for a trace's read: a census that counts known
// as scanners, with a goroutine that advances it, and, when passes is
// set, one goroutine per replay shard for its UDP pass. Each sleeps until
// a publish makes its work due (kick), then does what the frontier has
// passed; finish ends them. Between wake-ups they are not runnable, so on
// two vCPUs they take a core only for work that is there — which is why
// they measured better than running the work on whichever pipeline
// worker publishes (EXPERIMENTS "UDP messages replay while the trace is
// read" and "The census is taken while the trace is read").
func (f *traceFeed) start(known []netip.Addr, passes bool) {
	// The census reserves nothing: it is resident for the whole read, and
	// sized from an earlier trace it held more than grown to fit.
	f.census = scan.NewBuilder(known, 0)
	f.censusWake = make(chan struct{}, 1)
	f.running.Add(1)
	go func() {
		defer f.running.Done()
		for range f.censusWake {
			f.observe()
		}
	}()
	if !passes {
		return
	}
	for r := range f.passes {
		wake := make(chan struct{}, 1)
		f.wake = append(f.wake, wake)
		f.running.Add(1)
		go func() {
			defer f.running.Done()
			for range wake {
				f.replayUDP(r, false)
			}
		}()
	}
}

// kick wakes the goroutine sleeping on wake, unless a wake-up is already
// pending: the run that takes it sees this publish too.
func kick(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// replayUDP replays replay shard r's published datagrams below the
// frontier — all of them when all is set, at end of input — in global
// index order, cutting wherever they cross a window boundary. One
// goroutine runs a pass at a time: its pass goroutine while the trace is
// read, its replay worker after. The feed's lock is held only to drop
// what the pass replayed before and take the runs as they stand.
func (f *traceFeed) replayUDP(r int, all bool) {
	p := &f.passes[r]
	f.mu.Lock()
	bound := int64(math.MaxInt64)
	if !all {
		bound = f.frontier()
	}
	f.waiting[r] = 0
	for q, run := range f.udp[r] {
		n := copy(run, run[p.pos[q]:])
		clear(run[n:]) // the replayed datagrams' payloads may go
		f.udp[r][q] = run[:n]
		p.pos[q] = 0
		p.runs = append(p.runs, run[:n])
	}
	f.mu.Unlock()

	shard := f.workers[r]
	var n int64
	for {
		best, bestIdx := -1, bound
		for q, run := range p.runs {
			if i := p.pos[q]; i < len(run) && run[i].idx < bestIdx {
				best, bestIdx = q, run[i].idx
			}
		}
		if best < 0 {
			break
		}
		ev := &p.runs[best][p.pos[best]]
		p.pos[best]++
		p.cuts.enter(shard, f.st, ev.ts)
		replayUDPEvent(shard.apps, ev)
		n++
	}
	clear(p.runs)
	p.runs = p.runs[:0]
	f.replayed.Add(n)
}

// passedAll is the frontier of a worker that has finished its share of
// the trace.
const passedAll = math.MaxInt

// handoff is where one trace's replay workers hand their window deltas
// over. A window is complete once every worker's frontier has passed
// it. Completed windows are banked — per window in the order the join
// used to bank them, shard 0's deltas, then shard 1's, … (finishTrace
// adds the trace-granular delta after them) — and the watermark moves
// to the minimum frontier, which emits the windows it completes.
//
// Who banks is a matter of balance, not of bytes. The worker that raises
// the minimum is the one holding every window back, so it leaves the
// banking to a worker ahead of it whenever there is one: a worker still
// replaying banks at its next publish, and a worker that has finished
// its share waits to be woken for it (bankUntilAllPassed). Banking and
// reporting the soak's windows cost about as much CPU as one worker's
// connection pass; left to the raiser, they keep the slowest worker
// slowest (EXPERIMENTS "Windows leave as the replay passes them"). One
// worker banks at a time, and it looks again before it stops, so
// windows are banked and emitted in index order; no more goroutines are
// runnable than there are workers — a dedicated emitter goroutine beside
// them starves on two vCPUs (DESIGN "Epoch cuts and windowed reports").
type handoff struct {
	st    *windowStore
	maxTS time.Time

	mu sync.Mutex
	// udp and conns are each worker's published deltas not yet banked,
	// each in window order: those of its UDP pass, published with its
	// first frontier, and those of its connection pass. A window's UDP
	// cut precedes its connection cuts, as the worker cut them.
	udp, conns [][]windowDelta
	// frontier is each worker's frontier: -1 until its connection pass
	// begins, passedAll once it is done.
	frontier []int
	// replaying counts the workers not yet done, idle those waiting in
	// bankUntilAllPassed; wake (on mu) rouses one of those.
	replaying, idle int
	wake            sync.Cond
	// banked is the minimum frontier last acted on: every delta below it
	// is banked.
	banked  int
	banking bool
	// batch is the banking worker's scratch.
	batch []windowDelta
}

func newHandoff(st *windowStore, workers int, maxTS time.Time) *handoff {
	h := &handoff{
		st:        st,
		maxTS:     maxTS,
		udp:       make([][]windowDelta, workers),
		conns:     make([][]windowDelta, workers),
		frontier:  make([]int, workers),
		replaying: workers,
	}
	h.wake.L = &h.mu
	for w := range h.frontier {
		h.frontier[w] = -1
	}
	return h
}

// publish records worker w's new deltas and frontier, then banks and
// emits every window the minimum frontier has passed — unless w was at
// the minimum and another worker is there to do it. deltas is copied;
// the caller may reuse it.
func (h *handoff) publish(w int, deltas []windowDelta, frontier int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	raiser := h.frontier[w] == slices.Min(h.frontier)
	if h.frontier[w] < 0 {
		h.udp[w] = append(h.udp[w], deltas...)
	} else {
		h.conns[w] = append(h.conns[w], deltas...)
	}
	h.frontier[w] = frontier
	if frontier == passedAll {
		if h.replaying--; h.replaying == 0 {
			h.wake.Broadcast()
		}
	} else if raiser && (h.replaying > 1 || h.idle > 0) {
		h.wake.Signal()
		return
	}
	h.bankLocked()
}

// bankUntilAllPassed keeps a worker that has published passedAll
// banking for the others until every one of them has.
func (h *handoff) bankUntilAllPassed() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.replaying > 0 {
		h.idle++
		h.wake.Wait()
		h.idle--
		h.bankLocked()
	}
}

// bankLocked banks and emits the windows below the minimum frontier,
// looking again after each batch, unless another worker is at it (it
// will look again). Callers hold h.mu; it is released while banking.
func (h *handoff) bankLocked() {
	if h.banking {
		return
	}
	h.banking = true
	for lo := slices.Min(h.frontier); lo > h.banked; lo = slices.Min(h.frontier) {
		batch := h.batch[:0]
		for s := range h.frontier {
			batch = takeBelow(batch, &h.udp[s], lo)
			batch = takeBelow(batch, &h.conns[s], lo)
		}
		h.banked = lo
		h.mu.Unlock()
		h.st.bankDeltas(batch)
		h.st.advance(lo, h.maxTS)
		h.mu.Lock()
		h.batch = batch
	}
	h.banking = false
}

// takeBelow moves run's leading deltas of windows below lo onto batch.
func takeBelow(batch []windowDelta, run *[]windowDelta, lo int) []windowDelta {
	r := *run
	n := 0
	for n < len(r) && r[n].window < lo {
		n++
	}
	batch = append(batch, r[:n]...)
	if n == len(r) {
		*run = r[:0]
	} else {
		*run = r[n:]
	}
	return batch
}

// connAggregates is one replay worker's connection-level accumulation:
// the Table 3 transport breakdown, Figure 1 category splits, and §4
// origin mix (all commutative sums). epochAgg embeds it, so a worker's
// sums fold into an epoch as a merge of that one field.
type connAggregates struct {
	transBytes, transConns *stats.Counter
	origins                *stats.Counter
	catBytes, catConns     fleet.Map[string, *locSplit]
	// hostile is the hostile-input census over this worker's connections
	// (sums plus one max; see hostileCounters).
	hostile hostileCounters
	// agedOut counts connections idle past the IdleEvict horizon at end
	// of trace (the report's AgedOut disposition).
	agedOut int64
}

func newConnAggregates() *connAggregates {
	return &connAggregates{
		transBytes: stats.NewCounter(),
		transConns: stats.NewCounter(),
		origins:    stats.NewCounter(),
		catBytes:   make(map[string]*locSplit),
		catConns:   make(map[string]*locSplit),
	}
}

// parseConnPayload replays one kept connection's reassembled payload
// into the worker's aggregate shard. name is the phase-A classification
// snapshot.
func (a *Analyzer) parseConnPayload(ap *appAggregates, trace int, conn *flows.Conn, name string, app *connStreams) {
	client, server := conn.Key.Src, conn.Key.Dst
	wan := connWAN(conn)
	if app.buffered && name != "DCE/RPC-EPM" && !(name == "FTP" && conn.Key.DstPort == 21) {
		app.cliStream.Close()
		app.srvStream.Close()
	}
	// A connection whose streams fed parsers has its records ready; one
	// that kept its bytes (an originator-port match, or a name only replay
	// could give it) has them parsed here, by the same parsers.
	switch name {
	case "HTTP":
		if app.http != nil {
			ap.http.conn(conn, wan, app.http.cli.Requests(), app.http.srv.Responses())
		} else {
			ap.http.conn(conn, wan, http.ParseRequests(app.cliBuf.Buf), http.ParseResponses(app.srvBuf.Buf))
		}
	case "SMTP":
		if app.smtp != nil {
			ap.smtpParsed(wan, smtp.ResultOf(&app.smtp.cli, &app.smtp.srv))
		} else {
			ap.smtpParsed(wan, smtp.Parse(app.cliBuf.Buf, app.srvBuf.Buf))
		}
	case "CIFS", "Netbios-SSN":
		streams := app.cifs
		if streams == nil {
			streams = &parserPair[cifs.StreamParser]{}
			streams.cli.Init(name == "Netbios-SSN", 0)
			streams.srv.Init(name == "Netbios-SSN", 0)
			streams.cli.Data(app.cliBuf.Buf)
			streams.srv.Data(app.srvBuf.Buf)
		}
		streams.cli.End()
		streams.srv.End()
		ap.cifsStreams(dcerpc.ChanKey{Trace: trace, Conn: conn.FirstIdx, Side: dcerpc.SideBoth}, conn, &streams.cli, &streams.srv)
	case "NCP":
		if app.ncp != nil {
			ap.ncp.Records(client, server, app.ncp.cli.Records())
			ap.ncp.Records(server, client, app.ncp.srv.Records())
		} else {
			ap.ncp.Stream(client, server, app.cliBuf.Buf)
			ap.ncp.Stream(server, client, app.srvBuf.Buf)
		}
		ap.markNCPKeepAlive(conn)
	case "NFS":
		if app.nfs != nil {
			ap.nfs.Records(client, server, app.nfs.cli.Records())
			ap.nfs.Records(server, client, app.nfs.srv.Records())
		} else {
			ap.nfs.Records(client, server, sunrpc.SplitRecords(app.cliBuf.Buf))
			ap.nfs.Records(server, client, sunrpc.SplitRecords(app.srvBuf.Buf))
		}
		ap.markNFSPair(client, server, false)
	case "Spoolss":
		key := dcerpc.ChanKey{Trace: trace, Conn: conn.FirstIdx, Side: dcerpc.SideBoth}
		ap.rpc.Stream(key, app.cliBuf.Buf)
		ap.rpc.Stream(key, app.srvBuf.Buf)
	case "FTP":
		if conn.Key.DstPort == 21 {
			ap.ftpSession(trace, conn.FirstIdx, ftp.Analyze(app.cliBuf.Buf, app.srvBuf.Buf))
		}
	}
}

// pairShard maps an unordered address pair onto a replay shard. The
// assignment is stable for the Analyzer's lifetime, so a host pair's
// state — transaction pairing, outcome folding, dedup sets —
// accumulates in the same shard across traces. Reports do not depend on
// the map, only worker balance does (TestPairShardBalance).
func pairShard(x, y netip.Addr, n int) int {
	if n <= 1 {
		return 0
	}
	hx, hy := addrHash(x), addrHash(y)
	if hx > hy {
		hx, hy = hy, hx
	}
	h := hx ^ (hy*0x9E3779B97F4A7C15 + 0x85EBCA6B)
	h ^= h >> 33
	return int(h % uint64(n))
}

// addrHash mixes the address's two 64-bit words with one multiply each;
// the words are read big-endian so that an IPv4 address's host byte
// lands in the low bits, which every later bit of a product depends on.
func addrHash(a netip.Addr) uint64 {
	b := a.As16()
	h := binary.BigEndian.Uint64(b[:8])*0x9E3779B97F4A7C15 ^ binary.BigEndian.Uint64(b[8:])
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>31
}

// udpAppPorts reports whether a datagram belongs to one of the
// message-based application protocols replayUDP dispatches on. Capture
// (shardSink.captureUDP) and dispatch share this predicate so the two
// cannot drift: a port added to the switch below must be added here.
func udpAppPorts(srcPort, dstPort uint16) bool {
	switch {
	case dstPort == 53 || srcPort == 53,
		dstPort == 137 || srcPort == 137,
		dstPort == 2049 || srcPort == 2049:
		return true
	}
	return false
}

// replayUDPEvent dispatches one captured datagram. The DNS decode
// scratch lives on the aggregate (one per worker, reused across
// events).
func replayUDPEvent(ap *appAggregates, ev *udpEvent) {
	switch {
	case ev.dstPort == 53 || ev.srcPort == 53:
		if err := dns.DecodeInto(ev.payload, &ap.dnsScratch); err == nil {
			if enterprise.IsLocal(ev.src) && enterprise.IsLocal(ev.dst) {
				ap.dnsInt.Message(ev.ts, ev.src, ev.dst, &ap.dnsScratch)
			} else {
				ap.dnsWan.Message(ev.ts, ev.src, ev.dst, &ap.dnsScratch)
			}
		}
	case ev.dstPort == 137 || ev.srcPort == 137:
		if m, err := netbios.DecodeNS(ev.payload); err == nil {
			ap.nbns.Message(ev.ts, ev.src, ev.dst, m)
		}
	case ev.dstPort == 2049 || ev.srcPort == 2049:
		ap.nfs.Message(ev.src, ev.dst, ev.payload)
		ap.markNFSPair(ev.src, ev.dst, true)
	}
}

// replayFTPRegistrations registers the PASV-advertised data ports of an
// FTP control stream's server side, exactly as the incremental parser
// did at the moment each 227 reply was seen. host is the FTP server (the
// control connection's responder): a 227 reply advertises a data port on
// the server itself, so the registration is scoped there.
func (a *Analyzer) replayFTPRegistrations(host netip.Addr, srv []byte) {
	pasvPorts(srv, func(port uint16) {
		a.registry.Register(host, layers.ProtoTCP, port, "FTP-Data", categories.Bulk)
	})
}

// pasvPorts scans the complete (CRLF-terminated) reply lines of srv and
// yields the data port of every parseable 227 reply, in stream order.
// Lines are parsed in place; nothing here allocates.
func pasvPorts(srv []byte, yield func(port uint16)) {
	for {
		end := bytes.Index(srv, []byte("\r\n"))
		if end < 0 {
			return
		}
		code, text, ok := ftp.ParseReplyLine(srv[:end])
		srv = srv[end+2:]
		if !ok || code != 227 {
			continue
		}
		if port, ok := ftp.PasvPortFromText(text); ok {
			yield(port)
		}
	}
}

// replayEPM takes the complete DCE/RPC PDUs of each contiguous stream
// segment of an Endpoint Mapper connection, accumulating PDU statistics
// and registering endpoint-mapped service ports. Parsing restarts at
// segment (gap) boundaries, and a PDU a segment ends inside is left out:
// the parser is never told the segment is over, so it waits for the rest.
func (a *Analyzer) replayEPM(key dcerpc.ChanKey, segs [][]byte) {
	for _, seg := range segs {
		var p dcerpc.StreamParser
		p.Data(seg)
		a.apps.rpc.Summaries(key, p.PDUs())
		for _, pdu := range p.PDUs() {
			if !pdu.Mapped {
				continue
			}
			name := dcerpc.InterfaceName(pdu.Iface)
			if name == "unknown" {
				name = "DCE/RPC"
			}
			a.registry.Register(netip.AddrFrom4(pdu.Host), layers.ProtoTCP, pdu.Port, name, categories.Windows)
		}
	}
}
