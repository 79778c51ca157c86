package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/netip"
	"slices"
	"sync"
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
	"enttrace/internal/kmerge"
	"enttrace/internal/layers"
	"enttrace/internal/pipeline"
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
// accumulates into its own appAggregates shard. Report drains the
// workers in shard order, and because every merged quantity is either
// commutative or pair-contained, the report is byte-identical for any
// replay worker count.
//
// Phase B also carries the connection-level accumulation that used to
// run serially after replay: the Table 3/Figure 1/origin sums
// (commutative) ride beside the worker's shard and drain with it.
//
// replayApps returns after phase A with phase B in flight; the caller
// runs work that is independent of the per-shard state (trace load
// accounting, the fan and role censuses) concurrently, then calls the
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
// kept is parallel to recs: kept[i] reports whether recs[i] survived the
// scan filter. A connection's reassembled streams, if the packet stage
// kept any, hang off its flows.Conn.
func (a *Analyzer) replayApps(recs []pipeline.ConnRecord, events []udpEvent, kept []bool, maxTS time.Time) (join func()) {
	workers := a.ensureReplayWorkers()
	nshard := len(workers)

	// Phase A: classification snapshots (protocol name and Figure 1
	// category) plus dynamic port registrations, in first-packet order.
	// Registrations must precede every snapshot taken after them — this
	// loop is the only place the registry is written, so phase B can
	// classify from the snapshots alone and never touch the registry
	// concurrently.
	names := make([]string, len(recs))
	cats := make([]string, len(recs))
	for i, rec := range recs {
		name, cat := a.registry.Classify(rec.Conn.Proto, rec.Conn.Key.Src, rec.Conn.Key.Dst, rec.Conn.Key.SrcPort, rec.Conn.Key.DstPort)
		names[i], cats[i] = name, cat
		if !a.opts.PayloadAnalysis {
			continue
		}
		app := connStreamsOf(rec.Conn)
		if app == nil {
			continue
		}
		switch {
		case name == "FTP" && rec.Conn.Key.DstPort == 21:
			if kept[i] {
				app.cliStream.Close()
				app.srvStream.Close()
			}
			a.replayFTPRegistrations(rec.Conn.Key.Dst, app.srvBuf.Buf)
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
			a.replayEPM(dcerpc.ChanKey{Trace: a.traceCount, Conn: rec.FirstIdx, Side: dcerpc.SideClient}, app.epmCli.segments())
			a.replayEPM(dcerpc.ChanKey{Trace: a.traceCount, Conn: rec.FirstIdx, Side: dcerpc.SideServer}, app.epmSrv.segments())
		}
	}

	// Phase B: partition connections and UDP messages by canonical host
	// pair and fan out. Per-shard index lists preserve global order, so
	// each worker sees exactly the serial subsequence of its pairs.
	connsByShard := partitionByPair(len(recs), nshard, func(i int) (netip.Addr, netip.Addr) {
		return recs[i].Conn.Key.Src, recs[i].Conn.Key.Dst
	})
	udpByShard := partitionByPair(len(events), nshard, func(i int) (netip.Addr, netip.Addr) {
		return events[i].src, events[i].dst
	})

	trace := a.traceCount
	h := newHandoff(a.win, nshard, maxTS)
	run := func(w int) {
		ap := workers[w].shard.apps
		// processConn replays one connection into the worker's current
		// aggregates.
		processConn := func(i int32, ca *connAggregates) {
			rec := recs[i]
			conn := rec.Conn
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
					a.parseConnPayload(ap, trace, rec, names[i], app)
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
		a.replayShard(workers[w], h, w, recs, connsByShard[w], events, udpByShard[w], processConn)
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

// replayWorker is one replay worker's state. It persists across traces:
// a host pair always hashes to the same worker, so cross-trace pairing
// state (DNS retries, RPC binds) stays worker-local.
type replayWorker struct {
	// shard accumulates the worker's share of the replay — its
	// application aggregate and the connection-level sums beside it —
	// until a cut moves what it banked out; only pairing state survives a
	// cut.
	shard *epochAgg
	// cum is the running cumulative of everything the worker has cut
	// (nil until its first cut): it folds its own deltas in, lock-free
	// and parallel with the other workers.
	cum *epochAgg
}

// closeWindow moves everything the worker banked since its last cut out
// of its shard: a copy goes into the worker's running cumulative, and the
// delta itself onto deltas, for window — the one it is banked under — to
// keep.
func (rw *replayWorker) closeWindow(deltas []windowDelta, window int) []windowDelta {
	d := fleet.Cut(rw.shard)
	if d == nil {
		return deltas
	}
	if rw.cum == nil {
		rw.cum = newEpochAgg()
	}
	fleet.Merge(rw.cum, d)
	return append(deltas, windowDelta{window: window, delta: d})
}

// drain moves everything the worker holds into e: its running
// cumulative first, then whatever it has banked since its last cut — on
// an unwindowed run, where workers never cut, that is everything. Moving
// keeps the drain idempotent: a report mid-run consumes only what has
// been banked since the previous one.
func (rw *replayWorker) drain(e *epochAgg) {
	if rw.cum != nil {
		fleet.Merge(e, rw.cum)
		rw.cum = nil
	}
	if d := fleet.Cut(rw.shard); d != nil {
		fleet.Merge(e, d)
	}
}

// replayShard is one worker's replay of its share of a trace: UDP
// messages first, in arrival order — the order the sequential path
// parsed them in relative to connection replay — then connections (a
// connection banks wholly into the window of its first packet, even
// when it straddles a boundary). The worker cuts wherever it crosses a
// window boundary in event time, and a windowed run also cuts at end of
// trace, so that every window the trace touched has its share. Each
// pass walks in arrival order, which within a trace is timestamp order,
// so its cuts are monotone; timestamp regressions (possible in real
// captures) clamp to the current window.
//
// The worker hands its cuts to h whenever its connection pass enters a
// new window — its frontier: it will cut nothing more below it — and
// once more, as done, at the end. Its UDP pass publishes no frontier:
// a connection may still bank into any window the UDP pass crossed. An
// unwindowed run has no boundaries (every timestamp maps to window 0)
// and no window waiting on the shard, so the worker never cuts and
// publishes nothing but its frontier: the shard accumulates across
// traces until Report drains it. Workers never wait for each other to
// replay (a lagging worker cuts late, and holds the windows it has not
// passed); one that is done banks for the rest (see handoff).
func (a *Analyzer) replayShard(rw *replayWorker, h *handoff, w int, recs []pipeline.ConnRecord, connIdx []int32, events []udpEvent, udpIdx []int32, processConn func(int32, *connAggregates)) {
	var deltas []windowDelta
	cur, floor := -1, 0
	// enter moves the worker into the window of ts (never below the
	// pass's floor), cutting what it banked in the window it leaves.
	enter := func(ts time.Time) {
		floor = max(floor, a.win.windowOf(ts))
		if cur >= 0 && floor != cur {
			deltas = rw.closeWindow(deltas, cur)
		}
		cur = floor
	}
	for _, j := range udpIdx {
		ev := &events[j]
		enter(ev.ts)
		replayUDPEvent(rw.shard.apps, ev)
	}
	floor = 0
	frontier := -1
	for _, i := range connIdx {
		enter(recs[i].Conn.Start)
		if cur != frontier {
			frontier = cur
			h.publish(w, deltas, frontier)
			deltas = deltas[:0]
		}
		processConn(i, &rw.shard.connAggregates)
	}
	if a.Windowing() && cur >= 0 {
		deltas = rw.closeWindow(deltas, cur)
	}
	h.publish(w, deltas, passedAll)
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
	ws    *windowState
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

func newHandoff(ws *windowState, workers int, maxTS time.Time) *handoff {
	h := &handoff{
		ws:        ws,
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
		h.ws.bankDeltas(batch)
		h.ws.advance(lo, h.maxTS)
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
	catBytes, catConns     map[string]*locSplit
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
func (a *Analyzer) parseConnPayload(ap *appAggregates, trace int, rec pipeline.ConnRecord, name string, app *connStreams) {
	conn := rec.Conn
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
		ap.cifsStreams(dcerpc.ChanKey{Trace: trace, Conn: rec.FirstIdx, Side: dcerpc.SideBoth}, conn, &streams.cli, &streams.srv)
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
		key := dcerpc.ChanKey{Trace: trace, Conn: rec.FirstIdx, Side: dcerpc.SideBoth}
		ap.rpc.Stream(key, app.cliBuf.Buf)
		ap.rpc.Stream(key, app.srvBuf.Buf)
	case "FTP":
		if conn.Key.DstPort == 21 {
			ap.ftpSession(trace, rec.FirstIdx, ftp.Analyze(app.cliBuf.Buf, app.srvBuf.Buf))
		}
	}
}

// partitionByPair lists, per replay shard, the indices of the n items
// whose host pair (pair(i)) maps there, in index order. One allocation
// backs every shard's list.
func partitionByPair(n, nshard int, pair func(i int) (netip.Addr, netip.Addr)) [][]int32 {
	shardOf := make([]uint8, n) // nshard ≤ maxReplayWorkers
	counts := make([]int, nshard)
	for i := range shardOf {
		x, y := pair(i)
		s := pairShard(x, y, nshard)
		shardOf[i] = uint8(s)
		counts[s]++
	}
	flat := make([]int32, n)
	out := make([][]int32, nshard)
	off := 0
	for s, c := range counts {
		out[s] = flat[off : off : off+c]
		off += c
	}
	for i, s := range shardOf {
		out[s] = append(out[s], int32(i))
	}
	return out
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

// mergeUDPEvents collects every shard's captured datagrams into global
// arrival order. Each shard's slice is already sorted by global index
// (packets route to a pipeline worker in read order), so this is a
// k-way merge of sorted runs, one per worker, not a sort; idx values are
// unique, so the order is total.
func mergeUDPEvents(sinks []*shardSink) []udpEvent {
	runs := make([][]udpEvent, 0, len(sinks))
	for _, s := range sinks {
		runs = append(runs, s.udp)
	}
	return kmerge.MergeBy(runs, func(e udpEvent) int64 { return e.idx })
}
