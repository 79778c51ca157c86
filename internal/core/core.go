// Package core is the paper's analysis pipeline as a library: it consumes
// packet traces (generated or read from pcap files), performs the §3
// scanner removal, and produces every table and figure of the paper as
// structured data — network/transport/application breakdowns, locality
// and origins, per-application characterizations, and network load.
//
// The pipeline mirrors the paper's Bro-based methodology: packets are
// decoded, grouped into connections, TCP streams are reassembled and
// handed to application analyzers, and all statistics are computed from
// what is visible on the wire.
package core

import (
	"maps"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enttrace/internal/categories"
	"enttrace/internal/enterprise"
	"enttrace/internal/fleet"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
)

// Options configures an Analyzer.
type Options struct {
	// Dataset labels the report (e.g. "D3").
	Dataset string
	// KnownScanners are removed regardless of the heuristic.
	KnownScanners []netip.Addr
	// PayloadAnalysis enables application-layer parsing. The paper
	// disables it for the 68-byte-snaplen datasets (D1, D2).
	PayloadAnalysis bool
	// Workers is the streaming pipeline's shard count; 0 uses GOMAXPROCS,
	// read when the first trace is added. Reports are bit-identical for
	// any worker count.
	Workers int
	// ReplayWorkers is the deterministic replay's worker count: the
	// application-analysis stage (payload parsing, UDP message dispatch,
	// transport accumulation) fans out across this many goroutines, each
	// accumulating into its own aggregate shard, merged canonically at
	// report time. 0 uses GOMAXPROCS. Reports are bit-identical for any
	// count.
	ReplayWorkers int
	// Window enables epoch rotation: when > 0, the analyzer cuts the
	// run into windows of this duration in packet time (aligned to the
	// first packet of the first trace) and makes a per-window Report
	// available for each, while the cumulative report stays
	// byte-identical to a run without windowing. 0 disables windowing:
	// the same accumulation path runs with no boundaries, into one slot
	// that never closes, so nothing is cut per window.
	Window time.Duration
	// OnWindow, when set (requires Window > 0), receives each window's
	// report as the event-time watermark passes its end — for most
	// windows while their trace is still replaying, as soon as every
	// replay worker has passed them. Reports emitted mid-run are
	// provisional when later traces overlap the window in event time;
	// WindowReports() at end of run is the canonical view.
	//
	// The callback runs on whichever goroutine completes the window: a
	// replay worker's, or the caller's of Add* at trace end. Calls are
	// serialized and arrive in window-index order, and all of a trace's
	// calls happen before its Add* returns. The callback may read the
	// Analyzer's concurrency-safe accessors (WindowReport, ExportWindow,
	// Watermark, …) but must not call Add* or Report, which must not race
	// an in-flight Add*.
	OnWindow func(*WindowReport)
	// OnError selects the source read-error policy. The zero value is
	// pipeline.FailFast (any source error aborts the trace, the
	// historical behavior); pipeline.Degrade skips poisoned records,
	// keeps the healthy traffic, and folds a SourceError census into the
	// report instead.
	//
	// A FailFast abort is sticky. The replay takes in a trace's UDP
	// messages while the trace is still read, so an abort mid-trace
	// leaves part of that trace in the Analyzer; it keeps the first such
	// error, and every later Add* returns it without reading anything.
	// The Analyzer is done at that point: see Report.
	OnError pipeline.ErrorPolicy
	// IdleEvict, when > 0, ends any connection idle past this horizon
	// and sweeps it out of the live table, bounding memory on indefinite
	// runs. Evicted-then-revived flows split deterministically (the
	// split depends only on the flow's own timestamps), and connections
	// still idle past the horizon at end of trace are counted as the
	// report's AgedOut disposition — computed from the trace-wide
	// event-time extent, so it is bit-identical for any worker count.
	IdleEvict time.Duration
	// MaxConns, when > 0, hard-bounds the live connection count across
	// all shards (each shard gets an equal slice). A lossy backstop: when
	// it fires, reports are no longer worker-count-invariant, and the
	// eviction count is surfaced in the report so such runs are
	// identifiable.
	MaxConns int
	// WindowOrigin, when set (requires Window > 0), pins the window
	// clock instead of aligning it to the first packet. Fleet members
	// must share one origin so every site cuts windows on the same
	// boundaries as the aggregator's single-instance equivalent.
	WindowOrigin time.Time
	// TraceBase offsets this analyzer's trace ordinals (the per-trace
	// sequence numbers that key cross-trace application state and order
	// FTP session lists). A fleet member analyzing traces k..k+m-1 of
	// the logical concatenated run sets TraceBase=k so its exported
	// snapshots merge into the same canonical order a single instance
	// over all traces would produce.
	TraceBase int

	// bufferStreams makes every reassembled protocol keep its stream
	// bytes for replay to parse, as all of them did before they had
	// stream parsers. Only the byte-identity differential sets it: the
	// buffered path is its reference.
	bufferStreams bool
	// batchSize, when > 0, replaces the pipeline's batch size
	// (pipeline.Config.BatchSize), the granularity at which the packet
	// stage hands connections and datagrams to the replay. Only the
	// batch-size differential sets it.
	batchSize int
}

// TraceInput is one monitored-subnet trace.
type TraceInput struct {
	Name string
	// Monitored is the traced subnet's prefix; hosts inside it count as
	// "monitored" for fan-in/fan-out.
	Monitored netip.Prefix
	Packets   []*pcap.Packet
}

// Analyzer accumulates dataset-wide statistics across traces.
type Analyzer struct {
	opts Options

	// registry classifies connections: Table 4's static ports plus the
	// FTP-data and Endpoint-Mapper ports phase A registers as it replays.
	registry *categories.Registry

	// windowStore holds the run's windows: the Analyzer is its one local
	// site, whose slots are the run's only accumulation. An unwindowed run
	// is one slot that never closes.
	*windowStore

	// apps holds the serial (phase A) application state — the Endpoint
	// Mapper PDU accounting that rides along with port registration.
	// Everything else application-level accumulates in replayWorkers.
	apps *appAggregates

	// replayWorkers are the replay workers' shards: each holds its
	// worker's share until a cut (unwindowed, Report's drain) moves it
	// out, leaving only pairing state. A host pair always hashes to the
	// same worker, so cross-trace pairing state stays worker-local.
	replayWorkers []*epochAgg
	// feed hands each trace to the replay workers while it is read.
	feed *traceFeed

	traceCount int

	// err is the error that aborted a trace's read (see Options.OnError):
	// once set, every Add* returns it without reading.
	err error

	// packetsSeen is the run's packet total, for lock-free progress reads
	// (the serve-mode health endpoint polls it mid-trace).
	packetsSeen atomic.Int64

	// stopFlag requests a graceful drain: the pipeline stops reading at
	// the next packet boundary, drains what is already routed, and the
	// in-flight Add* returns normally with everything processed so far
	// accounted.
	stopFlag atomic.Bool

	// liveConns is the resident connection count across every shard
	// table (serve-mode health reads it mid-trace).
	liveConns atomic.Int64

	// srcErrsLive counts source errors as the Degrade policy folds them,
	// ahead of the end-of-trace census (health endpoints poll it).
	srcErrsLive atomic.Int64
}

// Stop requests a graceful drain of any in-flight Add* call: intake
// stops at the next packet boundary, already-routed packets drain, and
// the call returns normally with everything read so far accounted.
// Subsequent Add* calls return immediately without reading. Safe for
// concurrent use (signal handlers, HTTP handlers).
func (a *Analyzer) Stop() { a.stopFlag.Store(true) }

// Stopping reports whether Stop has been called.
func (a *Analyzer) Stopping() bool { return a.stopFlag.Load() }

// LiveConns returns the resident (not yet finished) connection count
// across all shard tables. Safe for concurrent use with Add*.
func (a *Analyzer) LiveConns() int64 { return a.liveConns.Load() }

// SourceErrorsSeen returns the running count of source read errors the
// Degrade policy has folded, across all traces, updated mid-trace.
// Safe for concurrent use with Add*.
func (a *Analyzer) SourceErrorsSeen() int64 { return a.srcErrsLive.Load() }

// locSplit separates enterprise-internal from WAN-crossing traffic.
type locSplit struct {
	Ent, Wan int64
}

// NewAnalyzer returns an Analyzer for one dataset.
func NewAnalyzer(opts Options) *Analyzer {
	a := &Analyzer{
		opts:        opts,
		registry:    categories.NewRegistry(),
		windowStore: newWindowStore(opts.Dataset, opts.Window),
		apps:        newAppAggregates(),
	}
	a.local, a.onWindow = a.site(""), opts.OnWindow
	a.traceCount = opts.TraceBase
	a.setOrigin(opts.WindowOrigin)
	return a
}

// AddTrace processes one in-memory trace through the streaming pipeline.
func (a *Analyzer) AddTrace(tr TraceInput) error {
	return a.AddTraceSource(tr.Name, tr.Monitored, pcap.NewSliceSource(tr.Packets))
}

// AddTraceSource runs one trace from an arbitrary packet source through
// the pipeline — this is the analyzer's ingest seam. A source can be a
// replayed file, an in-memory trace, or a gen.StreamSource synthesizing
// frames on the fly (the soak-mode load harness): the
// analysis below the seam is source-blind, so a streamed schedule and a
// pcap round-trip of the same frames report byte-identically. If src
// implements pcap.Releaser, its packets are recycled as soon as analysis
// is done with them, keeping memory bounded however long the source
// runs. See DESIGN.md "Packet sources".
//
// The trace runs through the sharded pipeline and the per-shard results
// merge deterministically: packet-level accumulators merge in shard
// order (all integer/set unions), and everything order-sensitive —
// scanner detection, dynamic port registration, application parsing —
// replays in global first-packet order, which is identical for any
// worker count. What of that order depends on nothing end of input
// decides — the canonical connection list, each replay shard's share of
// it, the UDP message pass and the scanner census of the settled
// connections — is built while the source is read (traceFeed); the rest
// starts when it runs dry.
func (a *Analyzer) AddTraceSource(name string, monitored netip.Prefix, src pcap.PacketSource) error {
	if a.err != nil {
		return a.err
	}
	feed := a.ensureFeed()
	defer feed.reset()
	feed.start(a.opts.KnownScanners, a.opts.PayloadAnalysis)
	// MaxConns bounds the whole run; each shard table gets an equal
	// slice of it.
	perShard := 0
	if a.opts.MaxConns > 0 {
		perShard = max(a.opts.MaxConns/len(feed.in), 1)
	}
	var sinks []*shardSink
	res, err := pipeline.Run(src, pipeline.Config{
		Workers:   len(feed.in),
		BatchSize: a.opts.batchSize,
		Flows: flows.Config{
			IdleTimeout: a.opts.IdleEvict,
			MaxConns:    perShard,
			LiveGauge:   &a.liveConns,
		},
		OnError:    a.opts.OnError,
		Stopped:    a.stopFlag.Load,
		ErrCounter: &a.srcErrsLive,
		NewSink: func(shard int, base time.Time) pipeline.Sink {
			// The UDP pass cuts windows while the trace is read, so the
			// window clock is pinned at the first packet.
			a.setOrigin(base)
			s := newShardSink(&a.opts, a.registry, monitored, base, feed, shard)
			sinks = append(sinks, s)
			return s
		},
	})
	feed.finish()
	if err != nil {
		// The replay shards hold part of the trace's datagrams, banked as
		// at a trace end: nothing after this may add to the Analyzer.
		a.err = err
		feed.abort()
		return err
	}
	a.traceCount++
	a.packetsSeen.Add(res.Packets)

	// What is left runs as a small dependency graph, each step as soon as
	// its inputs are: the load series needs only the bins, the fan the
	// finished census, the retransmission sums the kept mask and
	// counters nothing writes any more. The two helper goroutines read
	// what nothing mutates — the sinks' bins, connection fields and the
	// census — and hand back what the caller folds into the trace delta,
	// which the replay workers never touch.
	ord := a.traceCount
	var load TraceLoad
	var helpers sync.WaitGroup
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		shardBins := make([][]int64, len(sinks))
		for i, s := range sinks {
			shardBins[i] = s.bins
		}
		load = traceSeries(mergedTraceLoad(name, shardBins), ord)
	}()

	// Trace-granular accumulation target: a fresh per-trace delta,
	// banked into the window containing the trace's last packet once the
	// trace's event-time extent (and hence the watermark) is known.
	tgt := newTraceDelta()
	tgt.totalPackets += res.Packets
	tgt.traceCount++

	// Degraded-run accounting: the trace's source-error census and the
	// MaxConns backstop's eviction count ride the same trace-granular
	// delta as every other accumulator.
	tgt.capEvicted += res.CapEvicted
	if len(res.SourceErrors) > 0 {
		tse := TraceSourceErrors{
			Trace:      name,
			ord:        a.traceCount,
			ByKind:     make(map[string]int64),
			FirstIndex: res.SourceErrors[0].Index,
			LastIndex:  res.SourceErrors[len(res.SourceErrors)-1].Index,
		}
		for _, se := range res.SourceErrors {
			tse.Errors++
			tse.LostBytes += se.Lost
			tse.ByKind[se.Kind]++
			if se.Terminal {
				tse.Terminal = true
			}
		}
		tgt.srcErrs = append(tgt.srcErrs, tse)
	}

	// Packet-level merges, in shard order. maxTS is the trace's
	// event-time extent: every shard has drained, so the slowest
	// worker's high-water mark is behind it.
	var maxTS time.Time
	for _, s := range sinks {
		s.foldNetLayer(tgt.netLayer)
		maps.Copy(tgt.monitoredHosts, s.monHosts)
		maps.Copy(tgt.localHosts, s.localHosts)
		maps.Copy(tgt.remoteHosts, s.remoteHosts)
		if s.maxTS.After(maxTS) {
			maxTS = s.maxTS
		}
	}

	// Canonical connection order: by first packet, across all shards —
	// built by the feed as the trace was read. §3 scanner removal: the
	// census observed the settled prefix of that order during the read;
	// it observes the rest now and classifies.
	conns := feed.conns
	tgt.totalConns += len(conns)
	census := feed.census.Finish(conns)
	tgt.removedConns += census.RemovedConns
	for _, s := range census.Scanners {
		tgt.scanners[s] = struct{}{}
	}
	// Figure 2 fan: the kept pairs are the kept connections' distinct
	// edges, so it needs no sort.
	var fan map[netip.Addr]*flows.FanStats
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		fan = flows.FanInOut(census.Pairs, monitored.Contains, enterprise.IsLocal)
	}()

	// Application replay: the rest of the UDP messages, dynamic
	// registrations, transport accumulation, payload parsing — all in
	// canonical order. The serial phase (dynamic registrations) runs
	// inline; the parallel phase is left in flight beside the helpers.
	// The workers bank and emit the windows they have all passed as they
	// go.
	join := a.replayApps(feed, census.Kept, maxTS)
	join()
	helpers.Wait()
	load.retrans(conns, census.Kept)
	tgt.load.traces = append(tgt.load.traces, load)
	tgt.fanAgg = fan

	// The phase-A application residue (Endpoint Mapper PDU accounting)
	// rides the trace-granular delta; the cut keeps the registry pairing
	// state (RPC binds) for later traces. Bank the delta into the window
	// of the trace's last packet, then emit what that completes.
	tgt.apps = fleet.Cut(a.apps)
	a.finishTrace(tgt, maxTS)
	return nil
}

// ensureFeed lazily builds the per-worker replay states and the feed
// that hands them each trace as it is read. Both widths — replay workers
// and pipeline workers — are fixed at first use, so the pair→shard
// assignment stays stable for the Analyzer's lifetime.
func (a *Analyzer) ensureFeed() *traceFeed {
	if a.feed == nil {
		n := a.opts.ReplayWorkers
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		if n > maxReplayWorkers {
			n = maxReplayWorkers
		}
		a.replayWorkers = make([]*epochAgg, n)
		for i := range a.replayWorkers {
			a.replayWorkers[i] = &epochAgg{connAggregates: *newConnAggregates(), apps: newAppAggregates()}
		}
		workers := a.opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		a.feed = newTraceFeed(a.windowStore, a.replayWorkers, workers)
	}
	return a.feed
}

// maxReplayWorkers bounds the replay fan-out; beyond this the per-shard
// aggregate fixed costs outweigh any parallelism.
const maxReplayWorkers = 64

// drainLocked moves what an unwindowed run's replay workers hold into
// its one slot, in shard order: they never cut, so that is all they
// replayed since the last drain. A windowed run's workers have banked
// every cut by each trace's end. Cutting unwindowed shards at every
// trace end instead keeps the report bytes but regrows each shard's
// maps per trace: replay/D3 in TestAllocationCeilings measured ≈15 550
// allocs/op at workers=4 (recorded 13 477) and ≈18 190 at workers=8
// (recorded 14 890). Callers hold a.mu and, unwindowed, must not race an
// in-flight Add*.
func (a *Analyzer) drainLocked() {
	if a.dur > 0 {
		return
	}
	for _, shard := range a.replayWorkers {
		if d := fleet.Cut(shard); d != nil {
			fleet.Merge(a.bankedLocked(0), d)
		}
	}
}

// PacketsSeen returns the running packet total across all traces added
// so far, for progress reporting by streaming callers. Safe for
// concurrent use with Add* (the serve-mode health endpoint polls it).
func (a *Analyzer) PacketsSeen() int64 { return a.packetsSeen.Load() }

// accumulateConn feeds Table 3, Figure 1, and the §4 origin mix into a
// replay worker's connection-level shard (folded at join). cat is the
// connection's Figure 1 category from the phase-A classification
// snapshot, so every report section sees the same verdict and phase B
// never consults the registry.
func (a *Analyzer) accumulateConn(ca *connAggregates, c *flows.Conn, cat string) {
	var tname string
	switch c.Proto {
	case layers.ProtoTCP:
		tname = "TCP"
	case layers.ProtoUDP:
		tname = "UDP"
	case layers.ProtoICMP:
		tname = "ICMP"
	default:
		tname = "Other"
	}
	ca.transBytes.Add(tname, c.PayloadBytes())
	ca.transConns.Inc(tname)

	srcLocal := enterprise.IsLocal(c.Key.Src)
	dstLocal := enterprise.IsLocal(c.Key.Dst)

	// §4 origins.
	switch {
	case c.Multicast && srcLocal:
		ca.origins.Inc("multicast-internal")
	case c.Multicast:
		ca.origins.Inc("multicast-external")
	case srcLocal && dstLocal:
		ca.origins.Inc("ent-ent")
	case srcLocal:
		ca.origins.Inc("ent-wan")
	default:
		ca.origins.Inc("wan-ent")
	}

	// Figure 1 considers unicast traffic; multicast is reported
	// separately in the text.
	if cat == "" {
		return
	}
	wan := !(srcLocal && dstLocal)
	key := cat
	if c.Multicast {
		key = cat + "/multicast"
	}
	bs := ca.catBytes[key]
	if bs == nil {
		bs = &locSplit{}
		ca.catBytes[key] = bs
	}
	cs := ca.catConns[key]
	if cs == nil {
		cs = &locSplit{}
		ca.catConns[key] = cs
	}
	if wan {
		bs.Wan += c.PayloadBytes()
		cs.Wan++
	} else {
		bs.Ent += c.PayloadBytes()
		cs.Ent++
	}
}

// connWAN reports whether a connection crosses the enterprise border.
func connWAN(c *flows.Conn) bool {
	return !(enterprise.IsLocal(c.Key.Src) && enterprise.IsLocal(c.Key.Dst))
}
