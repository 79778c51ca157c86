package core

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"

	"enttrace/internal/appproto/dns"
	"enttrace/internal/categories"
	"enttrace/internal/fleet"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/stats"
)

// Report carries every reproduced table and figure for one dataset —
// for the whole run, or, when windowing is enabled, for one time window
// (Window non-nil). Every fraction in a Report is guarded against
// zero-denominator inputs: an empty window renders as zeros, never
// NaN/Inf, which also keeps the JSON encoding valid.
type Report struct {
	Dataset string

	// Window labels a per-window report; nil on cumulative reports.
	Window *WindowMeta `json:",omitempty"`

	Table1 DatasetStats
	Table2 map[string]float64 // network-layer packet fractions
	Table3 TransportBreakdown
	Scan   ScanSummary

	Figure1 []CategoryRow
	Figure2 FanReport
	Origins map[string]float64

	HTTP        HTTPReport
	Email       EmailReport
	Names       NameServiceReport
	Windows     WindowsReport
	FileSvc     FileServiceReport
	Bulk        BulkReport
	Interactive InteractiveReport
	Backup      BackupReport
	Load        LoadReport

	// Hostile is the hostile-input census: what the reassembly and decode
	// layers saw that well-formed traffic never produces (extension; see
	// DESIGN.md on the overlap-conflict policy).
	Hostile HostileReport

	// SourceErrors is the degraded-run census: source read failures the
	// Degrade error policy skipped, plus the bounded-memory dispositions
	// (extension; see DESIGN.md "Failure policy & degraded runs"). All
	// zeros on a clean fail-fast run.
	SourceErrors SourceErrorReport

	// Fleet is the fleet-mode degradation census: which sites are
	// missing which windows from this merged report (extension; see
	// DESIGN.md "Fleet aggregation"). Nil on single-instance runs and on
	// complete fleet merges, so a clean fleet report stays byte-identical
	// to its single-instance equivalent.
	Fleet *FleetReport `json:",omitempty"`

	Findings []string // Table 5: computed qualitative findings
}

// FleetReport is the fleet degradation census: one entry per site with
// at least one window missing or permanently lost from the merged
// report (complete sites are omitted — an empty census is a nil Fleet
// section). Sites sort by name, window lists ascend, and a permanently
// lost window appears exactly once, in its site's LostWindows.
type FleetReport struct {
	Sites []FleetSiteReport
}

// FleetSiteReport is one degraded site's census row.
type FleetSiteReport struct {
	Site string
	// Fin reports whether the site declared itself complete.
	Fin bool
	// Windows counts the site's snapshots folded into the report.
	Windows int
	// LostWindows are windows the site's shipper declared permanently
	// dropped (bounded-queue eviction or give-up) and never superseded
	// with a delivery.
	LostWindows []int `json:",omitempty"`
	// MissingWindows are windows expected from this site but neither
	// delivered nor declared lost — the site is lagging, stale, or dead.
	MissingWindows []int `json:",omitempty"`
}

// DatasetStats is Table 1's per-dataset row (measured, not configured).
type DatasetStats struct {
	Packets        int64
	Traces         int
	MonitoredHosts int
	LocalHosts     int
	RemoteHosts    int
}

// TransportBreakdown is Table 3.
type TransportBreakdown struct {
	TotalBytes int64
	TotalConns int64
	BytesFrac  map[string]float64
	ConnsFrac  map[string]float64
}

// ScanSummary reports the §3 scanner removal.
type ScanSummary struct {
	Scanners        int
	RemovedConns    int
	TotalConns      int
	RemovedFraction float64
}

// HostileReport is the hostile-input census. The byte ledger satisfies
// IngestBytes == DeliveredBytes + DuplicateBytes + ConflictBytes +
// DiscardedBytes exactly (streams are closed or discarded before the
// census is taken), and the fractions are zero-denominator-safe.
type HostileReport struct {
	// Streams is the number of reassembled stream directions that carried
	// at least one payload byte.
	Streams int64
	// The reassembly byte ledger, summed over those streams.
	IngestBytes     int64
	DeliveredBytes  int64
	DuplicateBytes  int64
	ConflictBytes   int64
	DiscardedBytes  int64
	GapSkippedBytes int64
	// Event counts.
	GapEvents  int64
	WrapEvents int64
	// PeakPendingBytes is the largest out-of-order backlog any single
	// stream direction reached (bounded by the reassembler's MaxPending).
	PeakPendingBytes int64
	// BogusRSTs counts RST segments whose sequence number disagreed with
	// the reassembly cursor; PostRSTDataSegments counts payload segments
	// seen after any RST on the connection.
	BogusRSTs           int64
	PostRSTDataSegments int64
	// UndecodableFrames counts frames the packet decoder rejected
	// (truncated or corrupt link/IP/transport headers).
	UndecodableFrames int64
	// Shares of ingested bytes (0 when nothing was ingested).
	DuplicateFrac float64
	ConflictFrac  float64
	// GapFrac is gap-skipped sequence space over delivered+skipped.
	GapFrac float64
}

// SourceErrorReport is the degraded-run census for one epoch (the run,
// or one window): every source read failure the Degrade policy folded,
// plus the bounded-memory dispositions. Sum-of-windows equals the
// cumulative on every field (the per-trace entries bank into the window
// of the trace's last packet; AgedOut follows the connection banking).
type SourceErrorReport struct {
	// Errors and LostBytes total the per-trace entries below.
	Errors    int64
	LostBytes int64
	// ByKind counts errors per census kind ("read-error", "torn-record",
	// "short-read", "early-eof", ...).
	ByKind map[string]int64 `json:",omitempty"`
	// AgedOutConns counts connections idle past the IdleEvict horizon at
	// the end of their trace; CapEvictedConns counts MaxConns-backstop
	// evictions (nonzero only when the lossy backstop actually fired).
	AgedOutConns    int64
	CapEvictedConns int64
	// Traces carries the per-trace census entries, in banking order.
	Traces []TraceSourceErrors `json:",omitempty"`
}

// TraceSourceErrors is one trace's source-error census.
type TraceSourceErrors struct {
	Trace     string
	Errors    int64
	LostBytes int64
	ByKind    fleet.Map[string, int64]
	// FirstIndex/LastIndex are the packet-stream offsets (packets
	// delivered before the error) of the trace's first and last errors.
	FirstIndex, LastIndex int64
	// Terminal marks a trace a fault ended early.
	Terminal bool

	// ord is the trace's global ordinal (TraceBase-offset), used to
	// restore trace order after a window-major fleet fold. Unexported:
	// absent from JSON, carried by the fleet snapshot codec.
	ord int
}

// CategoryRow is one Figure 1 bar: the category's share of unicast
// payload bytes and connections, split enterprise vs WAN-crossing.
type CategoryRow struct {
	Category string
	BytesEnt float64
	BytesWan float64
	ConnsEnt float64
	ConnsWan float64
	// Multicast shares (the text's 5–10% observations).
	BytesMulticast float64
	ConnsMulticast float64
}

// BytesTotal is the category's total share of bytes.
func (c CategoryRow) BytesTotal() float64 { return c.BytesEnt + c.BytesWan }

// ConnsTotal is the category's total share of connections.
func (c CategoryRow) ConnsTotal() float64 { return c.ConnsEnt + c.ConnsWan }

// FanReport is Figure 2: fan-in and fan-out CDFs, enterprise vs WAN peers.
type FanReport struct {
	FanInEnt, FanInWan, FanOutEnt, FanOutWan []stats.CDFPoint
	// OnlyInternalFanIn/Out: fraction of monitored hosts whose peers are
	// all internal.
	OnlyInternalFanIn  float64
	OnlyInternalFanOut float64
	Hosts              int
}

// HTTPReport is §5.1.1.
type HTTPReport struct {
	// Table 6: internal HTTP automated-activity shares.
	InternalRequests int64
	InternalBytes    int64
	Automated        map[string]AutomatedShare
	// Figure 3: fan-out CDFs (clients → distinct servers).
	FanOutEnt, FanOutWan     []stats.CDFPoint
	NEntClients, NWanClients int
	// Connection success by host pair.
	SuccessEnt, SuccessWan float64
	PairsEnt, PairsWan     int
	// Conditional GET shares.
	CondEnt, CondWan           float64
	CondBytesEnt, CondBytesWan float64
	// Table 7: content classes.
	ContentReqEnt, ContentReqWan   map[string]float64
	ContentByteEnt, ContentByteWan map[string]float64
	// Figure 4: reply body sizes.
	ReplySizeEnt, ReplySizeWan []stats.CDFPoint
	// GET share of requests and request success rate.
	GETFrac, RequestSuccess float64
	// HTTPS: the anomalous busiest pair's connection count.
	MaxHTTPSConnsPerPair int64
}

// AutomatedShare is one Table 6 row.
type AutomatedShare struct {
	ReqFrac, ByteFrac float64
}

// EmailReport is §5.1.2.
type EmailReport struct {
	// Table 8: bytes by protocol.
	Bytes map[string]int64
	// Figure 5: connection durations (seconds).
	SMTPDurEnt, SMTPDurWan               []stats.CDFPoint
	IMAPSDurEnt, IMAPSDurWan             []stats.CDFPoint
	MedianSMTPDurEnt, MedianSMTPDurWan   float64
	MedianIMAPSDurEnt, MedianIMAPSDurWan float64
	// Figure 6: flow sizes (bytes).
	SMTPSizeEnt, SMTPSizeWan   []stats.CDFPoint
	IMAPSSizeEnt, IMAPSSizeWan []stats.CDFPoint
	// Success rates by host pair.
	SMTPSuccessEnt, SMTPSuccessWan, IMAPSSuccess float64
}

// NameServiceReport is §5.1.3.
type NameServiceReport struct {
	DNSMedianLatencyEntMs float64
	DNSMedianLatencyWanMs float64
	DNSTypes              map[string]float64
	DNSRcodes             map[string]float64
	// Top-10 client share of requests. The paper finds DNS concentrated
	// and NBNS spread (top ten < 40%); the DNS half is not reproduced:
	// the generator gives every client 7–17 lookups a trace, so the top
	// ten carry about 4% of DNS requests (EXPERIMENTS, §5.1.3 row).
	DNSTop10ClientShare  float64
	NBNSTop10ClientShare float64
	NBNSOps              map[string]float64
	NBNSNameTypes        map[string]float64
	NBNSFailureRate      float64
}

// WindowsReport is §5.2.1.
type WindowsReport struct {
	// Table 9: per-service host-pair outcomes.
	Table9 map[string]ServiceOutcome
	// Netbios/SSN application-level handshake success.
	SSNHandshakeSuccess float64
	// Table 10: CIFS command mix.
	CIFSRequests map[string]float64
	CIFSBytes    map[string]float64
	// Table 11: DCE/RPC function mix.
	RPCRequests map[string]float64
	RPCBytes    map[string]float64
	// Total raw counts for context.
	CIFSTotalRequests, RPCTotalRequests int64
}

// ServiceOutcome is one Table 9 column.
type ServiceOutcome struct {
	Pairs                         int
	Success, Rejected, Unanswered float64
}

// FileServiceReport is §5.2.2.
type FileServiceReport struct {
	// Table 12-ish: totals.
	NFSRequests, NCPRequests   int64
	NFSDataBytes, NCPDataBytes int64
	// Tables 13–14: request mixes.
	NFSRequestMix, NCPRequestMix map[string]float64
	NFSByteMix, NCPByteMix       map[string]float64
	// Figure 7: requests per host pair.
	NFSPerPair, NCPPerPair []stats.CDFPoint
	// Top-3 pair share of requests (heavy hitters).
	NFSTop3Share, NCPTop3Share float64
	// Figure 8: message sizes.
	NFSReqSizes, NFSReplySizes []stats.CDFPoint
	NCPReqSizes, NCPReplySizes []stats.CDFPoint
	// Success rates.
	NFSSuccess, NCPSuccess float64
	// UDP vs TCP host pairs for NFS.
	NFSUDPPairs, NFSTCPPairs int
	// NCP keep-alive-only connection fraction.
	NCPKeepAliveOnlyFrac float64
}

// InteractiveReport quantifies the paper's two §3/§5 remarks about
// interactive traffic: packets are small (the category's packet share is
// about twice its byte share) and SSH moonlights as a bulk mover.
type InteractiveReport struct {
	SSHConns int64
	// SSHBulkFrac is the fraction of SSH connections moving ≥200 KB —
	// file copies and tunnels rather than keystrokes.
	SSHBulkFrac float64
	// MeanSSHPayloadPerPkt is the average payload per packet (bytes),
	// small for keystroke-dominated traffic.
	MeanSSHPayloadPerPkt float64
}

// BulkReport covers the bulk category's constituents: FTP sessions
// (control-channel level) and the data volumes moved by FTP and HPSS.
type BulkReport struct {
	FTPSessions  int
	FTPTransfers int
	FTPLoginRate float64
	FTPDataConns int64
	FTPDataBytes int64
	HPSSBytes    int64
}

// BackupReport is Table 15.
type BackupReport struct {
	Conns map[string]int64
	Bytes map[string]int64
	// DantzBidirFrac: Dantz connections with ≥100 KB in both directions.
	DantzBidirFrac float64
}

// LoadReport is §6.
type LoadReport struct {
	Traces []TraceLoad
	// Figure 9 aggregate distributions over traces.
	Peak1s, Peak10s, Peak60s []stats.CDFPoint
	MedianOfMedians          float64
	MaxRetransEnt            float64
	// MedianHurst is the median per-trace Hurst estimate (self-similarity
	// extension; 0 when no trace was long enough).
	MedianHurst float64
	// Fractions of traces whose retransmission rate exceeds 1%.
	EntOver1Pct, WanOver1Pct float64
}

// Report finalizes all accumulated state into the dataset report: the
// fold of the run's windows, as a one-site Fleet folds them (an
// unwindowed run's one slot, the replay workers drained into it, is read
// in place). It is byte-identical for any window length and worker
// count, however often it is taken. Must not race an in-flight Add*.
//
// After an Add* has failed under FailFast (Options.OnError), the report
// is not one of whole traces: the replay shards had already taken in
// part of the aborted trace's UDP messages, and they banked them as at a
// trace end. Its Table 1 counts the completed traces alone. Stop at the
// first error to keep only completed traces.
func (a *Analyzer) Report() *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drainLocked()
	return buildReport(a.opts.Dataset, foldSlots(a.heldLocked()), nil)
}

// frac is num/den guarded against empty denominators: a quiet window
// must render 0%, never NaN or Inf (which would also poison the JSON
// encoding). Every ratio in this file goes through it.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// buildReport renders one epoch aggregate (the whole run or one window)
// into the dataset report.
func buildReport(dataset string, e *epochAgg, win *WindowMeta) *Report {
	ap := e.apps.dense()
	r := &Report{Dataset: dataset, Window: win}
	r.Table1 = DatasetStats{
		Packets:        e.totalPackets,
		Traces:         e.traceCount,
		MonitoredHosts: len(e.monitoredHosts),
		LocalHosts:     len(e.localHosts),
		RemoteHosts:    len(e.remoteHosts),
	}
	r.Table2 = counterFractions(e.netLayer)
	r.Table3 = TransportBreakdown{
		TotalBytes: e.transBytes.Total(),
		TotalConns: e.transConns.Total(),
		BytesFrac:  counterFractions(e.transBytes),
		ConnsFrac:  counterFractions(e.transConns),
	}
	r.Scan = ScanSummary{
		Scanners:        len(e.scanners),
		RemovedConns:    e.removedConns,
		TotalConns:      e.totalConns,
		RemovedFraction: frac(float64(e.removedConns), float64(e.totalConns)),
	}
	r.Figure1 = e.categoryRows()
	r.Figure2 = e.fanReport()
	r.Origins = counterFractions(e.origins)
	// Order-bearing collections restore canonical first-packet order
	// before anything walks them (idempotent; shard and window merges
	// append out of order).
	ap.sortFTPSessions()
	r.HTTP = httpReport(ap)
	r.Email = emailReport(ap)
	r.Names = nameReport(ap)
	r.Windows = windowsReport(ap)
	r.FileSvc = fileReport(ap)
	r.Bulk = bulkReport(ap)
	r.Interactive = interactiveReport(ap)
	r.Backup = backupReport(ap)
	r.Load = e.loadReport()
	r.Hostile = e.hostileReport()
	r.SourceErrors = e.sourceErrorReport()
	r.Findings = findings(r)
	return r
}

// counterFractions is each key's share of c's total, read in one walk
// of the table.
func counterFractions(c *stats.Counter) map[string]float64 {
	entries := c.Entries()
	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		out[e.Key] = frac(float64(e.N), float64(c.Total()))
	}
	return out
}

// counterCounts is c's count per key, read in one walk of the table.
func counterCounts(c *stats.Counter) map[string]int64 {
	entries := c.Entries()
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		out[e.Key] = e.N
	}
	return out
}

func (e *epochAgg) categoryRows() []CategoryRow {
	var totalBytes, totalConns int64
	for _, s := range e.catBytes {
		totalBytes += s.Ent + s.Wan
	}
	for _, s := range e.catConns {
		totalConns += s.Ent + s.Wan
	}
	if totalBytes == 0 {
		totalBytes = 1
	}
	if totalConns == 0 {
		totalConns = 1
	}
	var rows []CategoryRow
	for _, cat := range categories.All {
		row := CategoryRow{Category: cat}
		if s := e.catBytes[cat]; s != nil {
			row.BytesEnt = float64(s.Ent) / float64(totalBytes)
			row.BytesWan = float64(s.Wan) / float64(totalBytes)
		}
		if s := e.catConns[cat]; s != nil {
			row.ConnsEnt = float64(s.Ent) / float64(totalConns)
			row.ConnsWan = float64(s.Wan) / float64(totalConns)
		}
		if s := e.catBytes[cat+"/multicast"]; s != nil {
			row.BytesMulticast = float64(s.Ent+s.Wan) / float64(totalBytes)
		}
		if s := e.catConns[cat+"/multicast"]; s != nil {
			row.ConnsMulticast = float64(s.Ent+s.Wan) / float64(totalConns)
		}
		rows = append(rows, row)
	}
	return rows
}

func (e *epochAgg) fanReport() FanReport {
	fr := FanReport{Hosts: len(e.fanAgg)}
	fiEnt, fiWan := stats.NewDist(), stats.NewDist()
	foEnt, foWan := stats.NewDist(), stats.NewDist()
	onlyIntIn, onlyIntOut, haveIn, haveOut := 0, 0, 0, 0
	for _, s := range e.fanAgg {
		if s.FanIn() > 0 {
			haveIn++
			fiEnt.Observe(float64(s.FanInLocal))
			fiWan.Observe(float64(s.FanInRemote))
			if s.FanInRemote == 0 {
				onlyIntIn++
			}
		}
		if s.FanOut() > 0 {
			haveOut++
			foEnt.Observe(float64(s.FanOutLocal))
			foWan.Observe(float64(s.FanOutRemote))
			if s.FanOutRemote == 0 {
				onlyIntOut++
			}
		}
	}
	const pts = 64
	fr.FanInEnt = fiEnt.CDF(pts)
	fr.FanInWan = fiWan.CDF(pts)
	fr.FanOutEnt = foEnt.CDF(pts)
	fr.FanOutWan = foWan.CDF(pts)
	fr.OnlyInternalFanIn = frac(float64(onlyIntIn), float64(haveIn))
	fr.OnlyInternalFanOut = frac(float64(onlyIntOut), float64(haveOut))
	return fr
}

func httpReport(ap *appAggregates) HTTPReport {
	h := ap.http
	r := HTTPReport{Automated: make(map[string]AutomatedShare)}
	r.InternalRequests = h.intRequests
	r.InternalBytes = h.intBytes
	for class, e := range h.byClass {
		r.Automated[class] = AutomatedShare{
			ReqFrac:  frac(float64(e.Reqs), float64(r.InternalRequests)),
			ByteFrac: frac(float64(e.Bytes), float64(r.InternalBytes)),
		}
	}
	// Figure 3 fan-out: distinct servers per client and locality (the
	// edge key with no server).
	fan := make(map[fanEdge]int)
	for edge := range h.fanServers {
		if _, auto := h.automated[edge.client]; !auto {
			fan[fanEdge{client: edge.client, wan: edge.wan}]++
		}
	}
	fanEnt, fanWan := stats.NewDist(), stats.NewDist()
	for key, n := range fan {
		if key.wan {
			fanWan.Observe(float64(n))
		} else {
			fanEnt.Observe(float64(n))
		}
	}
	r.FanOutEnt, r.FanOutWan = fanEnt.CDF(64), fanWan.CDF(64)
	r.NEntClients, r.NWanClients = fanEnt.N(), fanWan.N()
	r.SuccessEnt, r.PairsEnt = successRate(h.connPairs, false)
	r.SuccessWan, r.PairsWan = successRate(h.connPairs, true)
	if c := h.conditional["ent"]; c != nil {
		r.CondEnt = frac(float64(c.Cond), float64(c.Total))
		r.CondBytesEnt = frac(float64(c.CondBytes), float64(c.Bytes))
	}
	if c := h.conditional["wan"]; c != nil {
		r.CondWan = frac(float64(c.Cond), float64(c.Total))
		r.CondBytesWan = frac(float64(c.CondBytes), float64(c.Bytes))
	}
	if h.contentReq["ent"] != nil {
		r.ContentReqEnt = counterFractions(h.contentReq["ent"])
		r.ContentByteEnt = counterFractions(h.contentLen["ent"])
	}
	if h.contentReq["wan"] != nil {
		r.ContentReqWan = counterFractions(h.contentReq["wan"])
		r.ContentByteWan = counterFractions(h.contentLen["wan"])
	}
	if h.replySizes["ent"] != nil {
		r.ReplySizeEnt = h.replySizes["ent"].CDF(128)
	}
	if h.replySizes["wan"] != nil {
		r.ReplySizeWan = h.replySizes["wan"].CDF(128)
	}
	r.GETFrac = h.methods.Fraction("GET")
	r.RequestSuccess = frac(float64(h.statusOK), float64(h.statusAll))
	for _, n := range h.httpsConnsByPair {
		if n > r.MaxHTTPSConnsPerPair {
			r.MaxHTTPSConnsPerPair = n
		}
	}
	return r
}

func emailReport(ap *appAggregates) EmailReport {
	e := ap.email
	r := EmailReport{Bytes: counterCounts(e.bytesByProto)}
	cdf := func(key string) []stats.CDFPoint {
		if d := e.durations[key]; d != nil {
			return d.CDF(96)
		}
		return nil
	}
	scdf := func(key string) []stats.CDFPoint {
		if d := e.sizes[key]; d != nil {
			return d.CDF(96)
		}
		return nil
	}
	med := func(key string) float64 {
		if d := e.durations[key]; d != nil {
			return d.Median()
		}
		return 0
	}
	r.SMTPDurEnt, r.SMTPDurWan = cdf("SMTP/ent"), cdf("SMTP/wan")
	r.IMAPSDurEnt, r.IMAPSDurWan = cdf("IMAP/S/ent"), cdf("IMAP/S/wan")
	r.MedianSMTPDurEnt, r.MedianSMTPDurWan = med("SMTP/ent"), med("SMTP/wan")
	r.MedianIMAPSDurEnt, r.MedianIMAPSDurWan = med("IMAP/S/ent"), med("IMAP/S/wan")
	r.SMTPSizeEnt, r.SMTPSizeWan = scdf("SMTP/ent"), scdf("SMTP/wan")
	r.IMAPSSizeEnt, r.IMAPSSizeWan = scdf("IMAP/S/ent"), scdf("IMAP/S/wan")
	r.SMTPSuccessEnt, _ = successRate(e.pairs["SMTP/ent"], false)
	r.SMTPSuccessWan, _ = successRate(e.pairs["SMTP/wan"], false)
	entOK, entN := successRate(e.pairs["IMAP/S/ent"], false)
	wanOK, wanN := successRate(e.pairs["IMAP/S/wan"], false)
	r.IMAPSSuccess = frac(entOK*float64(entN)+wanOK*float64(wanN), float64(entN+wanN))
	return r
}

func nameReport(ap *appAggregates) NameServiceReport {
	r := NameServiceReport{
		DNSMedianLatencyEntMs: ap.dnsInt.Latency.Median() * 1000,
		DNSMedianLatencyWanMs: ap.dnsWan.Latency.Median() * 1000,
		NBNSFailureRate:       ap.nbns.FailureRate(),
	}
	combined := stats.NewCounter()
	combined.Merge(ap.dnsInt.Types)
	combined.Merge(ap.dnsWan.Types)
	r.DNSTypes = counterFractions(combined)
	rcodes := stats.NewCounter()
	rcodes.Merge(ap.dnsInt.Rcodes)
	rcodes.Merge(ap.dnsWan.Rcodes)
	r.DNSRcodes = counterFractions(rcodes)
	r.NBNSOps = counterFractions(ap.nbns.Ops)
	r.NBNSNameTypes = counterFractions(ap.nbns.NameTypes)
	dnsClients := make(map[netip.Addr]int64, len(ap.dnsInt.Clients)+len(ap.dnsWan.Clients))
	for _, d := range []*dns.Analyzer{ap.dnsInt, ap.dnsWan} {
		for c, n := range d.Clients {
			dnsClients[c] += n
		}
	}
	r.DNSTop10ClientShare = share(stats.TopSum(maps.Values(dnsClients), 10))
	r.NBNSTop10ClientShare = share(stats.TopSum(maps.Values(ap.nbns.Clients), 10))
	return r
}

// share is top's share of total: a top-n share, given what stats.TopSum
// returns.
func share(top, total int64) float64 { return frac(float64(top), float64(total)) }

func windowsReport(ap *appAggregates) WindowsReport {
	r := WindowsReport{Table9: make(map[string]ServiceOutcome)}
	for service, pairs := range ap.winPairs {
		o := ServiceOutcome{Pairs: len(pairs)}
		var ok, rej, un int
		for _, st := range pairs {
			switch flows.State(st) {
			case flows.StateEstablished, flows.StateActive:
				ok++
			case flows.StateRejected:
				rej++
			default:
				un++
			}
		}
		o.Success = frac(float64(ok), float64(o.Pairs))
		o.Rejected = frac(float64(rej), float64(o.Pairs))
		o.Unanswered = frac(float64(un), float64(o.Pairs))
		r.Table9[service] = o
	}
	ok, _, _, total := ap.ssn.Summary()
	r.SSNHandshakeSuccess = frac(float64(ok), float64(total))
	r.CIFSRequests = counterFractions(ap.cifs.Requests)
	r.CIFSBytes = counterFractions(ap.cifs.Bytes)
	r.RPCRequests = counterFractions(ap.rpc.Requests)
	r.RPCBytes = counterFractions(ap.rpc.Bytes)
	r.CIFSTotalRequests = ap.cifs.Requests.Total()
	r.RPCTotalRequests = ap.rpc.Requests.Total()
	return r
}

func fileReport(ap *appAggregates) FileServiceReport {
	r := FileServiceReport{
		NFSRequests:   ap.nfs.Requests.Total(),
		NCPRequests:   ap.ncp.Requests.Total(),
		NFSDataBytes:  ap.nfs.Bytes.Total(),
		NCPDataBytes:  ap.ncp.Bytes.Total(),
		NFSRequestMix: counterFractions(ap.nfs.Requests),
		NCPRequestMix: counterFractions(ap.ncp.Requests),
		NFSByteMix:    counterFractions(ap.nfs.Bytes),
		NCPByteMix:    counterFractions(ap.ncp.Bytes),
		NFSSuccess:    ap.nfs.SuccessRate(),
		NCPSuccess:    ap.ncp.SuccessRate(),
		NFSUDPPairs:   len(ap.nfsUDP),
		NFSTCPPairs:   len(ap.nfsTCP),
	}
	r.NFSPerPair, r.NFSTop3Share = perPair(ap.nfs.PerPair)
	r.NCPPerPair, r.NCPTop3Share = perPair(ap.ncp.PerPair)
	r.NFSReqSizes = ap.nfs.ReqSizes.CDF(128)
	r.NFSReplySizes = ap.nfs.ReplySizes.CDF(128)
	r.NCPReqSizes = ap.ncp.ReqSizes.CDF(128)
	r.NCPReplySizes = ap.ncp.ReplySizes.CDF(128)
	r.NCPKeepAliveOnlyFrac = frac(float64(ap.ncpKeepAliveOnly), float64(ap.ncpConns))
	return r
}

// perPair is Figure 7 for one file service: the CDF of requests per host
// pair, and the share of requests that the three busiest pairs carry.
func perPair(requests map[layers.HostPair]int64) ([]stats.CDFPoint, float64) {
	d := stats.NewDist()
	for _, n := range requests {
		d.Observe(float64(n))
	}
	return d.CDF(64), share(stats.TopSum(maps.Values(requests), 3))
}

func interactiveReport(ap *appAggregates) InteractiveReport {
	return InteractiveReport{
		SSHConns:             ap.sshConns,
		SSHBulkFrac:          frac(float64(ap.sshBulk), float64(ap.sshConns)),
		MeanSSHPayloadPerPkt: frac(float64(ap.sshPayload), float64(ap.sshPkts)),
	}
}

func bulkReport(ap *appAggregates) BulkReport {
	r := BulkReport{
		FTPSessions:  len(ap.ftpSessions),
		FTPDataConns: ap.bulkConns.Get("FTP-Data"),
		FTPDataBytes: ap.bulkBytes.Get("FTP-Data"),
		HPSSBytes:    ap.bulkBytes.Get("HPSS"),
	}
	logins := 0
	for _, rec := range ap.ftpSessions {
		r.FTPTransfers += rec.session.Transfers
		if rec.session.LoggedIn {
			logins++
		}
	}
	r.FTPLoginRate = frac(float64(logins), float64(r.FTPSessions))
	return r
}

func backupReport(ap *appAggregates) BackupReport {
	r := BackupReport{Conns: counterCounts(ap.backupConns), Bytes: counterCounts(ap.backupBytes)}
	r.DantzBidirFrac = frac(float64(ap.dantzBidir), float64(ap.dantzConns))
	return r
}

// tracesByOrd returns rows re-sorted into global trace order. A fleet
// fold appends per-trace rows window-major, not trace-major; sorting by
// the stamped ordinal makes the report canonical either way. For a
// single instance the rows are already in ordinal order, so this is an
// order-preserving copy.
func tracesByOrd[T any](rows []T, ord func(T) int) []T {
	out := append([]T(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return ord(out[i]) < ord(out[j]) })
	return out
}

func (e *epochAgg) loadReport() LoadReport {
	r := LoadReport{Traces: tracesByOrd(e.load.traces, func(t TraceLoad) int { return t.ord })}
	p1, p10, p60 := stats.NewDist(), stats.NewDist(), stats.NewDist()
	med := stats.NewDist()
	entOver, wanOver, entTraces, wanTraces := 0, 0, 0, 0
	for _, t := range r.Traces {
		p1.Observe(t.Peak1s)
		p10.Observe(t.Peak10s)
		p60.Observe(t.Peak60s)
		med.Observe(t.Median)
		if t.RetransEnt > r.MaxRetransEnt {
			r.MaxRetransEnt = t.RetransEnt
		}
		if t.EntDataPkts >= 1000 {
			entTraces++
			if t.RetransEnt > 0.01 {
				entOver++
			}
		}
		if t.WanDataPkts >= 1000 {
			wanTraces++
			if t.RetransWan > 0.01 {
				wanOver++
			}
		}
	}
	hursts := stats.NewDist()
	for _, t := range r.Traces {
		if t.HurstOK {
			hursts.Observe(t.Hurst)
		}
	}
	r.MedianHurst = hursts.Median()
	r.Peak1s, r.Peak10s, r.Peak60s = p1.CDF(64), p10.CDF(64), p60.CDF(64)
	r.MedianOfMedians = med.Median()
	r.EntOver1Pct = frac(float64(entOver), float64(entTraces))
	r.WanOver1Pct = frac(float64(wanOver), float64(wanTraces))
	return r
}

func (e *epochAgg) hostileReport() HostileReport {
	h := &e.hostile
	return HostileReport{
		Streams:             h.streams,
		IngestBytes:         h.ingest,
		DeliveredBytes:      h.delivered,
		DuplicateBytes:      h.duplicate,
		ConflictBytes:       h.conflict,
		DiscardedBytes:      h.discarded,
		GapSkippedBytes:     h.gapSkipped,
		GapEvents:           h.gapEvents,
		WrapEvents:          h.wrapEvents,
		PeakPendingBytes:    h.peakPending,
		BogusRSTs:           h.bogusRST,
		PostRSTDataSegments: h.postRSTData,
		UndecodableFrames:   e.netLayer.Get("undecodable"),
		DuplicateFrac:       frac(float64(h.duplicate), float64(h.ingest)),
		ConflictFrac:        frac(float64(h.conflict), float64(h.ingest)),
		GapFrac:             frac(float64(h.gapSkipped), float64(h.delivered+h.gapSkipped)),
	}
}

func (e *epochAgg) sourceErrorReport() SourceErrorReport {
	r := SourceErrorReport{
		AgedOutConns:    e.agedOut,
		CapEvictedConns: e.capEvicted,
	}
	if len(e.srcErrs) == 0 {
		return r
	}
	r.ByKind = make(map[string]int64)
	r.Traces = tracesByOrd(e.srcErrs, func(t TraceSourceErrors) int { return t.ord })
	for _, t := range e.srcErrs {
		r.Errors += t.Errors
		r.LostBytes += t.LostBytes
		for k, n := range t.ByKind {
			r.ByKind[k] += n
		}
	}
	return r
}

// findings produces Table 5's qualitative summary from the measured data.
func findings(r *Report) []string {
	var f []string
	if auto, ok := maxAutomated(r.HTTP); ok {
		f = append(f, fmt.Sprintf("§5.1.1 Automated HTTP clients account for %s of internal requests and %s of internal HTTP bytes (largest: %s).",
			stats.Pct(totalAutomatedReq(r.HTTP)), stats.Pct(totalAutomatedBytes(r.HTTP)), auto))
	}
	if r.Email.MedianIMAPSDurEnt > 0 && r.Email.MedianIMAPSDurWan > 0 {
		f = append(f, fmt.Sprintf("§5.1.2 Internal IMAP/S connections last %.0fx longer than WAN ones (medians %.1fs vs %.1fs).",
			r.Email.MedianIMAPSDurEnt/r.Email.MedianIMAPSDurWan, r.Email.MedianIMAPSDurEnt, r.Email.MedianIMAPSDurWan))
	}
	if r.Names.NBNSFailureRate > 0 {
		f = append(f, fmt.Sprintf("§5.1.3 Netbios/NS queries fail %s of the time vs %s for DNS.",
			stats.Pct(r.Names.NBNSFailureRate), stats.Pct(r.Names.DNSRcodes["NXDOMAIN"])))
	}
	if pipes := r.Windows.CIFSRequests["RPC Pipes"]; pipes > 0 {
		f = append(f, fmt.Sprintf("§5.2.1 DCE/RPC named pipes carry %s of CIFS requests; Windows File Sharing %s.",
			stats.Pct(pipes), stats.Pct(r.Windows.CIFSRequests["Windows File Sharing"])))
	}
	rw := r.FileSvc.NFSRequestMix["Read"] + r.FileSvc.NFSRequestMix["Write"] + r.FileSvc.NFSRequestMix["GetAttr"]
	if rw > 0 {
		f = append(f, fmt.Sprintf("§5.2.2 Read/write/attr operations make up %s of NFS requests.", stats.Pct(rw)))
	}
	if r.Backup.Conns["DANTZ"] > 0 {
		f = append(f, fmt.Sprintf("§5.2.3 %s of Dantz connections carry ≥100KB in both directions.",
			stats.Pct(r.Backup.DantzBidirFrac)))
	}
	return f
}

func maxAutomated(h HTTPReport) (string, bool) {
	// Ties break by name so the finding text is deterministic.
	best, bestV := "", 0.0
	for k, v := range h.Automated {
		if v.ByteFrac > bestV || (v.ByteFrac == bestV && best != "" && k < best) {
			best, bestV = k, v.ByteFrac
		}
	}
	return best, best != ""
}

// totalAutomatedReq and totalAutomatedBytes add the Table 6 classes'
// shares in name order: a float sum depends on its order, and a map's
// is random, so only a fixed order prints a total near a rounding edge
// the same way every time.
func totalAutomatedReq(h HTTPReport) float64 {
	var t float64
	for _, k := range slices.Sorted(maps.Keys(h.Automated)) {
		t += h.Automated[k].ReqFrac
	}
	return t
}

func totalAutomatedBytes(h HTTPReport) float64 {
	var t float64
	for _, k := range slices.Sorted(maps.Keys(h.Automated)) {
		t += h.Automated[k].ByteFrac
	}
	return t
}
