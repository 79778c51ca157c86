package core

import (
	"net/netip"
	"sort"

	"enttrace/internal/appproto/cifs"
	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/appproto/dns"
	"enttrace/internal/appproto/ftp"
	"enttrace/internal/appproto/http"
	"enttrace/internal/appproto/ncp"
	"enttrace/internal/appproto/netbios"
	"enttrace/internal/appproto/smtp"
	"enttrace/internal/appproto/sunrpc"
	"enttrace/internal/fleet"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/stats"
)

// appAggregates holds dataset-wide application-level state. It merges and
// cuts by its fields (fleet.Merge, fleet.Cut) — the aggregate half of the
// parallel replay's merge contract (DESIGN.md "Two-phase deterministic
// replay"). Every fold is commutative (sums, counter and distribution
// merges, set unions), keyed by a host pair the replay sharding keeps in
// one worker (Table 9's outcome lattice), or re-sorted when read (FTP
// sessions), so the merged state is identical for any shard count.
type appAggregates struct {
	// Name services.
	dnsInt, dnsWan *dns.Analyzer
	nbns           *netbios.Analyzer
	ssn            *netbios.SSNAnalyzer

	// Windows.
	cifs *cifs.Analyzer
	rpc  *dcerpc.Analyzer
	// winPairs tracks Table 9 outcomes per (service, host pair).
	winPairs fleet.Map[string, fleet.Map[layers.HostPair, winState]]

	// File services.
	nfs                        *sunrpc.Analyzer
	ncp                        *ncp.Analyzer
	nfsUDP, nfsTCP             fleet.Map[layers.HostPair, struct{}]
	ncpConns, ncpKeepAliveOnly int64

	// Email: transport-level per-connection samples.
	email *emailAgg

	// HTTP.
	http *httpAgg

	// Interactive: SSH connection shapes (§5's observation that SSH is
	// both a login facility and a file-mover).
	sshConns, sshBulk   int64
	sshPkts, sshPayload int64

	// Bulk: FTP control sessions and data volumes. Sessions are tagged
	// with their connection's canonical position so shard merges can
	// restore first-packet order.
	ftpSessions []ftpSessionRec
	bulkConns   *stats.Counter
	bulkBytes   *stats.Counter

	// Backup: per-protocol connection and byte counts.
	backupConns *stats.Counter
	backupBytes *stats.Counter
	// dantzBidir counts Dantz connections with >= 100 KB both ways.
	dantzConns, dantzBidir int64

	// dnsScratch is the owning worker's DNS decode scratch — transient,
	// never merged or cut.
	dnsScratch dns.Message `agg:"pairing"`
}

func newAppAggregates() *appAggregates {
	return &appAggregates{
		dnsInt:      dns.NewAnalyzer(),
		dnsWan:      dns.NewAnalyzer(),
		nbns:        netbios.NewAnalyzer(),
		ssn:         netbios.NewSSNAnalyzer(),
		cifs:        cifs.NewAnalyzer(),
		rpc:         dcerpc.NewAnalyzer(),
		winPairs:    make(fleet.Map[string, fleet.Map[layers.HostPair, winState]]),
		nfs:         sunrpc.NewAnalyzer(),
		ncp:         ncp.NewAnalyzer(),
		nfsUDP:      make(map[layers.HostPair]struct{}),
		nfsTCP:      make(map[layers.HostPair]struct{}),
		email:       newEmailAgg(),
		http:        newHTTPAgg(),
		bulkConns:   stats.NewCounter(),
		bulkBytes:   stats.NewCounter(),
		backupConns: stats.NewCounter(),
		backupBytes: stats.NewCounter(),
	}
}

// ftpSessionRec is one parsed FTP control session plus its canonical
// ordering key (trace ordinal, first-packet index).
type ftpSessionRec struct {
	trace    int
	firstIdx int64
	session  ftp.Session
}

func (ap *appAggregates) ftpSession(trace int, firstIdx int64, s ftp.Session) {
	ap.ftpSessions = append(ap.ftpSessions, ftpSessionRec{trace: trace, firstIdx: firstIdx, session: s})
}

// transportConn accumulates everything derivable without payloads. name
// is the connection's classification snapshot, taken by the serial
// replay phase at the connection's canonical position (so a port
// registered later in the trace does not reclassify earlier-starting
// connections).
func (ap *appAggregates) transportConn(c *flows.Conn, name string) {
	wan := connWAN(c)
	switch name {
	case "SMTP", "IMAP4", "IMAP/S", "POP3", "POP/S", "LDAP":
		ap.email.conn(name, wan, c)
	case "HTTP", "HTTPS":
		ap.http.transportConn(name, wan, c)
	case "Netbios-SSN":
		ap.winPair("Netbios/SSN", c)
	case "CIFS":
		ap.winPair("CIFS", c)
	case "DCE/RPC-EPM":
		ap.winPair("Endpoint Mapper", c)
	case "Dantz":
		ap.backupConns.Inc("DANTZ")
		ap.backupBytes.Add("DANTZ", c.PayloadBytes())
		ap.dantzConns++
		if c.OrigBytes >= 100<<10 && c.RespBytes >= 100<<10 {
			ap.dantzBidir++
		}
	case "Veritas-Ctrl":
		ap.backupConns.Inc("VERITAS-BACKUP-CTRL")
		ap.backupBytes.Add("VERITAS-BACKUP-CTRL", c.PayloadBytes())
	case "Veritas-Data":
		ap.backupConns.Inc("VERITAS-BACKUP-DATA")
		ap.backupBytes.Add("VERITAS-BACKUP-DATA", c.PayloadBytes())
	case "Connected-Backup":
		ap.backupConns.Inc("CONNECTED-BACKUP")
		ap.backupBytes.Add("CONNECTED-BACKUP", c.PayloadBytes())
	case "SSH":
		ap.sshConns++
		if c.PayloadBytes() >= 200<<10 {
			ap.sshBulk++
		}
		ap.sshPkts += c.Packets()
		ap.sshPayload += c.PayloadBytes()
	case "FTP", "FTP-Data", "HPSS":
		ap.bulkConns.Inc(name)
		ap.bulkBytes.Add(name, c.PayloadBytes())
	case "NCP":
		ap.ncpConns++
	case "NFS":
		if c.Proto == layers.ProtoTCP {
			ap.markNFSPair(c.Key.Src, c.Key.Dst, false)
		}
	}
}

// winPair folds one connection into the Table 9 per-host-pair state.
func (ap *appAggregates) winPair(service string, c *flows.Conn) {
	m := ap.winPairs[service]
	if m == nil {
		m = make(map[layers.HostPair]winState)
		ap.winPairs[service] = m
	}
	pair, st := c.HostPair(), winState(c.State)
	if cur, seen := m[pair]; seen {
		st = cur.Join(st)
	}
	m[pair] = st
}

// winState is a host pair's Table 9 outcome: the state of its
// connections, folded in order.
type winState flows.State

// Join folds the outcome of later connections (o) into s: established
// beats rejected beats the latest state. Accumulation and merging share
// it, so a pair cut across windows re-folds exactly as it accumulated.
func (s winState) Join(o winState) winState {
	rank := func(w winState) int {
		switch flows.State(w) {
		case flows.StateEstablished:
			return 2
		case flows.StateRejected:
			return 1
		}
		return 0
	}
	if rank(s) > rank(o) {
		return s
	}
	return o
}

func (ap *appAggregates) markNFSPair(a, b netip.Addr, udp bool) {
	pair := layers.NewHostPair(a, b)
	if udp {
		ap.nfsUDP[pair] = struct{}{}
	} else {
		ap.nfsTCP[pair] = struct{}{}
	}
}

// markNCPKeepAlive classifies an NCP connection that carried nothing but
// keep-alive probes.
func (ap *appAggregates) markNCPKeepAlive(c *flows.Conn) {
	if c.KeepAliveRetrans > 0 && c.OrigBytes <= c.KeepAliveRetrans+4 && c.RespBytes == 0 {
		ap.ncpKeepAliveOnly++
	}
}

func (ap *appAggregates) smtpParsed(wan bool, res smtp.Result) {
	ap.email.smtpParsed(wan, res)
}

// cifsStreams folds both directions of a CIFS connection, parsed and
// ended, through the command analyzer, routing the PDUs of named-pipe
// transactions to the DCE/RPC analyzer on the connection's channel for
// that pipe (key, with the pipe filled in). A NetBIOS-framed
// connection's session-service frames go to the Table 9 handshake
// census first.
func (ap *appAggregates) cifsStreams(key dcerpc.ChanKey, conn *flows.Conn, cli, srv *cifs.StreamParser) {
	client, server := conn.Key.Src, conn.Key.Dst
	for _, typ := range cli.SSNFrames() {
		ap.ssn.Frame(client, server, typ)
	}
	for _, typ := range srv.SSNFrames() {
		ap.ssn.Frame(server, client, typ)
	}
	pipes := func(pipe string, pdus []dcerpc.Summary) {
		key.Pipe = pipe
		ap.rpc.Summaries(key, pdus)
	}
	ap.cifs.Records(cli, pipes)
	ap.cifs.Records(srv, pipes)
}

// emailAgg collects Figures 5–6 and Table 8.
type emailAgg struct {
	bytesByProto *stats.Counter
	// Duration and size distributions keyed by proto+locality.
	durations fleet.Map[string, *stats.Dist]
	sizes     fleet.Map[string, *stats.Dist] // client→server for SMTP, server→client for IMAP
	// Host-pair outcomes per proto+locality.
	pairs fleet.Map[string, fleet.Map[pairOutcome, struct{}]]
	// Parsed SMTP outcomes.
	smtpAccepted, smtpRejected int64
}

func newEmailAgg() *emailAgg {
	return &emailAgg{
		bytesByProto: stats.NewCounter(),
		durations:    make(map[string]*stats.Dist),
		sizes:        make(map[string]*stats.Dist),
		pairs:        make(fleet.Map[string, fleet.Map[pairOutcome, struct{}]]),
	}
}

func locKey(proto string, wan bool) string {
	if wan {
		return proto + "/wan"
	}
	return proto + "/ent"
}

func (e *emailAgg) conn(proto string, wan bool, c *flows.Conn) {
	table8Key := proto
	switch proto {
	case "IMAP/S":
		table8Key = "SIMAP"
	case "POP3", "POP/S", "LDAP":
		table8Key = "Other"
	}
	e.bytesByProto.Add(table8Key, c.PayloadBytes())
	key := locKey(proto, wan)
	if d := c.Duration(); d > 0 && c.Successful() {
		dist := e.durations[key]
		if dist == nil {
			dist = stats.NewDist()
			e.durations[key] = dist
		}
		dist.Observe(d.Seconds())
	}
	size := c.OrigBytes // SMTP: flow toward the server
	if proto == "IMAP/S" || proto == "IMAP4" || proto == "POP3" || proto == "POP/S" {
		size = c.RespBytes // mailbox data flows to the client
	}
	if c.Successful() {
		dist := e.sizes[key]
		if dist == nil {
			dist = stats.NewDist()
			e.sizes[key] = dist
		}
		dist.Observe(float64(size))
	}
	pm := e.pairs[key]
	if pm == nil {
		pm = make(map[pairOutcome]struct{})
		e.pairs[key] = pm
	}
	pm[pairOutcome{pair: c.HostPair(), ok: c.Successful()}] = struct{}{}
}

func (e *emailAgg) smtpParsed(wan bool, res smtp.Result) {
	if res.Accepted {
		e.smtpAccepted++
	}
	if res.Rejected {
		e.smtpRejected++
	}
}

// pairOutcome is one (host pair, locality, outcome) some connection
// showed. A pair succeeded when any of its connections did: the HTTP and
// email success rates are read off sets of these, which merge by
// inserting keys where a map from pair to "any success" would read each
// value back.
type pairOutcome struct {
	pair    layers.HostPair
	wan, ok bool
}

// successRate is the share of set's distinct pairs of locality wan that
// had a successful connection, and their number.
func successRate(set map[pairOutcome]struct{}, wan bool) (float64, int) {
	ok, n := 0, 0
	for k := range set {
		if k.wan != wan {
			continue
		}
		if k.ok {
			ok++
			n++
		} else if _, also := set[pairOutcome{pair: k.pair, wan: wan, ok: true}]; !also {
			n++
		}
	}
	return frac(float64(ok), float64(n)), n
}

// httpAgg collects §5.1.1: Table 6, Figures 3–4, Table 7, conditional-GET
// and success-rate statistics.
type httpAgg struct {
	// Transport-level (all datasets).
	connPairs        fleet.Map[pairOutcome, struct{}]
	httpsConnsByPair fleet.Map[layers.HostPair, int64]

	// Payload-level (full-snaplen datasets).
	intRequests int64 // internal requests (Table 6's denominator)
	intBytes    int64 // internal response body bytes
	byClass     fleet.Map[string, *struct{ Reqs, Bytes int64 }]
	automated   fleet.Map[netip.Addr, struct{}]   // clients seen acting automated
	fanServers  fleet.Map[fanEdge, struct{}]      // distinct (client, server, locality); fan-out is counted at report time
	contentReq  fleet.Map[string, *stats.Counter] // locality → content-class requests
	contentLen  fleet.Map[string, *stats.Counter] // locality → content-class bytes
	replySizes  fleet.Map[string, *stats.Dist]    // locality → body size dist
	conditional fleet.Map[string, *struct{ Cond, Total, CondBytes, Bytes int64 }]
	methods     *stats.Counter
	statusOK    int64
	statusAll   int64
}

// fanEdge keys the HTTP fan-out set. Like connPairs it is flat — one map
// an aggregate, not one a client or a locality — so merging a delta
// inserts keys and allocates nothing per client.
type fanEdge struct {
	client, server netip.Addr
	wan            bool
}

func newHTTPAgg() *httpAgg {
	return &httpAgg{
		connPairs:        make(map[pairOutcome]struct{}),
		httpsConnsByPair: make(map[layers.HostPair]int64),
		byClass:          make(map[string]*struct{ Reqs, Bytes int64 }),
		automated:        make(map[netip.Addr]struct{}),
		fanServers:       make(map[fanEdge]struct{}),
		contentReq:       make(map[string]*stats.Counter),
		contentLen:       make(map[string]*stats.Counter),
		replySizes:       make(map[string]*stats.Dist),
		conditional:      make(map[string]*struct{ Cond, Total, CondBytes, Bytes int64 }),
		methods:          stats.NewCounter(),
	}
}

func httpLoc(wan bool) string {
	if wan {
		return "wan"
	}
	return "ent"
}

func (h *httpAgg) transportConn(name string, wan bool, c *flows.Conn) {
	if name == "HTTPS" {
		h.httpsConnsByPair[c.HostPair()]++
		return
	}
	h.connPairs[pairOutcome{pair: c.HostPair(), wan: wan, ok: c.Successful()}] = struct{}{}
}

// conn processes one parsed HTTP connection.
func (h *httpAgg) conn(c *flows.Conn, wan bool, reqs []http.Request, resps []http.Response) {
	loc := httpLoc(wan)
	client, server := c.Key.Src, c.Key.Dst
	for i, r := range reqs {
		class := http.ClassifyAgent(r.UserAgent)
		var body int
		var resp *http.Response
		if i < len(resps) {
			resp = &resps[i]
			body = resp.BodyLen
		}
		if !wan {
			// Table 6 covers internal HTTP.
			h.intRequests++
			h.intBytes += int64(body)
			if http.Automated(class) {
				e := h.byClass[class]
				if e == nil {
					e = &struct{ Reqs, Bytes int64 }{}
					h.byClass[class] = e
				}
				e.Reqs++
				e.Bytes += int64(body)
			}
		}
		if http.Automated(class) {
			h.automated[client] = struct{}{}
			continue // remaining stats exclude automated activity
		}
		h.methods.Inc(r.Method)
		h.fanServers[fanEdge{client: client, server: server, wan: wan}] = struct{}{}
		// Conditional GETs and their byte savings.
		cond := h.conditional[loc]
		if cond == nil {
			cond = &struct{ Cond, Total, CondBytes, Bytes int64 }{}
			h.conditional[loc] = cond
		}
		cond.Total++
		cond.Bytes += int64(body)
		if r.Conditional {
			cond.Cond++
			cond.CondBytes += int64(body)
		}
		if resp == nil {
			continue
		}
		h.statusAll++
		if resp.Status == 200 || resp.Status == 206 || resp.Status == 304 {
			h.statusOK++
		}
		if resp.Status == 200 || resp.Status == 206 {
			cls := http.ContentClass(resp.ContentType)
			if h.contentReq[loc] == nil {
				h.contentReq[loc] = stats.NewCounter()
				h.contentLen[loc] = stats.NewCounter()
			}
			h.contentReq[loc].Inc(cls)
			h.contentLen[loc].Add(cls, int64(resp.BodyLen))
			if resp.BodyLen > 0 {
				if h.replySizes[loc] == nil {
					h.replySizes[loc] = stats.NewDist()
				}
				h.replySizes[loc].Observe(float64(resp.BodyLen))
			}
		}
	}
}

// emptyApps stands in, read-only, for the components a sparse aggregate
// lacks when a report is built from it.
var emptyApps = newAppAggregates()

// dense returns a copy of ap in which every component a report builder
// dereferences is present: ap's own where it holds one, emptyApps'
// otherwise. Counters, distributions, maps and the session list read the
// same nil or empty. The copy shares everything it points to with ap; it
// is for reading.
func (ap *appAggregates) dense() *appAggregates {
	d, e := *ap, emptyApps
	orEmpty(&d.dnsInt, e.dnsInt)
	orEmpty(&d.dnsWan, e.dnsWan)
	orEmpty(&d.nbns, e.nbns)
	orEmpty(&d.ssn, e.ssn)
	orEmpty(&d.cifs, e.cifs)
	orEmpty(&d.rpc, e.rpc)
	orEmpty(&d.nfs, e.nfs)
	orEmpty(&d.ncp, e.ncp)
	orEmpty(&d.email, e.email)
	orEmpty(&d.http, e.http)
	return &d
}

func orEmpty[T any](p **T, empty *T) {
	if *p == nil {
		*p = empty
	}
}

// sortFTPSessions restores canonical first-packet order after shard
// merges, so anything walking the session list is shard-count-invariant.
func (ap *appAggregates) sortFTPSessions() {
	sort.Slice(ap.ftpSessions, func(i, j int) bool {
		a, b := ap.ftpSessions[i], ap.ftpSessions[j]
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.firstIdx < b.firstIdx
	})
}
