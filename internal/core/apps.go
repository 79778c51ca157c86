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
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/stats"
)

// appAggregates holds dataset-wide application-level state.
type appAggregates struct {
	// Name services.
	dnsInt, dnsWan *dns.Analyzer
	nbns           *netbios.Analyzer
	ssn            *netbios.SSNAnalyzer

	// Windows.
	cifs *cifs.Analyzer
	rpc  *dcerpc.Analyzer
	// winPairs tracks Table 9 outcomes per (service, host pair).
	winPairs map[string]map[layers.HostPair]flows.State

	// File services.
	nfs                        *sunrpc.Analyzer
	ncp                        *ncp.Analyzer
	nfsUDP                     map[layers.HostPair]bool
	nfsTCP                     map[layers.HostPair]bool
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
	// never merged, snapshot, or reset.
	dnsScratch dns.Message
}

func newAppAggregates() *appAggregates {
	return &appAggregates{
		dnsInt:      dns.NewAnalyzer(),
		dnsWan:      dns.NewAnalyzer(),
		nbns:        netbios.NewAnalyzer(),
		ssn:         netbios.NewSSNAnalyzer(),
		cifs:        cifs.NewAnalyzer(),
		rpc:         dcerpc.NewAnalyzer(),
		winPairs:    make(map[string]map[layers.HostPair]flows.State),
		nfs:         sunrpc.NewAnalyzer(),
		ncp:         ncp.NewAnalyzer(),
		nfsUDP:      make(map[layers.HostPair]bool),
		nfsTCP:      make(map[layers.HostPair]bool),
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
		m = make(map[layers.HostPair]flows.State)
		ap.winPairs[service] = m
	}
	pair := c.HostPair()
	cur, seen := m[pair]
	m[pair] = foldWinState(cur, seen, c.State)
}

// foldWinState is the Table 9 per-pair outcome fold, shared by
// accumulation and Merge so a cut pair re-folds exactly as it would
// have accumulated: established beats rejected beats the latest state.
func foldWinState(cur flows.State, seen bool, st flows.State) flows.State {
	switch {
	case !seen:
		return st
	case st == flows.StateEstablished || cur == flows.StateEstablished:
		return flows.StateEstablished
	case st == flows.StateRejected || cur == flows.StateRejected:
		return flows.StateRejected
	}
	return st
}

func (ap *appAggregates) markNFSPair(a, b netip.Addr, udp bool) {
	pair := layers.NewHostPair(a, b)
	if udp {
		ap.nfsUDP[pair] = true
	} else {
		ap.nfsTCP[pair] = true
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
// transactions to the DCE/RPC analyzer. A NetBIOS-framed connection's
// session-service frames go to the Table 9 handshake census first.
func (ap *appAggregates) cifsStreams(conn *flows.Conn, cli, srv *cifs.StreamParser) {
	client, server := conn.Key.Src, conn.Key.Dst
	for _, typ := range cli.SSNFrames() {
		ap.ssn.Frame(client, server, typ)
	}
	for _, typ := range srv.SSNFrames() {
		ap.ssn.Frame(server, client, typ)
	}
	// The channel key (connection + pipe) is stable across the hundreds of
	// transactions a busy pipe carries; build it once per pipe instead of
	// concatenating per transaction, and only for connections that
	// actually carry pipe transactions.
	var keyStr, lastPipe, lastChan string
	ap.cifs.PipeSink = func(fromClient bool, pipe string, pdus []dcerpc.Summary) {
		if pipe != lastPipe || lastChan == "" {
			if keyStr == "" {
				keyStr = conn.Key.String()
			}
			lastPipe, lastChan = pipe, keyStr+pipe
		}
		ap.rpc.Summaries(lastChan, pdus)
	}
	ap.cifs.Records(true, cli)
	ap.cifs.Records(false, srv)
	ap.cifs.PipeSink = nil
}

// emailAgg collects Figures 5–6 and Table 8.
type emailAgg struct {
	bytesByProto *stats.Counter
	// Duration and size distributions keyed by proto+locality.
	durations map[string]*stats.Dist
	sizes     map[string]*stats.Dist // client→server for SMTP, server→client for IMAP
	// Host-pair success per proto+locality.
	pairs map[string]map[layers.HostPair]bool // pair → any success
	// Parsed SMTP outcomes.
	smtpAccepted, smtpRejected int64
}

func newEmailAgg() *emailAgg {
	return &emailAgg{
		bytesByProto: stats.NewCounter(),
		durations:    make(map[string]*stats.Dist),
		sizes:        make(map[string]*stats.Dist),
		pairs:        make(map[string]map[layers.HostPair]bool),
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
		pm = make(map[layers.HostPair]bool)
		e.pairs[key] = pm
	}
	pm[c.HostPair()] = pm[c.HostPair()] || c.Successful()
}

func (e *emailAgg) smtpParsed(wan bool, res smtp.Result) {
	if res.Accepted {
		e.smtpAccepted++
	}
	if res.Rejected {
		e.smtpRejected++
	}
}

// successRate computes the per-host-pair success fraction for one
// proto+locality key.
func (e *emailAgg) successRate(key string) (float64, int) {
	pm := e.pairs[key]
	if len(pm) == 0 {
		return 0, 0
	}
	ok := 0
	for _, s := range pm {
		if s {
			ok++
		}
	}
	return float64(ok) / float64(len(pm)), len(pm)
}

// httpAgg collects §5.1.1: Table 6, Figures 3–4, Table 7, conditional-GET
// and success-rate statistics.
type httpAgg struct {
	// Transport-level (all datasets).
	connPairs        map[locPair]bool // (pair, locality) → any success
	httpsConnsByPair map[layers.HostPair]int64

	// Payload-level (full-snaplen datasets).
	reqTotal    map[string]int64 // locality → request count
	dataTotal   map[string]int64 // locality → response body bytes
	byClass     map[string]*struct{ Reqs, Bytes int64 }
	automated   map[netip.Addr]bool       // clients seen acting automated
	fanServers  map[fanEdge]struct{}      // distinct (client, server, locality); fan-out is counted at report time
	contentReq  map[string]*stats.Counter // locality → content-class requests
	contentLen  map[string]*stats.Counter // locality → content-class bytes
	replySizes  map[string]*stats.Dist    // locality → body size dist
	conditional map[string]*struct{ Cond, Total, CondBytes, Bytes int64 }
	methods     *stats.Counter
	statusOK    int64
	statusAll   int64
}

// locPair and fanEdge key the HTTP aggregate's two per-host sets. They
// are flat — one map an aggregate, not one a client or a locality — so
// merging a delta inserts keys and allocates nothing per client.
type locPair struct {
	pair layers.HostPair
	wan  bool
}

type fanEdge struct {
	client, server netip.Addr
	wan            bool
}

func newHTTPAgg() *httpAgg {
	return &httpAgg{
		connPairs:        make(map[locPair]bool),
		httpsConnsByPair: make(map[layers.HostPair]int64),
		reqTotal:         make(map[string]int64),
		dataTotal:        make(map[string]int64),
		byClass:          make(map[string]*struct{ Reqs, Bytes int64 }),
		automated:        make(map[netip.Addr]bool),
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
	key := locPair{pair: c.HostPair(), wan: wan}
	h.connPairs[key] = h.connPairs[key] || c.Successful()
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
			h.reqTotal[loc]++
			h.dataTotal[loc] += int64(body)
			if http.Automated(class) {
				e := h.byClass[class]
				if e == nil {
					e = &struct{ Reqs, Bytes int64 }{}
					h.byClass[class] = e
				}
				e.Reqs++
				e.Bytes += int64(body)
			}
		} else {
			h.reqTotal[loc]++
			h.dataTotal[loc] += int64(body)
		}
		if http.Automated(class) {
			h.automated[client] = true
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

// Merge folds other's application-level state into ap — the aggregate
// half of the parallel replay's merge contract (DESIGN.md "Two-phase
// deterministic replay"). Every operation here is either commutative
// (sums, counter/distribution merges, set unions) or keyed by a host
// pair that the replay sharding guarantees lives in exactly one source,
// so the merged state is identical for any shard count. Either side may
// be sparse (a cut delta, a window's aggregate): components other lacks
// are skipped, and components ap lacks are adopted from other by
// pointer, not copied. Into a full aggregate (newAppAggregates) nothing
// is adopted, other remains usable afterwards and nothing mutable is
// aliased; a sparse receiver consumes other.
func (ap *appAggregates) Merge(other *appAggregates) {
	fold(&ap.dnsInt, other.dnsInt)
	fold(&ap.dnsWan, other.dnsWan)
	fold(&ap.nbns, other.nbns)
	fold(&ap.ssn, other.ssn)
	fold(&ap.cifs, other.cifs)
	fold(&ap.rpc, other.rpc)
	if ap.winPairs == nil {
		ap.winPairs = other.winPairs
	} else {
		for service, pairs := range other.winPairs {
			m := ap.winPairs[service]
			if m == nil {
				m = make(map[layers.HostPair]flows.State, len(pairs))
				ap.winPairs[service] = m
			}
			for pair, st := range pairs {
				cur, seen := m[pair]
				m[pair] = foldWinState(cur, seen, st)
			}
		}
	}
	fold(&ap.nfs, other.nfs)
	fold(&ap.ncp, other.ncp)
	foldPairs(&ap.nfsUDP, other.nfsUDP)
	foldPairs(&ap.nfsTCP, other.nfsTCP)
	ap.ncpConns += other.ncpConns
	ap.ncpKeepAliveOnly += other.ncpKeepAliveOnly
	fold(&ap.email, other.email)
	fold(&ap.http, other.http)
	ap.sshConns += other.sshConns
	ap.sshBulk += other.sshBulk
	ap.sshPkts += other.sshPkts
	ap.sshPayload += other.sshPayload
	ap.ftpSessions = append(ap.ftpSessions, other.ftpSessions...)
	fold(&ap.bulkConns, other.bulkConns)
	fold(&ap.bulkBytes, other.bulkBytes)
	fold(&ap.backupConns, other.backupConns)
	fold(&ap.backupBytes, other.backupBytes)
	ap.dantzConns += other.dantzConns
	ap.dantzBidir += other.dantzBidir
}

// fold merges one component of a possibly sparse source into the
// receiver's — or moves it there, when the receiver has none yet.
func fold[T any, P interface {
	*T
	Merge(P)
}](dst *P, src P) {
	switch {
	case src == nil:
	case *dst == nil:
		*dst = src
	default:
		(*dst).Merge(src)
	}
}

// foldPairs is fold for a host-pair set.
func foldPairs(dst *map[layers.HostPair]bool, src map[layers.HostPair]bool) {
	if *dst == nil {
		*dst = src
		return
	}
	for pair := range src {
		(*dst)[pair] = true
	}
}

// emptyApps stands in, read-only, for the components a sparse aggregate
// lacks when a report is built from it.
var emptyApps = newAppAggregates()

// dense returns a copy of ap in which every component a report builder
// dereferences is present: ap's own where it holds one, emptyApps'
// otherwise. The maps and the session list read the same nil or empty.
// The copy shares everything it points to with ap; it is for reading.
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
	orEmpty(&d.bulkConns, e.bulkConns)
	orEmpty(&d.bulkBytes, e.bulkBytes)
	orEmpty(&d.backupConns, e.backupConns)
	orEmpty(&d.backupBytes, e.backupBytes)
	return &d
}

func orEmpty[T any](p **T, empty *T) {
	if *p == nil {
		*p = empty
	}
}

// cut is the application half of the epoch contract (DESIGN.md "Epoch
// cuts and windowed reports"): everything banked since the last cut
// moves into the returned delta (nil fields/containers for components
// that banked nothing; nil when nothing banked at all) and fresh empties
// replace it, while every pairing domain the analyzers keep (DNS
// pending/dedup maps, RPC binds, NFS/NCP call matching) stays behind —
// so merging consecutive cuts reproduces exactly the state an uncut
// aggregate would hold. The cost is proportional to the components the
// epoch touched, never to its sample volume or to the pairing state,
// which only grows and would make per-window cuts quadratic if copied.
// The HTTP automated-client set moves with the rest: it is a per-epoch
// census, and the union across cuts matches the uncut set exactly.
func (ap *appAggregates) cut() *appAggregates {
	s := &appAggregates{
		dnsInt:           ap.dnsInt.Cut(),
		dnsWan:           ap.dnsWan.Cut(),
		nbns:             ap.nbns.Cut(),
		ssn:              ap.ssn.Cut(),
		cifs:             ap.cifs.Cut(),
		rpc:              ap.rpc.Cut(),
		nfs:              ap.nfs.Cut(),
		ncp:              ap.ncp.Cut(),
		ncpConns:         ap.ncpConns,
		ncpKeepAliveOnly: ap.ncpKeepAliveOnly,
		sshConns:         ap.sshConns,
		sshBulk:          ap.sshBulk,
		sshPkts:          ap.sshPkts,
		sshPayload:       ap.sshPayload,
		ftpSessions:      ap.ftpSessions,
		bulkConns:        cutCounter(&ap.bulkConns),
		bulkBytes:        cutCounter(&ap.bulkBytes),
		backupConns:      cutCounter(&ap.backupConns),
		backupBytes:      cutCounter(&ap.backupBytes),
		dantzConns:       ap.dantzConns,
		dantzBidir:       ap.dantzBidir,
	}
	ap.ncpConns, ap.ncpKeepAliveOnly = 0, 0
	ap.sshConns, ap.sshBulk, ap.sshPkts, ap.sshPayload = 0, 0, 0, 0
	ap.ftpSessions = nil
	ap.dantzConns, ap.dantzBidir = 0, 0
	if len(ap.winPairs) > 0 {
		s.winPairs = ap.winPairs
		ap.winPairs = make(map[string]map[layers.HostPair]flows.State)
	}
	if len(ap.nfsUDP) > 0 {
		s.nfsUDP = ap.nfsUDP
		ap.nfsUDP = make(map[layers.HostPair]bool)
	}
	if len(ap.nfsTCP) > 0 {
		s.nfsTCP = ap.nfsTCP
		ap.nfsTCP = make(map[layers.HostPair]bool)
	}
	if !ap.email.empty() {
		s.email = ap.email
		ap.email = newEmailAgg()
	}
	if !ap.http.empty() {
		s.http = ap.http
		ap.http = newHTTPAgg()
	}
	if s.empty() {
		return nil
	}
	return s
}

// cutCounter moves a non-empty counter out (installing a fresh one) and
// returns nil for an empty one.
func cutCounter(c **stats.Counter) *stats.Counter {
	if (*c).Total() == 0 && (*c).Len() == 0 {
		return nil
	}
	out := *c
	*c = stats.NewCounter()
	return out
}

// empty reports whether a cut delta carries nothing.
func (ap *appAggregates) empty() bool {
	return ap.dnsInt == nil && ap.dnsWan == nil && ap.nbns == nil && ap.ssn == nil &&
		ap.cifs == nil && ap.rpc == nil && ap.nfs == nil && ap.ncp == nil &&
		len(ap.winPairs) == 0 && len(ap.nfsUDP) == 0 && len(ap.nfsTCP) == 0 &&
		ap.ncpConns == 0 && ap.ncpKeepAliveOnly == 0 &&
		ap.email == nil && ap.http == nil &&
		ap.sshConns == 0 && ap.sshBulk == 0 && ap.sshPkts == 0 && ap.sshPayload == 0 &&
		len(ap.ftpSessions) == 0 &&
		ap.bulkConns == nil && ap.bulkBytes == nil &&
		ap.backupConns == nil && ap.backupBytes == nil &&
		ap.dantzConns == 0 && ap.dantzBidir == 0
}

func (e *emailAgg) empty() bool {
	return e.bytesByProto.Total() == 0 && e.bytesByProto.Len() == 0 &&
		len(e.durations) == 0 && len(e.sizes) == 0 && len(e.pairs) == 0 &&
		e.smtpAccepted == 0 && e.smtpRejected == 0
}

func (h *httpAgg) empty() bool {
	return len(h.connPairs) == 0 && len(h.httpsConnsByPair) == 0 &&
		len(h.reqTotal) == 0 && len(h.dataTotal) == 0 && len(h.byClass) == 0 &&
		len(h.automated) == 0 && len(h.fanServers) == 0 &&
		len(h.contentReq) == 0 && len(h.contentLen) == 0 &&
		len(h.replySizes) == 0 && len(h.conditional) == 0 &&
		h.methods.Total() == 0 && h.methods.Len() == 0 &&
		h.statusOK == 0 && h.statusAll == 0
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

// Merge folds other's email aggregates into e (all commutative or
// host-pair-keyed operations).
func (e *emailAgg) Merge(other *emailAgg) {
	e.bytesByProto.Merge(other.bytesByProto)
	for key, d := range other.durations {
		dst := e.durations[key]
		if dst == nil {
			dst = stats.NewDist()
			e.durations[key] = dst
		}
		dst.Merge(d)
	}
	for key, d := range other.sizes {
		dst := e.sizes[key]
		if dst == nil {
			dst = stats.NewDist()
			e.sizes[key] = dst
		}
		dst.Merge(d)
	}
	for key, pm := range other.pairs {
		dst := e.pairs[key]
		if dst == nil {
			dst = make(map[layers.HostPair]bool, len(pm))
			e.pairs[key] = dst
		}
		for pair, ok := range pm {
			dst[pair] = dst[pair] || ok
		}
	}
	e.smtpAccepted += other.smtpAccepted
	e.smtpRejected += other.smtpRejected
}

// Merge folds other's HTTP aggregates into h (all commutative sums and
// set unions, so the merged state is sharding-invariant).
func (h *httpAgg) Merge(other *httpAgg) {
	for key, ok := range other.connPairs {
		h.connPairs[key] = h.connPairs[key] || ok
	}
	for pair, n := range other.httpsConnsByPair {
		h.httpsConnsByPair[pair] += n
	}
	for key, n := range other.reqTotal {
		h.reqTotal[key] += n
	}
	for key, n := range other.dataTotal {
		h.dataTotal[key] += n
	}
	for class, e := range other.byClass {
		dst := h.byClass[class]
		if dst == nil {
			dst = &struct{ Reqs, Bytes int64 }{}
			h.byClass[class] = dst
		}
		dst.Reqs += e.Reqs
		dst.Bytes += e.Bytes
	}
	for client := range other.automated {
		h.automated[client] = true
	}
	for edge := range other.fanServers {
		h.fanServers[edge] = struct{}{}
	}
	for loc, c := range other.contentReq {
		if h.contentReq[loc] == nil {
			h.contentReq[loc] = stats.NewCounter()
		}
		h.contentReq[loc].Merge(c)
	}
	for loc, c := range other.contentLen {
		if h.contentLen[loc] == nil {
			h.contentLen[loc] = stats.NewCounter()
		}
		h.contentLen[loc].Merge(c)
	}
	for loc, d := range other.replySizes {
		if h.replySizes[loc] == nil {
			h.replySizes[loc] = stats.NewDist()
		}
		h.replySizes[loc].Merge(d)
	}
	for loc, c := range other.conditional {
		dst := h.conditional[loc]
		if dst == nil {
			dst = &struct{ Cond, Total, CondBytes, Bytes int64 }{}
			h.conditional[loc] = dst
		}
		dst.Cond += c.Cond
		dst.Total += c.Total
		dst.CondBytes += c.CondBytes
		dst.Bytes += c.Bytes
	}
	h.methods.Merge(other.methods)
	h.statusOK += other.statusOK
	h.statusAll += other.statusAll
}
