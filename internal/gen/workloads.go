// Per-category workload builders: each method of traceGen emits the
// sessions of one Figure 1 application category for one monitored-subnet
// trace. Rates are expressed per trace-hour and multiplied by the trace
// duration and the dataset's Scale knob.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"enttrace/internal/appproto/backup"
	"enttrace/internal/appproto/cifs"
	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/appproto/dns"
	"enttrace/internal/appproto/filler"
	"enttrace/internal/appproto/ftp"
	"enttrace/internal/appproto/http"
	"enttrace/internal/appproto/imap"
	"enttrace/internal/appproto/ncp"
	"enttrace/internal/appproto/netbios"
	"enttrace/internal/appproto/smtp"
	"enttrace/internal/appproto/sunrpc"
	"enttrace/internal/enterprise"
	"enttrace/internal/pcap"
)

// traceGen holds the state for generating one trace.
type traceGen struct {
	em      *Emitter
	rng     *rand.Rand
	net     *enterprise.Network
	cfg     enterprise.Config
	subnet  int
	start   time.Time
	dur     time.Duration
	hours   float64 // dur in hours × Scale
	nextEph uint16
	remoteN int
	// pinned, when set, overrides the uniform session-start draw: every
	// at() returns exactly this instant. The scheduled workload uses it
	// to place sessions on a deterministic timeline (ramps, bursts,
	// quiet slots) while reusing the per-category session builders.
	pinned time.Time
}

// GenerateTrace produces the packets of one monitored-subnet trace as the
// capture hardware recorded them: frames are built at the dataset's
// snaplen, OrigLen keeping the wire length. tap distinguishes repeat
// traces of the same subnet (D1's per-tap 2).
func GenerateTrace(net *enterprise.Network, subnet, tap int) []*pcap.Packet {
	cfg := net.Config()
	seed := cfg.Seed*1_000_003 + int64(subnet)*1009 + int64(tap)
	em := NewEmitter(seed)
	em.snaplen = int(cfg.Snaplen)
	g := &traceGen{
		em:      em,
		rng:     em.RNG(),
		net:     net,
		cfg:     cfg,
		subnet:  subnet,
		start:   cfg.Date.Add(time.Duration(tap) * cfg.Duration),
		dur:     cfg.Duration,
		hours:   cfg.Duration.Hours() * cfg.Scale,
		nextEph: 32768,
	}
	g.webTraffic()
	g.emailTraffic()
	g.nameTraffic()
	g.windowsTraffic()
	g.netFileTraffic()
	g.backupTraffic()
	g.bulkTraffic()
	g.interactiveTraffic()
	g.streamingTraffic()
	g.netMgntTraffic()
	g.miscTraffic()
	g.otherTraffic()
	g.icmpTraffic()
	g.inboundWANTraffic()
	g.scannerTraffic()
	g.linkLayerBackground()
	return em.Packets()
}

// --- plumbing ---------------------------------------------------------

func (g *traceGen) eph() uint16 {
	g.nextEph++
	if g.nextEph < 32768 {
		g.nextEph = 32768
	}
	return g.nextEph
}

// at picks a uniform session start, leaving margin at the end (or the
// pinned instant when the scheduled workload drives the timeline).
func (g *traceGen) at(margin time.Duration) time.Time {
	if !g.pinned.IsZero() {
		return g.pinned
	}
	span := g.dur - margin
	if span <= 0 {
		span = g.dur / 2
	}
	return g.start.Add(time.Duration(g.rng.Int63n(int64(span))))
}

// scaleN scales a per-hour quantity (request counts, sustained-transfer
// sizes) to the trace duration, with a floor of one.
func (g *traceGen) scaleN(n int) int {
	v := int(float64(n) * g.hours)
	if v < 1 {
		v = 1
	}
	return v
}

// count converts a per-trace-hour rate into an integer count.
func (g *traceGen) count(perHour float64) int {
	v := perHour * g.hours
	n := int(v)
	if g.rng.Float64() < v-float64(n) {
		n++
	}
	return n
}

func (g *traceGen) clients() []enterprise.Host { return g.net.Clients(g.subnet) }

func (g *traceGen) client() enterprise.Host {
	cs := g.clients()
	return cs[g.rng.Intn(len(cs))]
}

// otherInternal picks an enterprise host outside the monitored subnet.
func (g *traceGen) otherInternal() enterprise.Host {
	s := g.rng.Intn(22)
	if s == g.subnet {
		s = (s + 1) % 22
	}
	return enterprise.InternalHost(s, 10+g.rng.Intn(180))
}

func (g *traceGen) remote() enterprise.Host {
	g.remoteN++
	return enterprise.RemoteHost(g.rng.Intn(4000))
}

func (g *traceGen) intRTT() time.Duration {
	return time.Duration(300+g.rng.Intn(900)) * time.Microsecond
}

func (g *traceGen) wanRTT() time.Duration {
	return time.Duration(10+g.rng.Intn(120)) * time.Millisecond
}

// logNormal draws a heavy-tailed size with the given median and sigma.
func (g *traceGen) logNormal(median float64, sigma float64) int {
	v := math.Exp(math.Log(median) + sigma*g.rng.NormFloat64())
	if v < 1 {
		v = 1
	}
	if v > 80e6 {
		v = 80e6
	}
	return int(v)
}

// subset picks each client independently with probability p.
func (g *traceGen) subset(p float64) []enterprise.Host {
	var out []enterprise.Host
	for _, c := range g.clients() {
		if g.rng.Float64() < p {
			out = append(out, c)
		}
	}
	return out
}

// monitors reports whether this trace's subnet is the given one.
func (g *traceGen) monitors(subnet int) bool { return g.subnet == subnet }

// loss draws a baseline per-segment loss probability: wide-area paths
// lose noticeably more than the switched internal network (§6).
func (g *traceGen) loss(client, server enterprise.Host) float64 {
	if client.Remote || server.Remote {
		return 0.002 + g.rng.Float64()*0.008
	}
	return 0.0002 + g.rng.Float64()*0.0010
}

// tcp is shorthand for a standard established session.
func (g *traceGen) tcp(client, server enterprise.Host, sport uint16, rtt time.Duration, turns []Turn) {
	g.em.TCPSession(TCPOpts{
		Client: client, Server: server,
		ClientPort: g.eph(), ServerPort: sport,
		Start: g.at(30 * time.Second), RTT: rtt, Turns: turns,
		LossProb: g.loss(client, server),
	})
}

// --- web (§5.1.1, Tables 6–7, Figures 3–4) ----------------------------

func (g *traceGen) webTraffic() {
	// WAN browsing: a minority of clients, each visiting ~an order of
	// magnitude more distinct servers than internal browsing reaches.
	for _, c := range g.subset(0.26 * g.hours) {
		nServers := 4 + g.rng.Intn(8)
		for s := 0; s < nServers; s++ {
			g.httpConn(c, g.remote(), g.wanRTT(), 1+g.rng.Intn(3), browserProfileWAN)
		}
	}
	// Internal browsing: fewer clients, fan-out 1–2 servers, more
	// conditional GETs, and a visibly higher connection failure rate.
	webSrv := g.net.Server(enterprise.RoleWeb)
	for _, c := range g.subset(0.12 * g.hours) {
		if g.rng.Float64() < 0.18 {
			outcome := Rejected
			if g.rng.Float64() < 0.35 {
				outcome = Unanswered
			}
			g.em.TCPSession(TCPOpts{
				Client: c, Server: webSrv, ClientPort: g.eph(), ServerPort: 80,
				Start: g.at(30 * time.Second), RTT: g.intRTT(), Outcome: outcome,
			})
			continue
		}
		g.httpConn(c, webSrv, g.intRTT(), 1+g.rng.Intn(3), browserProfileEnt)
		if g.rng.Float64() < 0.3 {
			g.httpConn(c, enterprise.InternalHost(13, 3), g.intRTT(), 1, browserProfileEnt)
		}
	}
	// Automated internal clients (Table 6).
	g.automatedWeb()
	// HTTPS: opaque short connections; one host pair in D4 exhibits
	// hundreds of immediately-torn-down sessions in an hour.
	for i, n := 0, g.count(14); i < n; i++ {
		g.httpsConn(g.client(), g.remote(), g.wanRTT())
	}
	if g.cfg.Name == "D4" && g.subnet == 11 {
		odd := g.clients()[0]
		srv := enterprise.InternalHost(13, 9)
		for i, n := 0, g.count(700); i < n; i++ {
			g.httpsConn(odd, srv, g.intRTT())
		}
	}
}

type browserProfile int

const (
	browserProfileWAN browserProfile = iota
	browserProfileEnt
)

// httpConn emits one HTTP connection with n transactions.
func (g *traceGen) httpConn(client, server enterprise.Host, rtt time.Duration, n int, prof browserProfile) {
	var turns []Turn
	for i := 0; i < n; i++ {
		condP := 0.16
		if prof == browserProfileEnt {
			condP = 0.40
		}
		conditional := g.rng.Float64() < condP
		req := &http.Request{
			Method:      "GET",
			URI:         fmt.Sprintf("/d%d/page%d.html", g.rng.Intn(20), g.rng.Intn(400)),
			Host:        "server",
			UserAgent:   "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)",
			Conditional: conditional,
		}
		if g.rng.Float64() < 0.03 {
			req.Method = "POST"
			req.BodyLen = g.logNormal(900, 1)
		}
		turns = append(turns, Turn{FromClient: true, Delay: time.Duration(g.rng.Intn(400)) * time.Millisecond, Data: http.EncodeRequest(req)})
		resp := &http.Response{Status: 200}
		if conditional && g.rng.Float64() < 0.85 {
			resp.Status = 304
		} else {
			resp.ContentType, resp.BodyLen = g.contentTypeAndSize()
		}
		if g.rng.Float64() < 0.02 {
			resp.Status = 404
			resp.ContentType, resp.BodyLen = "text/html", 300
		}
		turns = append(turns, Turn{Data: http.EncodeResponse(resp)})
	}
	g.tcp(client, server, 80, rtt, turns)
}

// contentTypeAndSize draws a Table 7-shaped reply: images most frequent,
// application types carrying most of the bytes.
func (g *traceGen) contentTypeAndSize() (string, int) {
	r := g.rng.Float64()
	switch {
	case r < 0.22:
		return "text/html", g.logNormal(2500, 1.2)
	case r < 0.88:
		return "image/gif", g.logNormal(3000, 1.0)
	case r < 0.97:
		types := []string{"application/octet-stream", "application/zip", "application/pdf", "application/x-javascript"}
		return types[g.rng.Intn(len(types))], g.logNormal(45000, 1.5)
	default:
		return "video/mpeg", g.logNormal(30000, 1.3)
	}
}

// automatedWeb emits the scanner, Google-bot, and iFolder activity that
// dominates internal HTTP (Table 6).
func (g *traceGen) automatedWeb() {
	webSrv := g.net.Server(enterprise.RoleWeb)
	// The site scanner sweeps web servers, provoking many 404s. It runs
	// from subnet 12 and is visible when tracing its subnet or a target's.
	scanner := enterprise.InternalHost(12, 6)
	if g.monitors(12) || g.monitors(g.net.ServerSubnet(enterprise.RoleWeb)) {
		var turns []Turn
		for i, n := 0, 18+g.rng.Intn(25); i < n; i++ {
			turns = append(turns, Turn{FromClient: true, Data: http.EncodeRequest(&http.Request{
				Method: "GET", URI: fmt.Sprintf("/cgi-bin/probe%d", i), Host: "scan-target",
				UserAgent: "LBNL-Site-Scanner/1.2",
			})})
			status, ct, n2 := 404, "text/html", 250
			if i%7 == 0 {
				status, ct, n2 = 200, "text/html", 900
			}
			turns = append(turns, Turn{Data: http.EncodeResponse(&http.Response{Status: status, ContentType: ct, BodyLen: n2})})
		}
		g.tcp(scanner, webSrv, 80, g.intRTT(), turns)
	}
	// Google search appliance crawls internal servers pulling big objects.
	bot := enterprise.InternalHost(13, 2)
	if g.monitors(13) || g.monitors(g.net.ServerSubnet(enterprise.RoleWeb)) {
		for _, gen := range []struct {
			ua    string
			n     int
			bytes float64
		}{
			{"Googlebot-1.0 appliance", 4, 150_000},
			{"Googlebot-2.1 appliance", 7, 300_000},
		} {
			var turns []Turn
			for i := 0; i < gen.n; i++ {
				turns = append(turns, Turn{FromClient: true, Data: http.EncodeRequest(&http.Request{
					Method: "GET", URI: fmt.Sprintf("/archive/doc%d.pdf", g.rng.Intn(1000)),
					Host: "intranet", UserAgent: gen.ua,
				})})
				turns = append(turns, Turn{Data: http.EncodeResponse(&http.Response{
					Status: 200, ContentType: "application/pdf", BodyLen: g.logNormal(gen.bytes, 0.7),
				})})
			}
			g.tcp(bot, webSrv, 80, g.intRTT(), turns)
		}
	}
	// iFolder clients POST sync data and receive uniform 32,780-byte
	// replies.
	ifolderSrv := enterprise.InternalHost(14, 2)
	if g.monitors(14) || g.rng.Float64() < 0.5 {
		for _, c := range g.subset(0.02 * g.hours) {
			var turns []Turn
			for i, n := 0, 1+g.rng.Intn(4); i < n; i++ {
				turns = append(turns, Turn{FromClient: true, Data: http.EncodeRequest(&http.Request{
					Method: "POST", URI: "/ifolder/sync", Host: "ifolder",
					UserAgent: "Novell iFolder client", BodyLen: g.logNormal(1500, 0.8),
				})})
				turns = append(turns, Turn{Data: http.EncodeResponse(&http.Response{
					Status: 200, ContentType: "application/octet-stream", BodyLen: 32780,
				})})
			}
			g.tcp(c, ifolderSrv, 80, g.intRTT(), turns)
		}
	}
}

// httpsConn emits an opaque TLS session that is set up and torn down
// almost immediately.
func (g *traceGen) httpsConn(client, server enterprise.Host, rtt time.Duration) {
	s := &imap.Session{Polls: 1, BytesPerPoll: 1200 + g.rng.Intn(3000), TLS: true}
	g.tcp(client, server, 443, rtt, convertIMAPTurns(s.Turns()))
}

// --- email (§5.1.2, Table 8, Figures 5–6) -----------------------------

func (g *traceGen) emailTraffic() {
	smtpSrv := g.net.Server(enterprise.RoleSMTP)
	imapSrv := g.net.Server(enterprise.RoleIMAP)
	// Client-subnet activity: submissions and mailbox polling.
	for _, c := range g.subset(0.06 * g.hours) {
		g.smtpConn(c, smtpSrv, g.intRTT(), false)
	}
	for _, c := range g.subset(0.22 * g.hours) {
		g.imapConn(c, imapSrv, g.intRTT())
	}
	// LDAP directory lookups ride in the email category.
	for i, n := 0, g.count(12); i < n; i++ {
		g.tcp(g.client(), smtpSrv, 389, g.intRTT(), []Turn{
			{FromClient: true, Data: fillBytes(180)},
			{Data: fillBytes(900)},
		})
	}
	// Mail-subnet vantage: the whole site's (and the WAN's) email.
	if g.monitors(enterprise.SubnetMail) {
		for i, n := 0, g.count(160); i < n; i++ {
			rej := g.rng.Float64() < 0.14 // WAN SMTP success 71–93% here
			g.smtpConn(g.remote(), smtpSrv, g.wanRTT(), rej)
		}
		for i, n := 0, g.count(70); i < n; i++ {
			g.smtpConn(smtpSrv, g.remote(), g.wanRTT(), g.rng.Float64() < 0.05)
		}
		for i, n := 0, g.count(140); i < n; i++ {
			g.imapConn(g.otherInternal(), imapSrv, g.intRTT())
		}
		for i, n := 0, g.count(25); i < n; i++ {
			g.imapConn(g.remote(), imapSrv, g.wanRTT())
		}
		for i, n := 0, g.count(10); i < n; i++ {
			pop := uint16(110)
			if g.cfg.IMAPSecure {
				pop = 995
			}
			g.tcp(g.remote(), imapSrv, pop, g.wanRTT(), []Turn{
				{FromClient: true, Data: fillBytes(60)},
				{Data: fillBytes(g.logNormal(15000, 1.5))},
			})
		}
	}
	// Internal SMTP between the main server and secondary relays.
	if g.rng.Float64() < 0.4*g.hours {
		g.smtpConn(enterprise.InternalHost(17, 2), smtpSrv, g.intRTT(), false)
	}
	// A few departmental hosts run their own MTAs and push mail straight
	// to the wide area, so every vantage sees some WAN SMTP.
	for i, n := 0, g.count(4); i < n; i++ {
		g.smtpConn(g.client(), g.remote(), g.wanRTT(), g.rng.Float64() < 0.1)
	}
}

func (g *traceGen) smtpConn(client, server enterprise.Host, rtt time.Duration, rejected bool) {
	d := &smtp.Dialogue{
		ClientHost: "host.example", From: "a@example.com", To: "b@lbl.gov",
		MessageSize: g.logNormal(7000, 1.6),
		Rejected:    rejected,
	}
	g.tcp(client, server, 25, rtt, convertSMTPTurns(d.Turns()))
}

func (g *traceGen) imapConn(client, server enterprise.Host, rtt time.Duration) {
	// Internal clients poll every ~10 minutes, holding connections open
	// for most of an hour trace; WAN clients check once and disconnect,
	// giving the 1-2 order-of-magnitude duration gap of Figure 5(b).
	maxPolls := int(g.dur/(10*time.Minute)) + 1
	if client.Remote || server.Remote {
		maxPolls = 1
	}
	polls := 1 + g.rng.Intn(maxPolls)
	s := &imap.Session{
		User:         "user",
		Polls:        polls,
		BytesPerPoll: g.logNormal(9000, 1.4),
		PollInterval: 10 * time.Minute,
		TLS:          g.cfg.IMAPSecure,
	}
	port := uint16(143)
	if g.cfg.IMAPSecure {
		port = 993
	}
	turns := convertIMAPTurns(s.Turns())
	g.em.TCPSession(TCPOpts{
		Client: client, Server: server,
		ClientPort: g.eph(), ServerPort: port,
		Start: g.start.Add(time.Duration(g.rng.Int63n(int64(g.dur / 6)))),
		RTT:   rtt, Turns: turns,
		LossProb: g.loss(client, server),
	})
}

func convertFTPTurns(in []ftp.Turn) []Turn {
	out := make([]Turn, len(in))
	for i, t := range in {
		out[i] = Turn{FromClient: t.FromClient, Data: t.Data}
	}
	return out
}

func convertSMTPTurns(in []smtp.Turn) []Turn {
	out := make([]Turn, len(in))
	for i, t := range in {
		out[i] = Turn{FromClient: t.FromClient, Data: t.Data}
		if !t.FromClient {
			// Server-side processing (lookups, queueing) dominates the
			// duration floor on low-RTT internal paths.
			out[i].Delay = 25 * time.Millisecond
		}
	}
	return out
}

func convertIMAPTurns(in []imap.Turn) []Turn {
	out := make([]Turn, len(in))
	for i, t := range in {
		out[i] = Turn{FromClient: t.FromClient, Delay: t.Delay, Data: t.Data}
	}
	return out
}

// --- name services (§5.1.3) -------------------------------------------

func (g *traceGen) nameTraffic() {
	dnsSrv := g.net.Server(enterprise.RoleDNS1)
	dns2 := g.net.Server(enterprise.RoleDNS2)
	// Every client resolves names against the main servers.
	for _, c := range g.clients() {
		n := g.count(float64(7 + g.rng.Intn(11)))
		for i := 0; i < n; i++ {
			srv := dnsSrv
			if g.rng.Float64() < 0.25 {
				srv = dns2
			}
			g.dnsLookup(c, srv, g.intRTT()/2, false)
		}
	}
	if g.monitors(enterprise.SubnetDNS) {
		// The server subnet sees the site's resolvers talking to the
		// wide area and inbound WAN queries.
		for i, n := 0, g.count(500); i < n; i++ {
			g.dnsLookup(dnsSrv, g.remote(), g.wanRTT(), true)
		}
		for i, n := 0, g.count(120); i < n; i++ {
			g.dnsLookup(g.remote(), dnsSrv, g.wanRTT(), false)
		}
	}
	if g.monitors(enterprise.SubnetMail) {
		// SMTP servers are the busiest DNS clients (PTR/MX for incoming
		// mail).
		smtpSrv := g.net.Server(enterprise.RoleSMTP)
		for i, n := 0, g.count(400); i < n; i++ {
			g.dnsLookupTyped(smtpSrv, dnsSrv, g.intRTT()/2, pickPTRMX(g.rng))
		}
	}
	// Netbios name service: Windows clients query and refresh against the
	// two NBNS servers; queries fail 36–50% of the time (stale names).
	nbns := []enterprise.Host{g.net.Server(enterprise.RoleNBNS1), g.net.Server(enterprise.RoleNBNS2)}
	for _, c := range g.subset(0.45 * g.hours) {
		n := 2 + g.rng.Intn(6)
		for i := 0; i < n; i++ {
			srv := nbns[g.rng.Intn(2)]
			g.nbnsExchange(c, srv)
		}
	}
	if g.monitors(enterprise.SubnetDNS) {
		for i, n := 0, g.count(900); i < n; i++ {
			g.nbnsExchange(g.otherInternal(), nbns[g.rng.Intn(2)])
		}
	}
	// SrvLoc: multicast announcements...
	slpGroup := MulticastHost([4]byte{239, 255, 255, 253})
	for i, n := 0, g.count(42); i < n; i++ {
		src := g.client()
		g.em.UDPSend(src, slpGroup, 427, 427, g.at(time.Second), fillBytes(90+g.rng.Intn(200)))
	}
	// ...and the peer-to-peer unicast pattern producing the fan-out tail.
	if g.subnet%5 == 2 {
		src := g.clients()[1%len(g.clients())]
		peers := 60 + g.rng.Intn(80)
		for i := 0; i < peers; i++ {
			dst := g.otherInternal()
			g.em.UDPExchange(src, dst, 427, 427, g.at(time.Second), g.intRTT(), fillBytes(120), fillBytes(140))
		}
	}
}

func pickPTRMX(rng *rand.Rand) uint16 {
	if rng.Float64() < 0.6 {
		return dns.TypePTR
	}
	return dns.TypeMX
}

func (g *traceGen) dnsLookup(client, server enterprise.Host, latency time.Duration, serverIsClient bool) {
	// Request-type mix: A majority, AAAA surprisingly high (hosts
	// configured to ask A and AAAA in parallel), then PTR and MX.
	r := g.rng.Float64()
	var qt uint16
	switch {
	case r < 0.42:
		qt = dns.TypeA
	case r < 0.62:
		// Parallel A + AAAA pair.
		g.dnsLookupTyped(client, server, latency, dns.TypeA)
		qt = dns.TypeAAAA
	case r < 0.78:
		qt = dns.TypePTR
	case r < 0.86:
		qt = dns.TypeMX
	default:
		qt = dns.TypeA
	}
	g.dnsLookupTyped(client, server, latency, qt)
}

func (g *traceGen) dnsLookupTyped(client, server enterprise.Host, latency time.Duration, qt uint16) {
	id := uint16(g.rng.Intn(65536))
	name := fmt.Sprintf("host%d.subnet%d.lbl.gov", g.rng.Intn(4000), g.rng.Intn(40))
	rcode := dns.RcodeNoError
	answers := uint16(1 + g.rng.Intn(2))
	switch r := g.rng.Float64(); {
	case r < 0.16:
		rcode = dns.RcodeNXDomain
		answers = 0
		name = fmt.Sprintf("gone%d.lbl.gov", g.rng.Intn(2000))
	case r < 0.19:
		rcode = dns.RcodeServFail
		answers = 0
	}
	q := dns.Encode(&dns.Message{ID: id, QName: name, QType: qt})
	resp := dns.Encode(&dns.Message{ID: id, Response: true, Rcode: rcode, QName: name, QType: qt, AnswerCount: answers})
	g.em.UDPExchange(client, server, g.eph(), 53, g.at(time.Second), latency, q, resp)
}

func (g *traceGen) nbnsExchange(client, server enterprise.Host) {
	id := uint16(g.rng.Intn(65536))
	op := netbios.OpQuery
	switch r := g.rng.Float64(); {
	case r < 0.13:
		op = netbios.OpRefresh
	case r < 0.16:
		op = netbios.OpRegister
	case r < 0.17:
		op = netbios.OpRelease
	}
	suffix := netbios.SuffixServer
	switch r := g.rng.Float64(); {
	case r < 0.35:
		suffix = netbios.SuffixWorkstation
	case r < 0.67:
		// server, already set
	case r < 0.8:
		suffix = netbios.SuffixDomain
	case r < 0.93:
		suffix = netbios.SuffixBrowser
	default:
		suffix = 0x03 // messenger: the "other" sliver
	}
	name := fmt.Sprintf("WS%04d", g.rng.Intn(3000))
	rcode := netbios.RcodeNoError
	if op == netbios.OpQuery && g.rng.Float64() < 0.43 {
		rcode = netbios.RcodeNXDomain
		name = fmt.Sprintf("STALE%03d", g.rng.Intn(400))
	}
	q := netbios.EncodeNS(&netbios.NSMessage{ID: id, Op: op, Name: name, Suffix: suffix})
	resp := netbios.EncodeNS(&netbios.NSMessage{ID: id, Response: true, Op: op, Rcode: rcode, Name: name, Suffix: suffix})
	g.em.UDPExchange(client, server, 137, 137, g.at(time.Second), g.intRTT(), q, resp)
}

// --- windows services (§5.2.1, Tables 9–11) ---------------------------

func (g *traceGen) windowsTraffic() {
	authSrv := g.net.Server(enterprise.RoleAuth)
	printSrv := g.net.Server(enterprise.RolePrint)
	for _, c := range g.subset(0.30 * g.hours) {
		// Parallel dial on 139 and 445: some servers listen only on 139,
		// so the 445 leg is rejected — the paper's CIFS failure story.
		server := authSrv
		printing := g.rng.Float64() < 0.35
		if printing {
			server = printSrv
		}
		// A slice of Netbios/SSN dials get no answer or an RST, giving
		// Table 9's 8-19% unanswered band.
		if r := g.rng.Float64(); r < 0.12 {
			outcome := Unanswered
			if r < 0.008 {
				outcome = Rejected
			}
			g.em.TCPSession(TCPOpts{
				Client: c, Server: server, ClientPort: g.eph(), ServerPort: 139,
				Start: g.at(time.Minute), RTT: g.intRTT(), Outcome: outcome,
			})
			continue
		}
		only139 := g.rng.Float64() < 0.35
		if only139 {
			g.em.TCPSession(TCPOpts{
				Client: c, Server: server, ClientPort: g.eph(), ServerPort: 445,
				Start: g.at(time.Minute), RTT: g.intRTT(), Outcome: Rejected,
			})
			g.cifsSession(c, server, 139, printing)
		} else {
			if g.rng.Float64() < 0.10 {
				g.em.TCPSession(TCPOpts{
					Client: c, Server: server, ClientPort: g.eph(), ServerPort: 445,
					Start: g.at(time.Minute), RTT: g.intRTT(), Outcome: Unanswered,
				})
				continue
			}
			g.cifsSession(c, server, 445, printing)
		}
	}
	// Server-subnet vantage: monitoring the domain controller's subnet
	// exposes the whole site's authentication chatter (the paper's D0);
	// monitoring the print server's subnet exposes everyone's print jobs
	// (D3-D4). This is what makes Table 11 flip between vantages.
	if g.monitors(enterprise.SubnetAuth) {
		for i, n := 0, g.count(800); i < n; i++ {
			g.cifsSession(g.otherInternal(), authSrv, []uint16{139, 445}[g.rng.Intn(2)], false)
		}
	}
	if g.monitors(enterprise.SubnetPrint) {
		for i, n := 0, g.count(60); i < n; i++ {
			g.cifsSession(g.otherInternal(), printSrv, []uint16{139, 445}[g.rng.Intn(2)], true)
		}
	}
	// Endpoint mapper lookups followed by stand-alone DCE/RPC. The
	// mapped connection starts after the EPM exchange finishes — a
	// client connects to a mapped endpoint only once the mapper has
	// answered, and the analyzer's replay (which classifies connections
	// in first-packet order) depends on that causality to register the
	// mapped port before the service connection is classified.
	for i, n := 0, g.count(18); i < n; i++ {
		c := g.client()
		dc := g.net.Server(enterprise.RoleEPM)
		mappedPort := uint16(2101)
		rtt := g.intRTT()
		epmTurns := []Turn{
			{FromClient: true, Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBind, CallID: 1, Iface: dcerpc.IfEPM})},
			{Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBindAck, CallID: 1, Iface: dcerpc.IfEPM})},
			{FromClient: true, Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, CallID: 2, Opnum: dcerpc.OpEpmMap, Stub: fillBytes(24)})},
			{Data: dcerpc.EncodeEpmMapResponse(2, dcerpc.IfSpoolss, printSrv.Addr, mappedPort)},
		}
		epmStart := g.at(time.Minute)
		g.em.TCPSession(TCPOpts{
			Client: c, Server: dc, ClientPort: g.eph(), ServerPort: 135,
			Start: epmStart, RTT: rtt, Turns: epmTurns,
			LossProb: g.loss(c, dc),
		})
		// Stand-alone Spoolss over the mapped port.
		var rpcTurns []Turn
		rpcTurns = append(rpcTurns,
			Turn{FromClient: true, Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBind, CallID: 1, Iface: dcerpc.IfSpoolss})},
			Turn{Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBindAck, CallID: 1, Iface: dcerpc.IfSpoolss})},
		)
		for j, m := 0, 2+g.rng.Intn(5); j < m; j++ {
			rpcTurns = append(rpcTurns,
				Turn{FromClient: true, Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, CallID: uint32(2 + j), Opnum: dcerpc.OpSpoolssWritePrinter, Stub: fillBytes(2048)})},
				Turn{Data: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTResponse, CallID: uint32(2 + j), Stub: fillBytes(16)})},
			)
		}
		g.em.TCPSession(TCPOpts{
			Client: c, Server: printSrv, ClientPort: g.eph(), ServerPort: mappedPort,
			Start: epmStart.Add(time.Duration(len(epmTurns))*rtt + 50*time.Millisecond), RTT: rtt,
			Turns:    rpcTurns,
			LossProb: g.loss(c, printSrv),
		})
	}
	// Netbios datagram service broadcasts (minor).
	for i, n := 0, g.count(8); i < n; i++ {
		bcast := MulticastHost([4]byte{128, 3, byte(g.subnet), 255})
		g.em.UDPSend(g.client(), bcast, 138, 138, g.at(time.Second), fillBytes(200))
	}
}

// cifsSession emits a full CIFS conversation over the given port. The
// vantage drives Table 11: sessions to the domain controller are
// authentication traffic; sessions to the print server are dominated by
// Spoolss WritePrinter.
func (g *traceGen) cifsSession(c, server enterprise.Host, port uint16, printing bool) {
	framed := port == 139
	var turns []Turn
	mid := uint16(1)
	wrap := func(fromClient bool, payload []byte) {
		if framed {
			payload = netbios.EncodeSSN(netbios.SSNMessage, payload)
		}
		turns = append(turns, Turn{FromClient: fromClient, Data: payload})
	}
	if framed {
		// Netbios session handshake; a small fraction get a negative
		// response and abandon the session.
		turns = append(turns, Turn{FromClient: true, Data: netbios.EncodeSSN(netbios.SSNRequest, fillBytes(68))})
		if g.rng.Float64() < 0.05 {
			turns = append(turns, Turn{Data: netbios.EncodeSSN(netbios.SSNNegativeResponse, []byte{0x8f})})
			g.tcp(c, server, port, g.intRTT(), turns)
			return
		}
		turns = append(turns, Turn{Data: netbios.EncodeSSN(netbios.SSNPositiveResponse, nil)})
	}
	req := func(cmd uint8, pipe string, payload []byte) {
		wrap(true, cifs.Encode(&cifs.Message{Command: cmd, MID: mid, PipeName: pipe, Payload: payload}))
		wrap(false, cifs.Encode(&cifs.Message{Command: cmd, MID: mid, Response: true, PipeName: pipe, Payload: fillBytes(40)}))
		mid++
	}
	req(cifs.CmdNegotiate, "", fillBytes(34))
	req(cifs.CmdSessionSetupAndX, "", fillBytes(120))
	req(cifs.CmdTreeConnectAndX, "", fillBytes(60))
	req(cifs.CmdNTCreateAndX, "", fillBytes(70))

	pipe := `\PIPE\netlogon`
	iface := dcerpc.IfNetLogon
	if printing {
		pipe, iface = `\PIPE\spoolss`, dcerpc.IfSpoolss
	}
	// DCE/RPC over the pipe.
	wrap(true, cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, PipeName: pipe,
		Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBind, CallID: 1, Iface: iface})}))
	wrap(false, cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, Response: true, PipeName: pipe,
		Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBindAck, CallID: 1, Iface: iface})}))
	mid++
	if printing {
		nWrites := 3 + g.rng.Intn(12)
		for j := 0; j < nWrites; j++ {
			wrap(true, cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, PipeName: pipe,
				Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, CallID: uint32(2 + j), Opnum: dcerpc.OpSpoolssWritePrinter, Stub: fillBytes(4000)})}))
			wrap(false, cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, Response: true, PipeName: pipe,
				Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTResponse, CallID: uint32(2 + j), Stub: fillBytes(16)})}))
			mid++
		}
		// A couple of non-write Spoolss calls around the job.
		for _, op := range []uint16{dcerpc.OpSpoolssOpenPrinter, dcerpc.OpSpoolssClosePrinter} {
			wrap(true, cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, PipeName: pipe,
				Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, CallID: 50, Opnum: op, Stub: fillBytes(180)})}))
			wrap(false, cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, Response: true, PipeName: pipe,
				Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTResponse, CallID: 50, Stub: fillBytes(60)})}))
			mid++
		}
	} else {
		for j, m := 0, 2+g.rng.Intn(4); j < m; j++ {
			op, stub := dcerpc.OpNetrLogonSamLogon, 420
			if g.rng.Float64() < 0.4 {
				op, stub = dcerpc.OpLsarLookupNames, 180
			}
			ifsel := iface
			if op == dcerpc.OpLsarLookupNames {
				ifsel = dcerpc.IfLsaRPC
				// Rebind the pipe to lsarpc for these calls.
				wrap(true, cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, PipeName: `\PIPE\lsarpc`,
					Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBind, CallID: 10, Iface: ifsel})}))
				wrap(true, cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, PipeName: `\PIPE\lsarpc`,
					Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, CallID: 11, Opnum: op, Stub: fillBytes(stub)})}))
			} else {
				wrap(true, cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, PipeName: pipe,
					Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, CallID: uint32(20 + j), Opnum: op, Stub: fillBytes(stub)})}))
			}
			wrap(false, cifs.Encode(&cifs.Message{Command: cifs.CmdTrans, MID: mid, Response: true, PipeName: pipe,
				Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTResponse, CallID: 12, Stub: fillBytes(200)})}))
			mid++
		}
	}
	// Some file sharing on the same session.
	if g.rng.Float64() < 0.5 {
		for j, m := 0, 1+g.rng.Intn(4); j < m; j++ {
			if g.rng.Float64() < 0.5 {
				req(cifs.CmdReadAndX, "", fillBytes(g.logNormal(6000, 1)))
			} else {
				req(cifs.CmdWriteAndX, "", fillBytes(g.logNormal(5000, 1)))
			}
		}
		req(cifs.CmdTrans2, "", fillBytes(220))
	}
	// LANMAN management transaction.
	if g.rng.Float64() < 0.35 {
		req(cifs.CmdTrans, cifs.LanmanPipe, fillBytes(g.logNormal(1400, 0.8)))
	}
	req(cifs.CmdClose, "", fillBytes(8))
	g.tcp(c, server, port, g.intRTT(), turns)
}

// --- network file systems (§5.2.2, Tables 12–14, Figures 7–8) ---------

func (g *traceGen) netFileTraffic() {
	nfsSrv := g.net.Server(enterprise.RoleNFS)
	ncpSrv := g.net.Server(enterprise.RoleNCP)
	nfsHere := g.monitors(g.net.ServerSubnet(enterprise.RoleNFS))
	// Heavy-hitter pairs: the top three account for the bulk of the data.
	if nfsHere {
		// The server-subnet vantage sees the heavy hitters: three pairs
		// carrying the overwhelming majority of NFS traffic.
		for i := 0; i < 3; i++ {
			g.nfsSession(g.otherInternal(), nfsSrv, g.scaleN(1500+g.rng.Intn(2500)), g.rng.Float64() < 0.75)
		}
	} else if g.rng.Float64() < 0.35 {
		g.nfsSession(g.client(), nfsSrv, g.scaleN(60+g.rng.Intn(250)), g.rng.Float64() < 0.75)
	}
	// Light pairs.
	for i, n := 0, g.count(3); i < n; i++ {
		g.nfsSession(g.client(), nfsSrv, g.scaleN(3+g.rng.Intn(40)), g.rng.Float64() < 0.9)
	}
	// NCP: a quarter of clients hold connections; many are keep-alive-only.
	for _, c := range g.subset(0.18 * g.hours) {
		if g.rng.Float64() < 0.7 {
			// Idle connection: nothing but TCP keep-alives.
			g.em.TCPSession(TCPOpts{
				Client: c, Server: ncpSrv, ClientPort: g.eph(), ServerPort: 524,
				Start:      g.start.Add(time.Duration(g.rng.Int63n(int64(g.dur / 4)))),
				RTT:        g.intRTT(),
				Turns:      []Turn{{FromClient: true, Data: fillBytes(2)}},
				KeepAlives: 2 + g.rng.Intn(int(g.dur/(2*time.Minute))+1), KeepAliveGap: 2 * time.Minute,
				NoFin: true,
			})
			continue
		}
		g.ncpSession(c, ncpSrv, g.scaleN(10+g.rng.Intn(120)))
	}
	if g.monitors(g.net.ServerSubnet(enterprise.RoleNCP)) {
		for i := 0; i < 3; i++ {
			g.ncpSession(g.otherInternal(), ncpSrv, g.scaleN(2500+g.rng.Intn(2500)))
		}
	}
}

// nfsSession emits an NFS conversation of nReq requests over UDP or TCP.
func (g *traceGen) nfsSession(client, server enterprise.Host, nReq int, overUDP bool) {
	// Per-trace operation mix, jittered to produce the cross-dataset
	// variation of Table 13.
	readW := 0.25 + g.rng.Float64()*0.4
	writeW := 0.05 + g.rng.Float64()*0.15
	getattrW := 0.15 + g.rng.Float64()*0.35
	lookupW := 0.08 + g.rng.Float64()*0.12
	accessW := 0.04
	total := readW + writeW + getattrW + lookupW + accessW + 0.02
	pick := func() uint32 {
		r := g.rng.Float64() * total
		switch {
		case r < readW:
			return sunrpc.ProcRead
		case r < readW+writeW:
			return sunrpc.ProcWrite
		case r < readW+writeW+getattrW:
			return sunrpc.ProcGetAttr
		case r < readW+writeW+getattrW+lookupW:
			return sunrpc.ProcLookup
		case r < readW+writeW+getattrW+lookupW+accessW:
			return sunrpc.ProcAccess
		default:
			return sunrpc.ProcReadDir
		}
	}
	start := g.at(time.Minute)
	now := start
	cport, sport := g.eph(), uint16(2049)
	var tcpTurns []Turn
	for i := 0; i < nReq; i++ {
		proc := pick()
		dataLen := 0
		if proc == sunrpc.ProcRead || proc == sunrpc.ProcWrite {
			dataLen = 8192
			if g.rng.Float64() < 0.25 {
				dataLen = 1024 + g.rng.Intn(7000)
			}
		}
		xid := g.rng.Uint32()
		call := sunrpc.Encode(&sunrpc.Msg{XID: xid, Type: sunrpc.MsgCall, Prog: sunrpc.ProgNFS, Vers: 3, Proc: proc, DataLen: dataLen})
		status := sunrpc.NFSOK
		if proc == sunrpc.ProcLookup && g.rng.Float64() < 0.35 {
			status = sunrpc.NFSErrNoEnt
		} else if g.rng.Float64() < 0.02 {
			status = sunrpc.NFSErrIO
		}
		reply := sunrpc.Encode(&sunrpc.Msg{XID: xid, Type: sunrpc.MsgReply, Proc: proc, Status: status, DataLen: dataLen})
		if overUDP {
			g.em.UDPExchange(client, server, cport, sport, now, g.intRTT(), call, reply)
			now = now.Add(time.Duration(2+g.rng.Intn(9)) * time.Millisecond)
		} else {
			tcpTurns = append(tcpTurns,
				Turn{FromClient: true, Delay: time.Duration(2+g.rng.Intn(9)) * time.Millisecond, Data: sunrpc.MarkRecord(call)},
				Turn{Data: sunrpc.MarkRecord(reply)},
			)
		}
	}
	if !overUDP {
		g.em.TCPSession(TCPOpts{
			Client: client, Server: server, ClientPort: cport, ServerPort: sport,
			Start: start, RTT: g.intRTT(), Turns: tcpTurns,
			LossProb: g.loss(client, server),
		})
	}
}

// ncpSession emits an NCP conversation of nReq requests.
func (g *traceGen) ncpSession(client, server enterprise.Host, nReq int) {
	var turns []Turn
	seq := uint8(1)
	for i := 0; i < nReq; i++ {
		r := g.rng.Float64()
		var fn uint8
		switch {
		case r < 0.42:
			fn = ncp.FnReadFile
		case r < 0.50:
			fn = ncp.FnWriteFile
		case r < 0.73:
			fn = ncp.FnFileDirInfo
		case r < 0.80:
			fn = ncp.FnOpenFile
		case r < 0.87:
			fn = ncp.FnGetFileSize
		case r < 0.96:
			fn = ncp.FnSearchFile
		case r < 0.98:
			fn = ncp.FnDirService
		default:
			fn = 99
		}
		dataLen := 0
		if fn == ncp.FnWriteFile {
			dataLen = 512 + g.rng.Intn(3000)
		}
		req := ncp.RequestFor(seq, fn, dataLen)
		replyLen := 0
		if fn == ncp.FnReadFile {
			replyLen = 260
			if g.rng.Float64() < 0.75 {
				replyLen = 1024 + g.rng.Intn(7168)
			}
		}
		reply := ncp.ReplyFor(req, replyLen)
		if fn == ncp.FnFileDirInfo && g.rng.Float64() < 0.05 {
			reply.Completion = 0x89
			reply.Payload = nil
		}
		turns = append(turns,
			Turn{FromClient: true, Delay: time.Duration(1+g.rng.Intn(9)) * time.Millisecond, Data: ncp.Encode(req)},
			Turn{Data: ncp.Encode(reply)},
		)
		seq++
	}
	g.tcp(client, server, 524, g.intRTT(), turns)
}

// --- backup (§5.2.3, Table 15) ----------------------------------------

func (g *traceGen) backupTraffic() {
	vSrv := g.net.Server(enterprise.RoleBackupV)
	dSrv := g.net.Server(enterprise.RoleBackupD)
	vHere := g.monitors(g.net.ServerSubnet(enterprise.RoleBackupV))
	dHere := g.monitors(g.net.ServerSubnet(enterprise.RoleBackupD))
	nV, nD := g.count(0.8), g.count(0.7)
	if vHere {
		nV = g.count(5)
	}
	lossyTrace := g.cfg.Name == "D4" && g.subnet == 16
	if lossyTrace && nV == 0 {
		nV = 1
	}
	if dHere {
		nD = g.count(4)
	}
	for i := 0; i < nV; i++ {
		client := g.client()
		if vHere {
			client = g.otherInternal()
		}
		// Control connection + one-way data connection.
		ctrl := backup.VeritasControlPlan()
		g.tcp(client, vSrv, 13720, g.intRTT(), planTurns(ctrl))
		loss := g.loss(client, vSrv)
		size := int64(g.logNormal(1.8e6, 0.7))
		if lossyTrace && i == 0 {
			// The lossy Veritas connection behind Figure 10's ~5% spike:
			// steady retransmissions throughout a large one-way dump.
			loss, size = 0.08, 8e6
		}
		g.em.TCPSession(TCPOpts{
			Client: client, Server: vSrv, ClientPort: g.eph(), ServerPort: 13724,
			Start: g.at(5 * time.Minute), RTT: g.intRTT(),
			Turns:    planTurns(backup.VeritasDataPlan(size)),
			LossProb: loss,
		})
	}
	for i := 0; i < nD; i++ {
		client := g.client()
		if dHere {
			client = g.otherInternal()
		}
		plan := backup.DantzPlan(int64(g.logNormal(9e5, 0.8)), int64(g.logNormal(4e5, 0.9)))
		g.tcp(client, dSrv, 497, g.intRTT(), planTurns(plan))
	}
	// Connected: small uploads to an external service.
	for i, n := 0, g.count(0.6); i < n; i++ {
		g.tcp(g.client(), g.remote(), 16384, g.wanRTT(), planTurns(backup.ConnectedPlan(int64(g.logNormal(2e5, 0.8)))))
	}
}

func planTurns(p *backup.Plan) []Turn {
	var out []Turn
	for _, tr := range p.Transfers {
		if tr.Bytes <= 0 {
			continue
		}
		out = append(out, Turn{FromClient: tr.FromClient, Data: fillBytes(int(tr.Bytes))})
	}
	return out
}

// --- bulk, interactive, streaming, net-mgnt, misc, other --------------

func (g *traceGen) bulkTraffic() {
	ftpSrv := g.net.Server(enterprise.RoleFTP)
	for i, n := 0, g.count(1.2); i < n; i++ {
		size := g.logNormal(7e5, 1.1)
		server, rtt := ftpSrv, g.intRTT()
		if g.rng.Float64() < 0.4 {
			server, rtt = g.remote(), g.wanRTT()
		}
		// PASV control dialogue, then the data connection to the
		// advertised port carrying the file server→client.
		cl := g.client()
		dataPort := uint16(49000 + g.rng.Intn(1000))
		ctlStart := g.at(5 * time.Minute)
		turns := convertFTPTurns(ftp.RetrievalDialogue("anonymous", "pub/data.tar", server.Addr.As4(), dataPort))
		g.em.TCPSession(TCPOpts{
			Client: cl, Server: server, ClientPort: g.eph(), ServerPort: 21,
			Start: ctlStart, RTT: rtt, Turns: turns,
			LossProb: g.loss(cl, server),
		})
		g.em.TCPSession(TCPOpts{
			Client: cl, Server: server, ClientPort: g.eph(), ServerPort: dataPort,
			Start: ctlStart.Add(time.Duration(6)*rtt + 50*time.Millisecond), RTT: rtt,
			Turns:    []Turn{{Data: fillBytes(size)}},
			LossProb: g.loss(cl, server),
		})
	}
	// HPSS internal archive transfers.
	for i, n := 0, g.count(0.8); i < n; i++ {
		g.tcp(g.client(), enterprise.InternalHost(18, 2), 1217, g.intRTT(), []Turn{
			{FromClient: true, Data: fillBytes(300)},
			{Data: fillBytes(g.logNormal(1.2e6, 0.9))},
		})
	}
}

func (g *traceGen) interactiveTraffic() {
	for _, c := range g.subset(0.10 * g.hours) {
		server, rtt := g.otherInternal(), g.intRTT()
		if g.rng.Float64() < 0.3 {
			server, rtt = g.remote(), g.wanRTT()
		}
		var turns []Turn
		// SSH banner + key exchange.
		turns = append(turns,
			Turn{Data: []byte("SSH-2.0-OpenSSH_3.9p1\r\n")},
			Turn{FromClient: true, Data: []byte("SSH-2.0-OpenSSH_3.8.1p1\r\n")},
			Turn{FromClient: true, Data: fillBytes(700)},
			Turn{Data: fillBytes(900)},
		)
		nKeys := g.scaleN(20 + g.rng.Intn(60))
		for i := 0; i < nKeys; i++ {
			turns = append(turns,
				Turn{FromClient: true, Delay: time.Duration(300+g.rng.Intn(2500)) * time.Millisecond, Data: fillBytes(36 + g.rng.Intn(20))},
				Turn{Data: fillBytes(36 + g.rng.Intn(80))},
			)
		}
		if g.rng.Float64() < 0.2 {
			// SSH also moves files (scp/tunnels): a bulk phase.
			turns = append(turns, Turn{FromClient: true, Data: fillBytes(g.logNormal(4e5, 1.0))})
		}
		g.tcp(c, server, 22, rtt, turns)
	}
	// A little telnet and X11.
	for i, n := 0, g.count(2); i < n; i++ {
		var turns []Turn
		for j := 0; j < 30; j++ {
			turns = append(turns,
				Turn{FromClient: true, Delay: time.Duration(200+g.rng.Intn(1500)) * time.Millisecond, Data: fillBytes(2 + g.rng.Intn(6))},
				Turn{Data: fillBytes(10 + g.rng.Intn(60))},
			)
		}
		g.tcp(g.client(), g.otherInternal(), 23, g.intRTT(), turns)
	}
	for i, n := 0, g.count(1.5); i < n; i++ {
		g.tcp(g.client(), g.otherInternal(), 6000, g.intRTT(), []Turn{
			{FromClient: true, Data: fillBytes(4000)},
			{Data: fillBytes(g.logNormal(60000, 1.0))},
		})
	}
}

func (g *traceGen) streamingTraffic() {
	// Multicast streaming exceeds unicast streaming (5–10% of all bytes).
	group := MulticastHost([4]byte{224, 2, byte(10 + g.subnet%8), 71})
	src := g.net.Server(enterprise.RoleWeb) // a media source elsewhere
	if g.rng.Float64() < 0.85 {
		start := g.at(g.dur / 3)
		total := g.scaleN(500_000 + g.rng.Intn(700_000))
		pktSize := 1316 // typical MPEG-TS over UDP
		interval := g.dur / 2 / time.Duration(total/pktSize+1)
		now := start
		for sent := 0; sent < total; sent += pktSize {
			g.em.UDPSend(src, group, 3000, 5004, now, fillBytes(pktSize))
			now = now.Add(interval)
		}
	}
	// Unicast RTSP/RealStream sessions.
	for i, n := 0, g.count(2); i < n; i++ {
		server, rtt := g.remote(), g.wanRTT()
		if g.rng.Float64() < 0.5 {
			server, rtt = enterprise.InternalHost(19, 2), g.intRTT()
		}
		g.tcp(g.client(), server, 554, rtt, []Turn{
			{FromClient: true, Data: []byte("DESCRIBE rtsp://media/stream1 RTSP/1.0\r\nCSeq: 1\r\n\r\n")},
			{Data: fillBytes(400)},
			{FromClient: true, Data: []byte("PLAY rtsp://media/stream1 RTSP/1.0\r\nCSeq: 2\r\n\r\n")},
			{Data: fillBytes(g.logNormal(150_000, 0.8))},
		})
	}
}

func (g *traceGen) netMgntTraffic() {
	ntpSrv := g.net.Server(enterprise.RoleDNS1) // NTP rides on the infra server
	for _, c := range g.subset(0.8 * g.hours) {
		n := 1 + g.rng.Intn(2)
		for i := 0; i < n; i++ {
			g.em.UDPExchange(c, ntpSrv, 123, 123, g.at(time.Second), g.intRTT(), fillBytes(48), fillBytes(48))
		}
	}
	// DHCP renewals.
	for i, n := 0, g.count(9); i < n; i++ {
		g.em.UDPExchange(g.client(), enterprise.InternalHost(enterprise.SubnetDNS, 6), 68, 67, g.at(time.Second), g.intRTT(), fillBytes(300), fillBytes(300))
	}
	// SNMP polling from a management station.
	mgmt := enterprise.InternalHost(15, 2)
	for i, n := 0, g.count(25); i < n; i++ {
		g.em.UDPExchange(mgmt, g.client(), g.eph(), 161, g.at(time.Second), g.intRTT(), fillBytes(80), fillBytes(220))
	}
	// NAV-ping: antivirus server liveness probes.
	nav := enterprise.InternalHost(15, 3)
	for _, c := range g.subset(0.25 * g.hours) {
		g.em.UDPExchange(c, nav, 38293, 38293, g.at(time.Second), g.intRTT(), fillBytes(30), fillBytes(30))
	}
	// SAP multicast announcements: periodic, spaced beyond the UDP flow
	// timeout so each shows up as its own flow (5–10% of connections).
	sapGroup := MulticastHost([4]byte{224, 2, 127, 254})
	for s := 0; s < 2; s++ {
		src := enterprise.InternalHost(19, 3+s)
		period := 62*time.Second + time.Duration(s)*9*time.Second
		for ts := g.start.Add(time.Duration(s) * 5 * time.Second); ts.Before(g.start.Add(g.dur)); ts = ts.Add(period) {
			g.em.UDPSend(src, sapGroup, 9875, 9875, ts, fillBytes(240))
		}
	}
	// ident callbacks.
	for i, n := 0, g.count(4); i < n; i++ {
		g.tcp(g.otherInternal(), g.client(), 113, g.intRTT(), []Turn{
			{FromClient: true, Data: []byte("1045, 25\r\n")},
			{Data: []byte("1045, 25 : USERID : UNIX : user\r\n")},
		})
	}
}

func (g *traceGen) miscTraffic() {
	printSrv := g.net.Server(enterprise.RolePrint)
	// LPD and IPP print jobs.
	for _, c := range g.subset(0.06 * g.hours) {
		port := uint16(515)
		if g.rng.Float64() < 0.4 {
			port = 631
		}
		g.tcp(c, printSrv, port, g.intRTT(), []Turn{
			{FromClient: true, Data: fillBytes(120)},
			{Data: fillBytes(20)},
			{FromClient: true, Data: fillBytes(g.logNormal(90_000, 1.2))},
			{Data: fillBytes(10)},
		})
	}
	// Database sessions.
	for i, n := 0, g.count(3); i < n; i++ {
		port := uint16(1521)
		if g.rng.Float64() < 0.5 {
			port = 1433
		}
		var turns []Turn
		for j, m := 0, 4+g.rng.Intn(12); j < m; j++ {
			turns = append(turns,
				Turn{FromClient: true, Delay: time.Duration(g.rng.Intn(800)) * time.Millisecond, Data: fillBytes(200 + g.rng.Intn(600))},
				Turn{Data: fillBytes(g.logNormal(3000, 1.0))},
			)
		}
		g.tcp(g.client(), enterprise.InternalHost(17, 3), port, g.intRTT(), turns)
	}
	// Steltor calendar polls and MetaSys building-management beacons:
	// periodic probes giving the misc category its stable connection
	// share.
	steltor := enterprise.InternalHost(17, 4)
	for _, c := range g.subset(0.03 * g.hours) {
		g.tcp(c, steltor, 5729, g.intRTT(), []Turn{
			{FromClient: true, Data: fillBytes(90)},
			{Data: fillBytes(400)},
		})
	}
	metasys := enterprise.InternalHost(19, 9)
	for ts := g.start.Add(11 * time.Second); ts.Before(g.start.Add(g.dur)); ts = ts.Add(110 * time.Second) {
		g.em.UDPSend(metasys, enterprise.InternalHost(g.subnet, 255), 11001, 11001, ts, fillBytes(120))
	}
}

func (g *traceGen) otherTraffic() {
	// Unknown TCP services.
	for i, n := 0, g.count(16); i < n; i++ {
		port := uint16(20000 + g.rng.Intn(20000))
		g.tcp(g.client(), g.otherInternal(), port, g.intRTT(), []Turn{
			{FromClient: true, Data: fillBytes(100 + g.rng.Intn(2000))},
			{Data: fillBytes(100 + g.rng.Intn(4000))},
		})
	}
	// Unknown UDP chatter.
	for i, n := 0, g.count(50); i < n; i++ {
		port := uint16(20000 + g.rng.Intn(20000))
		g.em.UDPExchange(g.client(), g.otherInternal(), g.eph(), port, g.at(time.Second), g.intRTT(), fillBytes(60+g.rng.Intn(400)), fillBytes(60+g.rng.Intn(400)))
	}
}

func (g *traceGen) icmpTraffic() {
	for i, n := 0, g.count(45); i < n; i++ {
		dst := g.otherInternal()
		rtt := g.intRTT()
		if g.rng.Float64() < 0.2 {
			dst, rtt = g.remote(), g.wanRTT()
		}
		id := uint16(g.rng.Intn(65536))
		nEcho := 1 + g.rng.Intn(4)
		base := g.at(10 * time.Second)
		for s := 0; s < nEcho; s++ {
			g.em.ICMPEcho(g.client(), dst, id, uint16(s), base.Add(time.Duration(s)*time.Second), rtt, g.rng.Float64() < 0.9)
		}
	}
}

// inboundWANTraffic models the wide area reaching into the enterprise:
// WAN browsers hitting public web servers, inbound SSH, sparse probe
// background that survives the border filter (each source touches too few
// hosts, in no particular order, to trip the scan heuristic), and
// externally-sourced multicast.
func (g *traceGen) inboundWANTraffic() {
	webSrv := g.net.Server(enterprise.RoleWeb)
	if g.monitors(g.net.ServerSubnet(enterprise.RoleWeb)) {
		for i, n := 0, g.count(55); i < n; i++ {
			g.httpConn(g.remote(), webSrv, g.wanRTT(), 1+g.rng.Intn(3), browserProfileWAN)
		}
	}
	// Light per-client inbound background: echoes, UDP probes, the odd
	// TCP connection attempt.
	for _, c := range g.subset(0.5 * g.hours) {
		nFlows := 1 + g.rng.Intn(3)
		for f := 0; f < nFlows; f++ {
			src := g.remote()
			switch g.rng.Intn(3) {
			case 0:
				g.em.ICMPEcho(src, c, uint16(g.rng.Intn(65536)), 0, g.at(10*time.Second), g.wanRTT(), g.rng.Float64() < 0.7)
			case 1:
				g.em.UDPExchange(src, c, g.eph(), uint16(1024+g.rng.Intn(3000)), g.at(10*time.Second), g.wanRTT(), fillBytes(40), nil)
			default:
				outcome := Rejected
				if g.rng.Float64() < 0.5 {
					outcome = Unanswered
				}
				g.em.TCPSession(TCPOpts{
					Client: src, Server: c, ClientPort: g.eph(), ServerPort: []uint16{80, 22, 443}[g.rng.Intn(3)],
					Start: g.at(time.Minute), RTT: g.wanRTT(), Outcome: outcome,
				})
			}
		}
	}
	// Inbound SSH to a few hosts.
	for i, n := 0, g.count(3); i < n; i++ {
		g.tcp(g.remote(), g.client(), 22, g.wanRTT(), []Turn{
			{Data: []byte("SSH-2.0-OpenSSH_3.9p1\r\n")},
			{FromClient: true, Data: fillBytes(800)},
			{Data: fillBytes(900)},
			{FromClient: true, Data: fillBytes(g.logNormal(20000, 1.0))},
		})
	}
	// Externally-sourced multicast: MBone-era session announcements and
	// an occasional external video stream.
	sapGroup := MulticastHost([4]byte{224, 2, 127, 254})
	extSrc := enterprise.RemoteHost(70001)
	for ts := g.start.Add(17 * time.Second); ts.Before(g.start.Add(g.dur)); ts = ts.Add(95 * time.Second) {
		g.em.UDPSend(extSrc, sapGroup, 9875, 9875, ts, fillBytes(220))
	}
	if g.rng.Float64() < 0.35 {
		group := MulticastHost([4]byte{224, 2, 200, byte(g.subnet)})
		src := enterprise.RemoteHost(70002)
		now := g.at(g.dur / 2)
		for sent := 0; sent < g.scaleN(150_000); sent += 1316 {
			g.em.UDPSend(src, group, 3000, 5004, now, fillBytes(1316))
			now = now.Add(40 * time.Millisecond)
		}
	}
}

// scannerTraffic emits the traffic §3's heuristic removes: external ICMP
// sweeps and the two known internal scanners' TCP sweeps.
func (g *traceGen) scannerTraffic() {
	// External ICMP scanner sweeping this subnet in address order.
	ext := enterprise.RemoteHost(90000 + g.subnet)
	base := g.at(g.dur / 2)
	nSweep := 52 + g.rng.Intn(40)
	if g.rng.Float64() > 0.5 {
		nSweep = 0 // the sweep passes this subnet by this hour
	}
	for i := 0; i < nSweep; i++ {
		target := enterprise.InternalHost(g.subnet, 2+i)
		g.em.ICMPEcho(ext, target, 7, uint16(i), base.Add(time.Duration(i)*150*time.Millisecond), g.wanRTT(), g.rng.Float64() < 0.25)
	}
	// Internal vulnerability scanners: TCP SYN sweeps on service ports.
	for si, scanner := range enterprise.KnownScanners() {
		src := enterprise.Host{Addr: scanner, MAC: enterprise.InternalHost(20+si, 4).MAC, Subnet: 20 + si}
		if g.rng.Float64() > 0.7 {
			continue // scanners don't hit every subnet every hour
		}
		sweepBase := g.at(g.dur / 3)
		for i := 0; i < 55; i++ {
			target := enterprise.InternalHost(g.subnet, 2+i)
			outcome := Unanswered
			if g.rng.Float64() < 0.2 {
				outcome = Rejected
			}
			g.em.TCPSession(TCPOpts{
				Client: src, Server: target,
				ClientPort: g.eph(), ServerPort: []uint16{80, 445, 22}[i%3],
				Start: sweepBase.Add(time.Duration(i) * 120 * time.Millisecond),
				RTT:   g.intRTT(), Outcome: outcome,
			})
		}
	}
}

// linkLayerBackground emits the non-IP traffic of Table 2: ARP exchanges,
// IPX broadcasts, and a sprinkle of other ethertypes.
func (g *traceGen) linkLayerBackground() {
	router := enterprise.InternalHost(g.subnet, 1)
	for i, n := 0, g.count(160); i < n; i++ {
		g.em.ARPExchange(router, g.client(), g.at(time.Second))
	}
	for i, n := 0, g.count(250); i < n; i++ {
		src := g.client()
		g.em.IPXBroadcast(src, g.at(time.Second), fillBytes(96), g.rng.Float64() < 0.5)
	}
	// Other ethertypes (AppleTalk-era leftovers, LLDP, ...).
	for i, n := 0, g.count(120); i < n; i++ {
		frame := make([]byte, 80)
		src := g.client()
		copy(frame[0:6], src.MAC[:])
		copy(frame[6:12], src.MAC[:])
		frame[0] = 0xff // broadcast-ish
		frame[12], frame[13] = 0x80, 0x9b
		g.em.frame(g.at(time.Second), frame)
	}
}

// fillBytes produces n deterministic filler bytes.
func fillBytes(n int) []byte { return filler.Bytes(n, "abcdefghijklmnopqrstuvw") }
