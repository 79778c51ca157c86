package core

import (
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enttrace/internal/appproto/http"
	"enttrace/internal/categories"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
)

var (
	hostA = netip.MustParseAddr("128.3.2.10")
	hostB = netip.MustParseAddr("128.3.7.2")
	hostW = netip.MustParseAddr("198.128.1.1")
)

func tcpConn(src, dst netip.Addr, sport, dport uint16, state flows.State) *flows.Conn {
	c := &flows.Conn{
		Key:   layers.FlowKey{Proto: layers.ProtoTCP, Src: src, Dst: dst, SrcPort: sport, DstPort: dport},
		Proto: layers.ProtoTCP,
		State: state,
		Start: time.Unix(100, 0),
		Last:  time.Unix(101, 0),
	}
	if state == flows.StateEstablished {
		c.RespPkts = 1
	}
	return c
}

func TestWinPairFolding(t *testing.T) {
	ap := newAppAggregates()
	// Same pair: rejected then established → established wins.
	ap.winPair("CIFS", tcpConn(hostA, hostB, 40000, 445, flows.StateRejected))
	ap.winPair("CIFS", tcpConn(hostA, hostB, 40001, 445, flows.StateEstablished))
	// Reverse-direction conn is the same pair.
	ap.winPair("CIFS", tcpConn(hostB, hostA, 40002, 445, flows.StateAttempted))
	if n := len(ap.winPairs["CIFS"]); n != 1 {
		t.Fatalf("pairs = %d, want 1", n)
	}
	for _, st := range ap.winPairs["CIFS"] {
		if flows.State(st) != flows.StateEstablished {
			t.Errorf("state = %v, want established", st)
		}
	}
	// A different pair stays rejected.
	other := netip.MustParseAddr("128.3.4.4")
	ap.winPair("CIFS", tcpConn(other, hostB, 40003, 445, flows.StateRejected))
	if len(ap.winPairs["CIFS"]) != 2 {
		t.Error("second pair missing")
	}
}

func TestEmailAggLocalitySplit(t *testing.T) {
	e := newEmailAgg()
	ent := tcpConn(hostA, hostB, 40000, 25, flows.StateEstablished)
	ent.OrigBytes = 5000
	e.conn("SMTP", false, ent)
	wan := tcpConn(hostA, hostW, 40001, 25, flows.StateEstablished)
	wan.OrigBytes = 9000
	wan.Last = wan.Start.Add(4 * time.Second)
	e.conn("SMTP", true, wan)
	if e.bytesByProto.Get("SMTP") != 14000 {
		t.Errorf("smtp bytes = %d", e.bytesByProto.Get("SMTP"))
	}
	if e.durations["SMTP/ent"].N() != 1 || e.durations["SMTP/wan"].N() != 1 {
		t.Error("duration split wrong")
	}
	if got := e.sizes["SMTP/wan"].Median(); got != 9000 {
		t.Errorf("wan size = %v", got)
	}
	rate, n := successRate(e.pairs["SMTP/ent"], false)
	if rate != 1 || n != 1 {
		t.Errorf("success = %v n=%d", rate, n)
	}
}

func TestEmailAggIMAPUsesServerBytes(t *testing.T) {
	e := newEmailAgg()
	c := tcpConn(hostA, hostB, 40000, 993, flows.StateEstablished)
	c.OrigBytes, c.RespBytes = 400, 90000 // mailbox flows to the client
	e.conn("IMAP/S", false, c)
	if got := e.sizes["IMAP/S/ent"].Median(); got != 90000 {
		t.Errorf("imaps size = %v, want server→client bytes", got)
	}
	if e.bytesByProto.Get("SIMAP") != 90400 {
		t.Errorf("table8 key: %v", e.bytesByProto.Entries())
	}
}

func TestEmailAggTable8Buckets(t *testing.T) {
	e := newEmailAgg()
	for _, proto := range []string{"POP3", "POP/S", "LDAP"} {
		c := tcpConn(hostA, hostB, 40000, 110, flows.StateEstablished)
		c.OrigBytes = 100
		e.conn(proto, false, c)
	}
	if e.bytesByProto.Get("Other") != 300 {
		t.Errorf("Other bucket = %d", e.bytesByProto.Get("Other"))
	}
}

func TestHTTPAggAutomatedSeparation(t *testing.T) {
	h := newHTTPAgg()
	conn := tcpConn(hostA, hostB, 40000, 80, flows.StateEstablished)
	reqs := []http.Request{
		{Method: "GET", URI: "/a", UserAgent: "Mozilla/4.0"},
		{Method: "GET", URI: "/b", UserAgent: "LBNL-Site-Scanner/1.2"},
	}
	resps := []http.Response{
		{Status: 200, ContentType: "text/html", BodyLen: 1000},
		{Status: 404, ContentType: "text/html", BodyLen: 200},
	}
	h.conn(conn, false, reqs, resps)
	if h.intRequests != 2 {
		t.Errorf("total = %d", h.intRequests)
	}
	if h.byClass[http.ClientScanner] == nil || h.byClass[http.ClientScanner].Reqs != 1 {
		t.Error("scanner share missing")
	}
	if _, auto := h.automated[hostA]; !auto {
		t.Error("client not flagged automated")
	}
	// The browser request contributed to content stats; the scanner's
	// 404 did not (non-2xx).
	if h.contentReq["ent"].Get("text") != 1 {
		t.Errorf("content classes: %v", h.contentReq["ent"].Entries())
	}
}

func TestHTTPAggConditionalSavings(t *testing.T) {
	h := newHTTPAgg()
	conn := tcpConn(hostA, hostB, 40000, 80, flows.StateEstablished)
	h.conn(conn, false,
		[]http.Request{
			{Method: "GET", Conditional: true},
			{Method: "GET"},
		},
		[]http.Response{
			{Status: 304},
			{Status: 200, ContentType: "image/gif", BodyLen: 5000},
		})
	c := h.conditional["ent"]
	if c.Cond != 1 || c.Total != 2 {
		t.Errorf("cond = %+v", c)
	}
	if c.CondBytes != 0 || c.Bytes != 5000 {
		t.Errorf("cond bytes = %+v", c)
	}
}

func TestTransportConnBackupAccounting(t *testing.T) {
	ap := newAppAggregates()
	registry := categories.NewRegistry()
	classified := func(c *flows.Conn) string {
		name, _ := registry.Classify(c.Proto, c.Key.Src, c.Key.Dst, c.Key.SrcPort, c.Key.DstPort)
		return name
	}
	dantz := tcpConn(hostA, hostB, 40000, 497, flows.StateEstablished)
	dantz.OrigBytes, dantz.RespBytes = 200<<10, 150<<10
	ap.transportConn(dantz, classified(dantz))
	oneway := tcpConn(hostA, hostB, 40001, 497, flows.StateEstablished)
	oneway.OrigBytes = 500 << 10
	ap.transportConn(oneway, classified(oneway))
	if ap.dantzConns != 2 || ap.dantzBidir != 1 {
		t.Errorf("dantz: conns=%d bidir=%d", ap.dantzConns, ap.dantzBidir)
	}
	veritas := tcpConn(hostA, hostB, 40002, 13724, flows.StateEstablished)
	veritas.OrigBytes = 1 << 20
	ap.transportConn(veritas, classified(veritas))
	if ap.backupBytes.Get("VERITAS-BACKUP-DATA") != 1<<20 {
		t.Error("veritas bytes")
	}
}

func TestTransportConnSSH(t *testing.T) {
	ap := newAppAggregates()
	small := tcpConn(hostA, hostB, 40000, 22, flows.StateEstablished)
	small.OrigBytes, small.OrigPkts = 4000, 80
	ap.transportConn(small, "SSH")
	big := tcpConn(hostA, hostB, 40001, 22, flows.StateEstablished)
	big.OrigBytes, big.OrigPkts = 500<<10, 400
	ap.transportConn(big, "SSH")
	if ap.sshConns != 2 || ap.sshBulk != 1 {
		t.Errorf("ssh: conns=%d bulk=%d", ap.sshConns, ap.sshBulk)
	}
}

func TestMarkNCPKeepAlive(t *testing.T) {
	ap := newAppAggregates()
	ka := tcpConn(hostA, hostB, 40000, 524, flows.StateEstablished)
	ka.KeepAliveRetrans, ka.OrigBytes, ka.RespBytes = 20, 22, 0
	ap.markNCPKeepAlive(ka)
	active := tcpConn(hostA, hostB, 40001, 524, flows.StateEstablished)
	active.OrigBytes, active.RespBytes = 50000, 90000
	ap.markNCPKeepAlive(active)
	if ap.ncpKeepAliveOnly != 1 {
		t.Errorf("keepalive-only = %d", ap.ncpKeepAliveOnly)
	}
}

func TestWriteFigureData(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	r := analyzeScaled(t, enterpriseD3ForFig(), 0.15, 4)
	dir := t.TempDir()
	if err := WriteFigureData(dir, r); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 {
		t.Fatalf("wrote %d files, want 9", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, r.Dataset+"-fig02-fan.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fan-out-ent") {
		t.Error("series label missing")
	}
	ret, err := os.ReadFile(filepath.Join(dir, r.Dataset+"-fig10-retransmission.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(string(ret)), "\n")) < 2 {
		t.Error("figure 10 has no trace rows")
	}
}
