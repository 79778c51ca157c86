package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
)

// analyzeScaled generates a scaled-down dataset and runs the full
// pipeline — the reproduction's end-to-end path.
func analyzeScaled(t testing.TB, cfg enterprise.Config, scale float64, subnets int) *Report {
	t.Helper()
	cfg.Scale = scale
	if subnets > 0 && subnets < len(cfg.Monitored) {
		cfg.Monitored = cfg.Monitored[:subnets]
	}
	ds := gen.GenerateDataset(cfg)
	a := NewAnalyzer(Options{
		Dataset:         cfg.Name,
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: cfg.Snaplen >= 1500,
	})
	for _, tr := range ds.Traces {
		if err := a.AddTrace(TraceInput{
			Name:      tr.Prefix.String(),
			Monitored: tr.Prefix,
			Packets:   tr.Packets,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return a.Report()
}

func TestEndToEndD3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	cfg := enterprise.D3()
	// Keep the DNS/print subnets for vantage effects plus a few client
	// subnets.
	cfg.Monitored = []int{2, 3, 5, 6, enterprise.SubnetDNS, enterprise.SubnetPrint}
	cfg.Scale = 0.3
	ds := gen.GenerateDataset(cfg)
	a := NewAnalyzer(Options{Dataset: "D3", KnownScanners: enterprise.KnownScanners(), PayloadAnalysis: true})
	for _, tr := range ds.Traces {
		if err := a.AddTrace(TraceInput{Name: tr.Prefix.String(), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			t.Fatal(err)
		}
	}
	r := a.Report()

	// Table 2: IP dominates (> 95%).
	if r.Table2["IP"] < 0.90 {
		t.Errorf("IP fraction = %v, want > 0.90", r.Table2["IP"])
	}
	if r.Table2["ARP"] == 0 || r.Table2["IPX"] == 0 {
		t.Error("non-IP protocols missing")
	}

	// Table 3: bulk of bytes TCP, bulk of connections UDP.
	if r.Table3.BytesFrac["TCP"] < 0.5 {
		t.Errorf("TCP byte fraction = %v, want majority", r.Table3.BytesFrac["TCP"])
	}
	if r.Table3.ConnsFrac["UDP"] < 0.5 {
		t.Errorf("UDP conn fraction = %v, want majority", r.Table3.ConnsFrac["UDP"])
	}

	// Scanner removal in the paper's 4–18% band (loosely).
	if r.Scan.RemovedFraction < 0.005 || r.Scan.RemovedFraction > 0.3 {
		t.Errorf("scan removal fraction = %v", r.Scan.RemovedFraction)
	}
	if r.Scan.Scanners == 0 {
		t.Error("no scanners found")
	}

	// Figure 1: name services dominate connections; they carry almost no
	// bytes.
	var nameRow, backupRow CategoryRow
	for _, row := range r.Figure1 {
		switch row.Category {
		case "name":
			nameRow = row
		case "backup":
			backupRow = row
		}
	}
	if nameRow.ConnsTotal() < 0.25 {
		t.Errorf("name conns share = %v, want dominant", nameRow.ConnsTotal())
	}
	if nameRow.BytesTotal() > 0.05 {
		t.Errorf("name bytes share = %v, want ≈0", nameRow.BytesTotal())
	}
	if backupRow.BytesTotal() < 0.02 {
		t.Errorf("backup bytes share = %v, want significant", backupRow.BytesTotal())
	}

	// Origins: enterprise-to-enterprise unicast dominates.
	if r.Origins["ent-ent"] < 0.5 {
		t.Errorf("ent-ent origin = %v", r.Origins["ent-ent"])
	}
	if r.Origins["multicast-internal"] == 0 {
		t.Error("no internal multicast flows")
	}

	// Names: Netbios/NS fails much more often than DNS.
	if r.Names.NBNSFailureRate < 0.25 || r.Names.NBNSFailureRate > 0.6 {
		t.Errorf("NBNS failure rate = %v, want ≈0.43", r.Names.NBNSFailureRate)
	}
	if dns := r.Names.DNSRcodes["NXDOMAIN"]; dns > r.Names.NBNSFailureRate {
		t.Errorf("DNS failure (%v) should be below NBNS (%v)", dns, r.Names.NBNSFailureRate)
	}
	if r.Names.DNSMedianLatencyEntMs >= r.Names.DNSMedianLatencyWanMs {
		t.Errorf("internal DNS latency %vms should be far below WAN %vms",
			r.Names.DNSMedianLatencyEntMs, r.Names.DNSMedianLatencyWanMs)
	}

	// Windows: D3 vantage (print server) → Spoolss/WritePrinter dominates
	// DCE/RPC; RPC pipes beat file sharing in CIFS.
	if wp := r.Windows.RPCRequests["Spoolss/WritePrinter"]; wp < 0.3 {
		t.Errorf("WritePrinter share = %v, want dominant at print vantage", wp)
	}
	if r.Windows.CIFSRequests["RPC Pipes"] == 0 {
		t.Error("no RPC pipe traffic seen")
	}
	cifsOutcome := r.Windows.Table9["CIFS"]
	if cifsOutcome.Pairs == 0 || cifsOutcome.Rejected == 0 {
		t.Errorf("CIFS outcomes = %+v, want rejected pairs from parallel dialing", cifsOutcome)
	}
	// The paper's CIFS signature is mass rejection from parallel 139/445
	// dialing; Netbios/SSN sees almost none of it.
	ssn := r.Windows.Table9["Netbios/SSN"]
	if ssn.Rejected >= cifsOutcome.Rejected {
		t.Errorf("SSN rejected (%v) should be far below CIFS (%v)", ssn.Rejected, cifsOutcome.Rejected)
	}

	// File services: read/write/attr dominate; NFS mostly UDP pairs.
	mix := r.FileSvc.NFSRequestMix
	if mix["Read"]+mix["Write"]+mix["GetAttr"] < 0.5 {
		t.Errorf("NFS request mix = %v", mix)
	}
	if r.FileSvc.NFSUDPPairs <= r.FileSvc.NFSTCPPairs {
		t.Errorf("NFS UDP pairs (%d) should exceed TCP pairs (%d)", r.FileSvc.NFSUDPPairs, r.FileSvc.NFSTCPPairs)
	}
	if r.FileSvc.NCPKeepAliveOnlyFrac < 0.2 {
		t.Errorf("NCP keep-alive-only fraction = %v, want 40–80%%", r.FileSvc.NCPKeepAliveOnlyFrac)
	}
	if r.FileSvc.NFSTop3Share < 0.3 {
		t.Errorf("NFS top-3 pair share = %v, want heavy hitters", r.FileSvc.NFSTop3Share)
	}

	// HTTP: automated clients are a large share of internal bytes;
	// internal conditional GETs exceed WAN.
	if r.HTTP.InternalRequests == 0 {
		t.Fatal("no internal HTTP parsed")
	}
	if auto := totalAutomatedBytes(r.HTTP); auto < 0.2 {
		t.Errorf("automated byte share = %v", auto)
	}
	if r.HTTP.CondEnt <= r.HTTP.CondWan {
		t.Errorf("conditional GETs: ent %v should exceed wan %v", r.HTTP.CondEnt, r.HTTP.CondWan)
	}

	// Load: network far from saturated; internal retransmission below 1%
	// in the typical trace.
	if r.Load.MedianOfMedians > 50 {
		t.Errorf("median utilization = %v Mbps, want far below capacity", r.Load.MedianOfMedians)
	}
	over := 0
	for _, tl := range r.Load.Traces {
		if tl.RetransEnt > 0.01 {
			over++
		}
	}
	if over > len(r.Load.Traces)/2 {
		t.Errorf("%d of %d traces over 1%% retransmission", over, len(r.Load.Traces))
	}

	// Backup: Veritas data strictly one-way is asserted by the generator;
	// Dantz bidirectionality must be measured.
	if r.Backup.Conns["DANTZ"] == 0 || r.Backup.DantzBidirFrac == 0 {
		t.Errorf("backup report = %+v", r.Backup)
	}

	// Findings present.
	if len(r.Findings) < 4 {
		t.Errorf("findings = %v", r.Findings)
	}
}

// pooledReader is the source entanalyze reads a pcap file through: a
// PooledReader over raw, drawing its slabs from pool.
func pooledReader(tb testing.TB, raw []byte, pool *pcap.Pool) *pcap.PooledReader {
	tb.Helper()
	rd, err := pcap.NewReader(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	return pcap.NewPooledReader(rd, pool)
}

// TestPooledReaderMatchesAddTrace drives the file path: feeding serialized
// pcaps to AddTraceSource through PooledReaders over one pool must
// produce the same report as handing AddTrace the same packets in memory.
func TestPooledReaderMatchesAddTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	cfg := enterprise.D3()
	cfg.Monitored = []int{2, enterprise.SubnetPrint}
	cfg.Scale = 0.1
	ds := gen.GenerateDataset(cfg)
	newAnalyzer := func(workers int) *Analyzer {
		return NewAnalyzer(Options{
			Dataset:         "D3",
			KnownScanners:   enterprise.KnownScanners(),
			PayloadAnalysis: true,
			Workers:         workers,
		})
	}
	// The pcap format stores microseconds; truncate before the in-memory
	// run so both paths see identical timestamps.
	inMem := newAnalyzer(1)
	streamed := newAnalyzer(4)
	pool := pcap.NewPool()
	for _, tr := range ds.Traces {
		var buf bytes.Buffer
		if err := gen.WriteTrace(&buf, cfg, tr); err != nil {
			t.Fatal(err)
		}
		var trunc []*pcap.Packet
		for _, p := range tr.Packets {
			cp := *p
			cp.Timestamp = p.Timestamp.Truncate(time.Microsecond)
			trunc = append(trunc, &cp)
		}
		if err := inMem.AddTrace(TraceInput{Name: tr.Prefix.String(), Monitored: tr.Prefix, Packets: trunc}); err != nil {
			t.Fatal(err)
		}
		if err := streamed.AddTraceSource(tr.Prefix.String(), tr.Prefix, pooledReader(t, buf.Bytes(), pool)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := inMem.Report(), streamed.Report()
	if !reflect.DeepEqual(a, b) {
		t.Error("streamed report differs from in-memory report")
	}
}

// poisonSource wraps a pooled reader and scribbles over every released
// packet before it is recycled. Any analysis state that kept a slice into
// a capture buffer past Release, instead of copying what it keeps, would
// read 0xAA garbage and change the report.
type poisonSource struct{ inner *pcap.PooledReader }

func (s *poisonSource) Next() (*pcap.Packet, error) { return s.inner.Next() }

// Release implements pcap.Releaser. Called from worker goroutines; p is
// exclusively ours here, so the scribble is race-free.
func (s *poisonSource) Release(p *pcap.Packet) {
	for i := range p.Data {
		p.Data[i] = 0xAA
	}
	s.inner.Release(p)
}

// TestRecycledBufferMutationDoesNotChangeReport guards the pooling
// contract end to end: running the full analysis over a source that
// actively corrupts every recycled buffer must produce the exact report
// of the in-memory (never-recycled) path, at 1 and 4 workers.
func TestRecycledBufferMutationDoesNotChangeReport(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	cfg := enterprise.D3()
	cfg.Monitored = []int{2, enterprise.SubnetPrint}
	cfg.Scale = 0.1
	ds := gen.GenerateDataset(cfg)
	newAnalyzer := func(workers int) *Analyzer {
		return NewAnalyzer(Options{
			Dataset:         "D3",
			KnownScanners:   enterprise.KnownScanners(),
			PayloadAnalysis: true,
			Workers:         workers,
		})
	}
	inMem := newAnalyzer(1)
	poisoned1 := newAnalyzer(1)
	poisoned4 := newAnalyzer(4)
	for _, tr := range ds.Traces {
		var raw bytes.Buffer
		if err := gen.WriteTrace(&raw, cfg, tr); err != nil {
			t.Fatal(err)
		}
		var trunc []*pcap.Packet
		for _, p := range tr.Packets {
			cp := *p
			cp.Timestamp = p.Timestamp.Truncate(time.Microsecond)
			trunc = append(trunc, &cp)
		}
		if err := inMem.AddTrace(TraceInput{Name: tr.Prefix.String(), Monitored: tr.Prefix, Packets: trunc}); err != nil {
			t.Fatal(err)
		}
		for _, a := range []*Analyzer{poisoned1, poisoned4} {
			src := &poisonSource{inner: pooledReader(t, raw.Bytes(), nil)}
			if err := a.AddTraceSource(tr.Prefix.String(), tr.Prefix, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := inMem.Report()
	if got := poisoned1.Report(); !reflect.DeepEqual(want, got) {
		t.Error("1-worker report changed when recycled buffers were mutated")
	}
	if got := poisoned4.Report(); !reflect.DeepEqual(want, got) {
		t.Error("4-worker report changed when recycled buffers were mutated")
	}
}

func TestHeaderOnlyDatasetSkipsPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	r := analyzeScaled(t, enterprise.D1(), 0.1, 3)
	// Transport-level results exist.
	if r.Table3.TotalConns == 0 {
		t.Fatal("no connections")
	}
	// Payload-level results must be absent.
	if r.HTTP.InternalRequests != 0 {
		t.Error("payload analysis ran on a 68-byte-snaplen dataset")
	}
	if r.Windows.CIFSTotalRequests != 0 {
		t.Error("CIFS commands parsed without payloads")
	}
	// Email transport stats still present (the paper analyzes email at
	// the transport layer).
	if len(r.Email.Bytes) == 0 {
		t.Error("email transport stats missing")
	}
}

func TestFanReport(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	r := analyzeScaled(t, enterprise.D2(), 0.15, 4)
	f := r.Figure2
	if f.Hosts == 0 {
		t.Fatal("no fan stats")
	}
	if len(f.FanOutEnt) == 0 || len(f.FanInEnt) == 0 {
		t.Fatal("missing CDFs")
	}
	// More internal-only hosts than a trivial fraction, per §4.
	if f.OnlyInternalFanOut < 0.2 {
		t.Errorf("only-internal fan-out fraction = %v", f.OnlyInternalFanOut)
	}
}

func TestMonitoredHostCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	r := analyzeScaled(t, enterprise.D0(), 0.3, 3)
	s := r.Table1
	if s.MonitoredHosts == 0 || s.LocalHosts <= s.MonitoredHosts || s.RemoteHosts == 0 {
		t.Errorf("host counts: %+v", s)
	}
	if s.Packets == 0 {
		t.Error("no packets")
	}
}
