package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
	"enttrace/internal/stats"
)

func TestRenderTextCoversEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	cfg := enterprise.D3()
	cfg.Scale = 0.2
	cfg.Monitored = []int{2, 5, 6, 7, 8, 9, enterprise.SubnetDNS, enterprise.SubnetPrint}
	ds := gen.GenerateDataset(cfg)
	a := NewAnalyzer(Options{Dataset: "D3", KnownScanners: enterprise.KnownScanners(), PayloadAnalysis: true})
	for _, tr := range ds.Traces {
		if err := a.AddTrace(TraceInput{Name: tr.Prefix.String(), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			t.Fatal(err)
		}
	}
	out := RenderText(a.Report())
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Scanner removal",
		"Figure 1", "Figure 2", "Origins",
		"Table 6", "Fig 3", "Table 7", "Figure 4",
		"Table 8", "Figure 5",
		"Name services", "Netbios/NS failure",
		"Table 9", "Table 10", "Table 11",
		"Table 13", "Table 14", "Figure 8",
		"Table 15", "Dantz bidirectional",
		"Figures 9–10", "retransmission",
		"Table 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q", want)
		}
	}
}

func TestRenderEmptyReport(t *testing.T) {
	a := NewAnalyzer(Options{Dataset: "empty"})
	out := RenderText(a.Report())
	if !strings.Contains(out, "Dataset empty") {
		t.Error("empty report should still render")
	}
}

// TestFindingsReadTheirFields pins Table 5: each sentence findings
// writes is gated on one report field, which, zeroed, drops that
// sentence and no other, and each number in a sentence is the formatted
// value of the field it names.
func TestFindingsReadTheirFields(t *testing.T) {
	full := func() *Report {
		return &Report{
			HTTP: HTTPReport{Automated: map[string]AutomatedShare{
				"Google bot": {ReqFrac: 0.10, ByteFrac: 0.30},
				"scanner":    {ReqFrac: 0.05, ByteFrac: 0.20},
			}},
			Email: EmailReport{MedianIMAPSDurEnt: 120, MedianIMAPSDurWan: 10},
			Names: NameServiceReport{NBNSFailureRate: 0.36, DNSRcodes: map[string]float64{"NXDOMAIN": 0.03}},
			Windows: WindowsReport{CIFSRequests: map[string]float64{
				"RPC Pipes": 0.45, "Windows File Sharing": 0.40,
			}},
			FileSvc: FileServiceReport{NFSRequestMix: map[string]float64{"Read": 0.40, "Write": 0.20, "GetAttr": 0.10, "Lookup": 0.30}},
			Backup:  BackupReport{Conns: map[string]int64{"DANTZ": 3}, DantzBidirFrac: 0.67},
		}
	}
	sentences := []struct {
		field string
		zero  func(*Report)
		want  string
	}{
		{"HTTP.Automated", func(r *Report) { r.HTTP.Automated = nil },
			"§5.1.1 Automated HTTP clients account for 15% of internal requests and 50% of internal HTTP bytes (largest: Google bot)."},
		{"Email.MedianIMAPSDurEnt", func(r *Report) { r.Email.MedianIMAPSDurEnt = 0 },
			"§5.1.2 Internal IMAP/S connections last 12x longer than WAN ones (medians 120.0s vs 10.0s)."},
		{"Names.NBNSFailureRate", func(r *Report) { r.Names.NBNSFailureRate = 0 },
			"§5.1.3 Netbios/NS queries fail 36% of the time vs 3% for DNS."},
		{"Windows.CIFSRequests", func(r *Report) { r.Windows.CIFSRequests = nil },
			"§5.2.1 DCE/RPC named pipes carry 45% of CIFS requests; Windows File Sharing 40%."},
		{"FileSvc.NFSRequestMix", func(r *Report) { r.FileSvc.NFSRequestMix = nil },
			"§5.2.2 Read/write/attr operations make up 70% of NFS requests."},
		{"Backup.Conns", func(r *Report) { r.Backup.Conns = nil },
			"§5.2.3 67% of Dantz connections carry ≥100KB in both directions."},
	}
	var all []string
	for _, s := range sentences {
		all = append(all, s.want)
	}
	if got := findings(full()); !slices.Equal(got, all) {
		t.Fatalf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(all, "\n  "))
	}
	for i, s := range sentences {
		r := full()
		s.zero(r)
		want := slices.Delete(slices.Clone(all), i, i+1)
		if got := findings(r); !slices.Equal(got, want) {
			t.Errorf("%s zeroed: findings %q, want every sentence but %q", s.field, got, s.want)
		}
	}
	if got := findings(&Report{}); len(got) != 0 {
		t.Errorf("findings from an empty report: %q", got)
	}
}

// TestPcapRoundTripEquivalence verifies that analyzing a trace written to
// and re-read from a pcap file yields the same connection-level numbers
// as analyzing it in memory — entgen|entanalyze and entreport agree.
func TestPcapRoundTripEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	cfg := enterprise.D0()
	cfg.Scale = 0.2
	cfg.Monitored = cfg.Monitored[:2]
	ds := gen.GenerateDataset(cfg)

	analyzeTraces := func(traces []TraceInput) *Report {
		a := NewAnalyzer(Options{Dataset: "x", KnownScanners: enterprise.KnownScanners(), PayloadAnalysis: true})
		for _, tr := range traces {
			if err := a.AddTrace(tr); err != nil {
				t.Fatal(err)
			}
		}
		return a.Report()
	}

	var direct, viaFile []TraceInput
	for _, tr := range ds.Traces {
		direct = append(direct, TraceInput{Name: "m", Monitored: tr.Prefix, Packets: tr.Packets})
		var buf bytes.Buffer
		if err := gen.WriteTrace(&buf, cfg, tr); err != nil {
			t.Fatal(err)
		}
		r, err := pcap.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := pcap.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		viaFile = append(viaFile, TraceInput{Name: "f", Monitored: tr.Prefix, Packets: pkts})
	}
	r1 := analyzeTraces(direct)
	r2 := analyzeTraces(viaFile)

	if r1.Table1.Packets != r2.Table1.Packets {
		t.Errorf("packet counts differ: %d vs %d", r1.Table1.Packets, r2.Table1.Packets)
	}
	if r1.Table3.TotalConns != r2.Table3.TotalConns {
		t.Errorf("conn counts differ: %d vs %d", r1.Table3.TotalConns, r2.Table3.TotalConns)
	}
	if r1.Table3.TotalBytes != r2.Table3.TotalBytes {
		t.Errorf("payload bytes differ: %d vs %d", r1.Table3.TotalBytes, r2.Table3.TotalBytes)
	}
	if r1.Scan.RemovedConns != r2.Scan.RemovedConns {
		t.Errorf("scan removal differs: %d vs %d", r1.Scan.RemovedConns, r2.Scan.RemovedConns)
	}
	if r1.HTTP.InternalRequests != r2.HTTP.InternalRequests {
		t.Errorf("HTTP requests differ: %d vs %d", r1.HTTP.InternalRequests, r2.HTTP.InternalRequests)
	}
	if r1.FileSvc.NFSRequests != r2.FileSvc.NFSRequests {
		t.Errorf("NFS requests differ: %d vs %d", r1.FileSvc.NFSRequests, r2.FileSvc.NFSRequests)
	}
}

func TestCategoryRowTotals(t *testing.T) {
	row := CategoryRow{BytesEnt: 0.2, BytesWan: 0.1, ConnsEnt: 0.05, ConnsWan: 0.02}
	if d := row.BytesTotal() - 0.3; d > 1e-12 || d < -1e-12 {
		t.Error("bytes total")
	}
	if d := row.ConnsTotal() - 0.07; d > 1e-12 || d < -1e-12 {
		t.Error("conns total")
	}
}

func TestFigure1SumsToUnity(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	r := analyzeScaled(t, enterprise.D4(), 0.15, 4)
	var bytesSum, connsSum float64
	for _, row := range r.Figure1 {
		// Unicast shares plus the separately-reported multicast shares
		// cover the whole TCP/UDP payload denominator.
		bytesSum += row.BytesTotal() + row.BytesMulticast
		connsSum += row.ConnsTotal() + row.ConnsMulticast
	}
	if bytesSum < 0.98 || bytesSum > 1.001 {
		t.Errorf("bytes shares sum to %v", bytesSum)
	}
	if connsSum < 0.95 || connsSum > 1.001 {
		t.Errorf("conns shares sum to %v", connsSum)
	}
}

// TestAutomatedTotalsPrintTheSameEveryTime: the §5.1.1 finding adds the
// Table 6 classes' shares, and 0.194 + 0.091 + 0.08 is 36 % or 37 %
// depending on the order of the additions. Built from the same report,
// the sentence must not change, and it adds in class-name order.
func TestAutomatedTotalsPrintTheSameEveryTime(t *testing.T) {
	a, b, c := 0.194, 0.091, 0.08
	r := &Report{HTTP: HTTPReport{Automated: map[string]AutomatedShare{
		"a": {ReqFrac: a, ByteFrac: a},
		"b": {ReqFrac: b, ByteFrac: b},
		"c": {ReqFrac: c, ByteFrac: c},
	}}}
	total := stats.Pct(a + b + c) // (a + b) + c
	want := "§5.1.1 Automated HTTP clients account for " + total + " of internal requests and " + total + " of internal HTTP bytes (largest: a)."
	for range 200 {
		if got := findings(r); len(got) != 1 || got[0] != want {
			t.Fatalf("findings %q, want %q", got, want)
		}
	}
}
