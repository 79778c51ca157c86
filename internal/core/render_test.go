package core

import (
	"bytes"
	"strings"
	"testing"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
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
