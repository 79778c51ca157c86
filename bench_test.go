// Benchmark harness: one benchmark per table and figure of the paper.
// Each benchmark measures the analysis computation that regenerates its
// experiment — the full pipeline over a pre-generated dataset — and then
// asserts the result is present, so `go test -bench .` both times and
// sanity-checks every reproduction target. Packet generation is cached
// per dataset (it is the workload input, not the system under test).
package enttrace_test

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"enttrace/internal/categories"
	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
	"enttrace/internal/scan"
)

// benchScale keeps bench datasets small enough for tight iteration while
// preserving every traffic class.
const benchScale = 0.15

// Endpoints for registry-lookup benchmarks (well-known classification is
// host-independent; the signature carries hosts for dynamic scoping).
var (
	benchAddrA = netip.AddrFrom4([4]byte{128, 3, 2, 10})
	benchAddrB = netip.AddrFrom4([4]byte{128, 3, 7, 5})
)

var (
	dsCache   = map[string]*gen.Dataset{}
	dsCacheMu sync.Mutex
)

func dataset(b *testing.B, name string, subnets int) *gen.Dataset {
	b.Helper()
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	key := name
	if ds, ok := dsCache[key]; ok {
		return ds
	}
	var cfg enterprise.Config
	for _, c := range enterprise.AllDatasets() {
		if c.Name == name {
			cfg = c
		}
	}
	if cfg.Name == "" {
		b.Fatalf("unknown dataset %s", name)
	}
	cfg.Scale = benchScale
	// Keep the vantage subnets (tail of the list holds DNS/print for
	// D3-D4) plus a few client subnets.
	if subnets < len(cfg.Monitored) {
		head := cfg.Monitored[:subnets-2]
		tail := cfg.Monitored[len(cfg.Monitored)-2:]
		cfg.Monitored = append(append([]int{}, head...), tail...)
	}
	cfg.PerTap = 1
	ds := gen.GenerateDataset(cfg)
	dsCache[key] = ds
	return ds
}

// analyze runs the full pipeline; this is the measured unit for every
// table/figure benchmark. AddTrace feeds the sharded streaming pipeline
// (Workers 0 = GOMAXPROCS); determinism_test.go pins down that the
// worker count cannot change any number these benchmarks assert on.
func analyze(b *testing.B, ds *gen.Dataset) *core.Report {
	b.Helper()
	a := core.NewAnalyzer(core.Options{
		Dataset:         ds.Config.Name,
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: ds.Config.Snaplen >= 1500,
	})
	for _, tr := range ds.Traces {
		if err := a.AddTrace(core.TraceInput{
			Name:      tr.Prefix.String(),
			Monitored: tr.Prefix,
			Packets:   tr.Packets,
		}); err != nil {
			b.Fatal(err)
		}
	}
	return a.Report()
}

func benchPackets(ds *gen.Dataset) int64 {
	var n int64
	for _, tr := range ds.Traces {
		n += int64(len(tr.Packets))
	}
	return n
}

// run is the common shape of the per-experiment benchmarks: time the
// pipeline, then verify the experiment's output exists.
func run(b *testing.B, dsName string, check func(b *testing.B, r *core.Report)) {
	ds := dataset(b, dsName, 6)
	b.ResetTimer()
	var r *core.Report
	for i := 0; i < b.N; i++ {
		r = analyze(b, ds)
	}
	b.StopTimer()
	b.ReportMetric(float64(benchPackets(ds)), "packets")
	check(b, r)
}

func BenchmarkTable1_DatasetCharacteristics(b *testing.B) {
	run(b, "D0", func(b *testing.B, r *core.Report) {
		if r.Table1.Packets == 0 || r.Table1.MonitoredHosts == 0 {
			b.Fatalf("table 1 empty: %+v", r.Table1)
		}
	})
}

func BenchmarkTable2_NetworkLayerBreakdown(b *testing.B) {
	run(b, "D0", func(b *testing.B, r *core.Report) {
		if r.Table2["IP"] < 0.9 {
			b.Fatalf("IP fraction %v", r.Table2["IP"])
		}
	})
}

func BenchmarkTable4_CategoryRegistry(b *testing.B) {
	// Table 4 is the classification registry itself; measure lookups.
	reg := categories.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cat := reg.Classify(layers.ProtoTCP, benchAddrA, benchAddrB, 40000, 445); cat != categories.Windows {
			b.Fatal("classification broken")
		}
	}
}

func BenchmarkFigure1_CategoryBreakdown(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		var name core.CategoryRow
		for _, row := range r.Figure1 {
			if row.Category == "name" {
				name = row
			}
		}
		if name.ConnsTotal() < 0.3 {
			b.Fatalf("name category share %v", name.ConnsTotal())
		}
	})
}

func BenchmarkFigure2_FanInOut(b *testing.B) {
	run(b, "D2", func(b *testing.B, r *core.Report) {
		if r.Figure2.Hosts == 0 || len(r.Figure2.FanOutEnt) == 0 {
			b.Fatal("fan report empty")
		}
	})
}

func BenchmarkTable5_Findings(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		if len(r.Findings) < 4 {
			b.Fatalf("findings: %v", r.Findings)
		}
	})
}

func BenchmarkTable6_AutomatedHTTP(b *testing.B) {
	run(b, "D4", func(b *testing.B, r *core.Report) {
		if len(r.HTTP.Automated) == 0 {
			b.Fatal("no automated clients measured")
		}
	})
}

func BenchmarkFigure3_HTTPFanOut(b *testing.B) {
	run(b, "D4", func(b *testing.B, r *core.Report) {
		if r.HTTP.NWanClients == 0 {
			b.Fatal("no WAN web clients")
		}
	})
}

func BenchmarkTable7_HTTPContentTypes(b *testing.B) {
	run(b, "D4", func(b *testing.B, r *core.Report) {
		if r.HTTP.ContentReqWan["image"] == 0 {
			b.Fatalf("content classes: %+v", r.HTTP.ContentReqWan)
		}
	})
}

func BenchmarkFigure4_HTTPReplySizes(b *testing.B) {
	run(b, "D4", func(b *testing.B, r *core.Report) {
		if len(r.HTTP.ReplySizeWan) == 0 {
			b.Fatal("no reply sizes")
		}
	})
}

func BenchmarkTable8_EmailVolume(b *testing.B) {
	run(b, "D0", func(b *testing.B, r *core.Report) {
		if r.Email.Bytes["SMTP"] == 0 && r.Email.Bytes["SIMAP"] == 0 && r.Email.Bytes["IMAP4"] == 0 {
			b.Fatalf("email bytes: %+v", r.Email.Bytes)
		}
	})
}

func BenchmarkFigure5_EmailDurations(b *testing.B) {
	run(b, "D0", func(b *testing.B, r *core.Report) {
		if r.Email.MedianSMTPDurEnt == 0 {
			b.Fatal("no SMTP durations")
		}
	})
}

func BenchmarkFigure6_EmailFlowSizes(b *testing.B) {
	run(b, "D0", func(b *testing.B, r *core.Report) {
		if len(r.Email.SMTPSizeEnt) == 0 {
			b.Fatal("no SMTP size distribution")
		}
	})
}

func BenchmarkTableNS_NameServices(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		if r.Names.NBNSFailureRate == 0 || r.Names.DNSTypes["A"] == 0 {
			b.Fatalf("name services: %+v", r.Names)
		}
	})
}

func BenchmarkTable9_WindowsSuccess(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		if r.Windows.Table9["CIFS"].Pairs == 0 {
			b.Fatal("no CIFS pairs")
		}
	})
}

func BenchmarkTable10_CIFSCommands(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		if r.Windows.CIFSRequests["RPC Pipes"] == 0 {
			b.Fatalf("CIFS commands: %+v", r.Windows.CIFSRequests)
		}
	})
}

func BenchmarkTable11_DCERPCFunctions(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		if r.Windows.RPCRequests["Spoolss/WritePrinter"] == 0 {
			b.Fatalf("RPC functions: %+v", r.Windows.RPCRequests)
		}
	})
}

func BenchmarkTable12_FileServiceSize(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		if r.FileSvc.NFSRequests == 0 || r.FileSvc.NCPRequests == 0 {
			b.Fatalf("file service totals: %+v", r.FileSvc)
		}
	})
}

func BenchmarkTable13_NFSRequests(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		if r.FileSvc.NFSRequestMix["Read"] == 0 {
			b.Fatalf("NFS mix: %+v", r.FileSvc.NFSRequestMix)
		}
	})
}

func BenchmarkTable14_NCPRequests(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		if r.FileSvc.NCPRequestMix["Read"] == 0 {
			b.Fatalf("NCP mix: %+v", r.FileSvc.NCPRequestMix)
		}
	})
}

func BenchmarkFigure7_RequestsPerPair(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		if len(r.FileSvc.NFSPerPair) == 0 || r.FileSvc.NFSTop3Share == 0 {
			b.Fatal("per-pair distribution missing")
		}
	})
}

func BenchmarkFigure8_FileServiceSizes(b *testing.B) {
	run(b, "D3", func(b *testing.B, r *core.Report) {
		if len(r.FileSvc.NFSReqSizes) == 0 || len(r.FileSvc.NCPReplySizes) == 0 {
			b.Fatal("size distributions missing")
		}
	})
}

func BenchmarkTable15_Backup(b *testing.B) {
	run(b, "D4", func(b *testing.B, r *core.Report) {
		// At bench scale the per-trace backup rates are fractional, so
		// require presence of backup traffic rather than a specific app.
		total := int64(0)
		for _, n := range r.Backup.Conns {
			total += n
		}
		if total == 0 {
			b.Fatalf("backup: %+v", r.Backup)
		}
	})
}

func BenchmarkOriginMix(b *testing.B) {
	run(b, "D2", func(b *testing.B, r *core.Report) {
		if r.Origins["ent-ent"] < 0.4 {
			b.Fatalf("origins: %+v", r.Origins)
		}
	})
}

// --- ablation benches (DESIGN.md §5) -----------------------------------

// BenchmarkDecodeParser measures the zero-alloc decoder on a generated
// trace; BenchmarkDecodeAllocating is the naive per-packet-allocation
// baseline it is compared against.
func BenchmarkDecodeParser(b *testing.B) {
	ds := dataset(b, "D3", 6)
	pkts := ds.Traces[0].Packets
	var p layers.Packet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk := pkts[i%len(pkts)]
		_ = layers.Decode(pk.Data, pk.OrigLen, &p)
	}
}

func BenchmarkDecodeAllocating(b *testing.B) {
	ds := dataset(b, "D3", 6)
	pkts := ds.Traces[0].Packets
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk := pkts[i%len(pkts)]
		p := new(layers.Packet)
		_ = layers.Decode(pk.Data, pk.OrigLen, p)
	}
}

// BenchmarkUDPTimeoutAblation measures connection-table cost across the
// UDP inactivity timeouts DESIGN.md calls out (the knob that decides
// whether periodic announcements count as one flow or many).
func BenchmarkUDPTimeoutAblation(b *testing.B) {
	ds := dataset(b, "D2", 6)
	pkts := ds.Traces[0].Packets
	var p layers.Packet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timeout := []int{10, 30, 60}[i%3]
		tbl := flows.NewTable(flows.Config{UDPTimeout: time.Duration(timeout) * time.Second})
		for _, pk := range pkts {
			if err := layers.Decode(pk.Data, pk.OrigLen, &p); err == nil {
				tbl.Packet(pk.Timestamp, &p, pk.OrigLen)
			}
		}
		tbl.Flush()
		if len(tbl.Conns()) == 0 {
			b.Fatal("no conns")
		}
	}
}

// BenchmarkScannerThresholds sweeps the heuristic's sensitivity.
func BenchmarkScannerThresholds(b *testing.B) {
	ds := dataset(b, "D0", 6)
	// Build the connection set once, in start order.
	tbl := flows.NewTable(flows.Config{})
	var p layers.Packet
	for _, tr := range ds.Traces {
		for _, pk := range tr.Packets {
			if err := layers.Decode(pk.Data, pk.OrigLen, &p); err == nil {
				tbl.Packet(pk.Timestamp, &p, pk.OrigLen)
			}
		}
	}
	tbl.Flush()
	conns := tbl.Conns()
	if res := scan.TakeCensus(conns, enterprise.KnownScanners()); len(res.Scanners) == 0 {
		b.Fatal("no scanners at default thresholds")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := scan.NewDetector()
		d.HostThreshold = 20 + (i%3)*40
		d.ObserveConns(conns)
		_ = d.Scanners()
	}
}
