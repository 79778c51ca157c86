// Ablation benchmarks: the four DESIGN.md §5 names, each timing one
// design choice against its alternative on a cached generated dataset
// (generation is the workload input, not the system under test). The
// paper's tables are held to its claims by fidelity_test.go's bands,
// not here.
package enttrace_test

import (
	"sync"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
	"enttrace/internal/scan"
)

var (
	dsCache   = map[string]*gen.Dataset{}
	dsCacheMu sync.Mutex
)

// dataset is the named dataset at scale 0.15 on six vantages: the tail
// of the list (DNS and print on D3–D4) and four client subnets.
func dataset(b *testing.B, name string) *gen.Dataset {
	b.Helper()
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	if ds, ok := dsCache[name]; ok {
		return ds
	}
	cfg, ok := enterprise.DatasetByName(name)
	if !ok {
		b.Fatalf("unknown dataset %s", name)
	}
	cfg.Scale = 0.15
	if len(cfg.Monitored) > 6 {
		head := cfg.Monitored[:4]
		tail := cfg.Monitored[len(cfg.Monitored)-2:]
		cfg.Monitored = append(append([]int{}, head...), tail...)
	}
	cfg.PerTap = 1
	ds := gen.GenerateDataset(cfg)
	dsCache[name] = ds
	return ds
}

// BenchmarkDecodeParser measures the zero-alloc decoder on a generated
// trace; BenchmarkDecodeAllocating is the naive per-packet-allocation
// baseline it is compared against.
func BenchmarkDecodeParser(b *testing.B) {
	ds := dataset(b, "D3")
	pkts := ds.Traces[0].Packets
	var p layers.Packet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk := pkts[i%len(pkts)]
		_ = layers.Decode(pk.Data, pk.OrigLen, &p)
	}
}

func BenchmarkDecodeAllocating(b *testing.B) {
	ds := dataset(b, "D3")
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
	ds := dataset(b, "D2")
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
	ds := dataset(b, "D0")
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
