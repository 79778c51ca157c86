// Throughput of the sharded streaming pipeline: the benchmarks below
// measure the packets/sec gain of sharding (EXPERIMENTS.md records the
// numbers), and the helpers they share with the allocation ceilings.
// The determinism guarantee itself is TestParallelReportIdentical's rows
// in grid_test.go.
package enttrace_test

import (
	"bytes"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

// analyzeWorkers runs a dataset through the pipeline with the given
// pipeline worker count (replay workers follow the default).
func analyzeWorkers(tb testing.TB, ds *gen.Dataset, workers int) *core.Report {
	return analyzeGrid(tb, ds, workers, 0)
}

// datasetAnalyzer returns a fresh analyzer configured for a dataset at
// an explicit (pipeline workers, replay workers) point; window 0 is a
// batch run.
func datasetAnalyzer(ds *gen.Dataset, workers, replayWorkers int, window time.Duration) *core.Analyzer {
	o := options(ds.Config)
	o.Workers, o.ReplayWorkers, o.Window = workers, replayWorkers, window
	return core.NewAnalyzer(o)
}

// analyzeGrid runs a dataset at an explicit (pipeline workers, replay
// workers) point.
func analyzeGrid(tb testing.TB, ds *gen.Dataset, workers, replayWorkers int) *core.Report {
	tb.Helper()
	return addTraces(tb, datasetAnalyzer(ds, workers, replayWorkers, 0), ds).Report()
}

// addTraces runs every trace of ds through a, in order.
func addTraces(tb testing.TB, a *core.Analyzer, ds *gen.Dataset) *core.Analyzer {
	tb.Helper()
	for _, tr := range ds.Traces {
		if err := a.AddTrace(core.TraceInput{
			Name:      tr.Prefix.String(),
			Monitored: tr.Prefix,
			Packets:   tr.Packets,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return a
}

func determinismDataset(tb testing.TB, name string, scale float64) *gen.Dataset {
	tb.Helper()
	var cfg enterprise.Config
	for _, c := range enterprise.AllDatasets() {
		if c.Name == name {
			cfg = c
		}
	}
	if cfg.Name == "" {
		tb.Fatalf("unknown dataset %s", name)
	}
	cfg.Scale = scale
	// Keep the vantage subnets (tail holds DNS/print for D3-D4) plus a
	// few client subnets, like the benchmark harness does.
	if len(cfg.Monitored) > 4 {
		head := cfg.Monitored[:2]
		tail := cfg.Monitored[len(cfg.Monitored)-2:]
		cfg.Monitored = append(append([]int{}, head...), tail...)
	}
	cfg.PerTap = 1
	return gen.GenerateDataset(cfg)
}

// datasetPcaps serializes each trace of a dataset the way entgen would.
func datasetPcaps(tb testing.TB, ds *gen.Dataset) [][]byte {
	tb.Helper()
	raws := make([][]byte, len(ds.Traces))
	for i, tr := range ds.Traces {
		var buf bytes.Buffer
		if err := gen.WriteTrace(&buf, ds.Config, tr); err != nil {
			tb.Fatal(err)
		}
		raws[i] = buf.Bytes()
	}
	return raws
}

// analyzeStream is analyzeWorkers through the streaming entry point —
// pcap bytes (datasetPcaps) read by AddTraceReader's pooled slab reader —
// which is where per-packet read allocations live; analyzeGrid hands
// the pipeline pre-built packets. It is the body of both
// BenchmarkPipelineStream* and the pipeline/stream rows of
// TestAllocationCeilings, so the two cannot drift.
func analyzeStream(tb testing.TB, ds *gen.Dataset, raws [][]byte, workers int) *core.Report {
	tb.Helper()
	a := datasetAnalyzer(ds, workers, 0, 0)
	for i, tr := range ds.Traces {
		if err := a.AddTraceReader(tr.Prefix.String(), tr.Prefix, bytes.NewReader(raws[i])); err != nil {
			tb.Fatal(err)
		}
	}
	return a.Report()
}

// benchAnalysis times one full analysis of ds per iteration and reports
// allocations and throughput in packets/sec.
func benchAnalysis(b *testing.B, ds *gen.Dataset, analysis func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis()
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(ds.TotalPackets())*float64(b.N)/elapsed, "pkts/sec")
	}
}

func benchWorkers(b *testing.B, dsName string, workers int) {
	ds := determinismDataset(b, dsName, 0.15)
	benchAnalysis(b, ds, func() { analyzeWorkers(b, ds, workers) })
}

func BenchmarkPipelineD3Workers1(b *testing.B) { benchWorkers(b, "D3", 1) }
func BenchmarkPipelineD3Workers2(b *testing.B) { benchWorkers(b, "D3", 2) }
func BenchmarkPipelineD3Workers4(b *testing.B) { benchWorkers(b, "D3", 4) }
func BenchmarkPipelineD4Workers1(b *testing.B) { benchWorkers(b, "D4", 1) }
func BenchmarkPipelineD4Workers4(b *testing.B) { benchWorkers(b, "D4", 4) }

func benchStreamWorkers(b *testing.B, dsName string, workers int) {
	ds := determinismDataset(b, dsName, 0.15)
	raws := datasetPcaps(b, ds)
	benchAnalysis(b, ds, func() { analyzeStream(b, ds, raws, workers) })
}

func BenchmarkPipelineStreamD3Workers1(b *testing.B) { benchStreamWorkers(b, "D3", 1) }
func BenchmarkPipelineStreamD3Workers4(b *testing.B) { benchStreamWorkers(b, "D3", 4) }
func BenchmarkPipelineStreamD3Workers8(b *testing.B) { benchStreamWorkers(b, "D3", 8) }
