package core

import (
	"runtime"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/fleet"
	"enttrace/internal/gen"
)

// BenchmarkSnapshotCodec times the fleet codec over every window of a
// 60 s-windowed D3 schedule run (the default shape tiled to an hour):
// marshal encodes each window's aggregate, as a site ships it;
// merge-from folds each window's bytes into one fresh aggregate, as
// Fleet.Report folds a site; check walks each window's bytes, as
// Fleet.Delta does on arrival; merge folds each window's aggregate into
// one fresh aggregate, as a local run's report does. Each reports µs and
// allocations per window. It calls only what the codec has long had, so
// a copy of this file measures an older tree too.
func BenchmarkSnapshotCodec(b *testing.B) {
	cfg := enterprise.D3()
	cfg.Scale = 1
	pkts := gen.GenerateScheduledTrace(enterprise.NewNetwork(cfg), cfg.Monitored[0], 0, gen.DefaultSchedule().Repeat(time.Hour))
	a := NewAnalyzer(Options{PayloadAnalysis: true, Window: time.Minute})
	if err := a.AddTrace(TraceInput{Name: "soak", Monitored: enterprise.SubnetPrefix(cfg.Monitored[0]), Packets: pkts}); err != nil {
		b.Fatal(err)
	}
	exports, err := a.ExportAll()
	if err != nil {
		b.Fatal(err)
	}
	var aggs []*epochAgg
	var payloads [][]byte
	for _, we := range exports {
		aggs = append(aggs, a.aggLocked(we.Window))
		payloads = append(payloads, we.Payload)
	}
	if len(aggs) < 30 {
		b.Fatalf("%d windows: too few to time", len(aggs))
	}
	run := func(name string, op func()) {
		b.Run(name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				op()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N * len(aggs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/per, "µs/window")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/window")
		})
	}
	run("marshal", func() {
		for _, e := range aggs {
			if _, err := fleet.Marshal(e); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("merge-from", func() {
		e := newEpochAgg()
		for _, p := range payloads {
			if err := fleet.MergeFrom(e, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("check", func() {
		for _, p := range payloads {
			if err := fleet.Check[epochAgg](p); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("merge", func() {
		e := newEpochAgg()
		for _, w := range aggs {
			fleet.Merge(e, w)
		}
	})
}
