package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"enttrace/internal/advtest"
	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
)

// suiteScale mirrors the bench_test.go harness: datasets small enough
// for tight iteration, every traffic class preserved.
const suiteScale = 0.15

// streamWorkerCounts are the shard counts the pipeline micro-benchmarks
// sweep — the determinism tests pin these same counts bit-identical.
var streamWorkerCounts = []int{1, 4, 8}

// Benchmark is one suite entry. F must call b.ReportAllocs (allocation
// telemetry is the primary CI gate) and may attach a pkts/sec extra via
// b.ReportMetric.
type Benchmark struct {
	Name string
	F    func(b *testing.B)
	// GOMAXPROCS, when non-zero, pins the scheduler width for this
	// entry: the runner sets it before F and restores it after. Gated
	// suite entries leave it zero (run at the process default, so the
	// 1-CPU baseline gate is undisturbed); the scaling grid sweeps it.
	GOMAXPROCS int
}

var (
	dsCache   = map[string]*gen.Dataset{}
	dsCacheMu sync.Mutex
)

// suiteDataset builds (and caches) a scaled dataset the same way the
// go-test benchmark harness does: vantage subnets kept, a few client
// subnets, one tap per subnet.
func suiteDataset(name string) *gen.Dataset {
	return suiteDatasetScaled(name, suiteScale)
}

// suiteDatasetScaled is suiteDataset with an explicit workload scale —
// the windowed-overhead pair measures at the reproduction's full
// density (scale 1.0), where a 60-second window carries a realistic
// packet volume for the cut cost to amortize over.
func suiteDatasetScaled(name string, scale float64) *gen.Dataset {
	dsCacheMu.Lock()
	defer dsCacheMu.Unlock()
	key := fmt.Sprintf("%s@%g", name, scale)
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
		panic("bench: unknown dataset " + name)
	}
	cfg.Scale = scale
	const subnets = 6
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

// serializedTrace is one trace as raw pcap bytes.
type serializedTrace struct {
	name string
	pre  netip.Prefix
	raw  []byte
}

func serializeDataset(ds *gen.Dataset) []serializedTrace {
	var out []serializedTrace
	for _, tr := range ds.Traces {
		var buf bytes.Buffer
		if err := gen.WriteTrace(&buf, ds.Config, tr); err != nil {
			panic(fmt.Sprintf("bench: serializing trace: %v", err))
		}
		out = append(out, serializedTrace{name: tr.Prefix.String(), pre: tr.Prefix, raw: buf.Bytes()})
	}
	return out
}

func datasetPackets(ds *gen.Dataset) int64 {
	var n int64
	for _, tr := range ds.Traces {
		n += int64(len(tr.Packets))
	}
	return n
}

func newAnalyzer(ds *gen.Dataset, workers int) *core.Analyzer {
	return newAnalyzerReplay(ds, workers, 0)
}

func newAnalyzerReplay(ds *gen.Dataset, workers, replayWorkers int) *core.Analyzer {
	return newAnalyzerWindow(ds, workers, replayWorkers, 0)
}

func newAnalyzerWindow(ds *gen.Dataset, workers, replayWorkers int, window time.Duration) *core.Analyzer {
	return core.NewAnalyzer(core.Options{
		Dataset:         ds.Config.Name,
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: ds.Config.Snaplen >= 1500,
		Workers:         workers,
		ReplayWorkers:   replayWorkers,
		Window:          window,
	})
}

// Suite returns every perf-telemetry benchmark:
//
//   - decode: the zero-alloc layer decoder over one trace (B/op must
//     stay 0 — this is the gate that keeps it that way).
//   - pcap/read-trace[-pooled]: trace reading with owning vs recycled
//     packets; the pooled variant is the hot path's read mode.
//   - pipeline/stream/workers=N: the full streaming analysis
//     (pcap bytes -> decode -> route -> shard -> replay -> report) at
//     the determinism-pinned worker counts.
//   - reassembly/*: the zero-copy TCP reassembly layer, in-order and
//     out-of-order regimes (pooled-buffer alloc gates).
//   - replay/D3/workers=N: the two-phase deterministic replay stage at
//     the determinism-pinned replay worker counts (fixed pipeline shape).
//   - replay/D3/window={0,60s}: the epoch-rotation overhead pair — one
//     cut per trace versus minute-windowed cutting and banking at the
//     same worker shape (the <5% rotation-cost gate).
//   - stats/dist-observe: the compact Dist representation's
//     bounded-memory gate.
//   - analyze/D0..D4: the in-memory measured unit behind every table and
//     figure benchmark in bench_test.go, one per paper dataset.
//   - soak/D3-shape[/window=60s]: the streamed gen→analyze loop (the
//     entanalyze -gen load harness) over an hour-tiled schedule, batch
//     and minute-windowed.
func Suite() []Benchmark {
	var suite []Benchmark

	suite = append(suite, Benchmark{
		Name: "decode/d3",
		F: func(b *testing.B) {
			pkts := suiteDataset("D3").Traces[0].Packets
			var p layers.Packet
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, pk := range pkts {
					_ = layers.Decode(pk.Data, pk.OrigLen, &p)
				}
			}
			reportPktsPerSec(b, int64(len(pkts)))
		},
	})

	suite = append(suite, Benchmark{
		Name: "pcap/read-trace",
		F: func(b *testing.B) {
			raw := serializeDataset(suiteDataset("D3"))[0]
			b.ReportAllocs()
			b.ResetTimer()
			var n int64
			for i := 0; i < b.N; i++ {
				n = readTrace(b, raw.raw, nil)
			}
			reportPktsPerSec(b, n)
		},
	})

	suite = append(suite, Benchmark{
		Name: "pcap/read-trace-pooled",
		F: func(b *testing.B) {
			raw := serializeDataset(suiteDataset("D3"))[0]
			pool := pcap.NewPool()
			b.ReportAllocs()
			b.ResetTimer()
			var n int64
			for i := 0; i < b.N; i++ {
				n = readTrace(b, raw.raw, pool)
			}
			reportPktsPerSec(b, n)
		},
	})

	for _, workers := range streamWorkerCounts {
		workers := workers
		suite = append(suite, Benchmark{
			Name: fmt.Sprintf("pipeline/stream/workers=%d", workers),
			F: func(b *testing.B) {
				StreamBenchmark(b, suiteDataset("D3"), workers)
			},
		})
	}

	suite = append(suite, reassemblyBenchmarks()...)
	suite = append(suite, statsBenchmarks()...)

	// replay/*: the two-phase deterministic replay stage, swept across
	// replay worker counts at a fixed pipeline shape (D3, 4 pipeline
	// workers). The deltas between entries isolate the replay stage's
	// sharded-fan-out cost/benefit; the workers=1 entry is the serial
	// two-phase baseline. Gated like every other entry.
	for _, rw := range []int{1, 4, 8} {
		rw := rw
		suite = append(suite, Benchmark{
			Name: fmt.Sprintf("replay/D3/workers=%d", rw),
			F: func(b *testing.B) {
				ds := suiteDataset("D3")
				pkts := datasetPackets(ds)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := newAnalyzerReplay(ds, 4, rw)
					for _, tr := range ds.Traces {
						if err := a.AddTrace(core.TraceInput{
							Name:      tr.Prefix.String(),
							Monitored: tr.Prefix,
							Packets:   tr.Packets,
						}); err != nil {
							b.Fatal(err)
						}
					}
					a.Report()
				}
				reportPktsPerSec(b, pkts)
			},
		})
	}

	// replay/D3/window=*: the epoch-rotation overhead gate. window=0
	// cuts once per trace and banks nothing; window=60s cuts ~60 epochs
	// per one-hour trace (per-shard aggregate cuts along both replay
	// passes, window report banking at trace joins). The pair proves the
	// boundary cuts stay within a few percent of unwindowed throughput —
	// the acceptance budget is <5% on this benchmark.
	for _, win := range []time.Duration{0, 60 * time.Second} {
		win := win
		name := "replay/D3/window=0"
		if win > 0 {
			name = "replay/D3/window=60s"
		}
		suite = append(suite, Benchmark{
			Name: name,
			F: func(b *testing.B) {
				ds := suiteDatasetScaled("D3", 1.0)
				pkts := datasetPackets(ds)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := newAnalyzerWindow(ds, 4, 4, win)
					for _, tr := range ds.Traces {
						if err := a.AddTrace(core.TraceInput{
							Name:      tr.Prefix.String(),
							Monitored: tr.Prefix,
							Packets:   tr.Packets,
						}); err != nil {
							b.Fatal(err)
						}
					}
					a.Report()
					if win > 0 {
						// Serve-style single-window request: window
						// reports build on demand, so the rotation gate
						// prices a cut-and-serve cycle, not a render of
						// every window.
						if _, ok := a.WindowReport(a.LatestWindowIndex()); !ok {
							b.Fatal("windowed run produced no completed window")
						}
					}
				}
				reportPktsPerSec(b, pkts)
			},
		})
	}

	for _, dsName := range []string{"D0", "D1", "D2", "D3", "D4"} {
		dsName := dsName
		suite = append(suite, Benchmark{
			Name: "analyze/" + dsName,
			F: func(b *testing.B) {
				ds := suiteDataset(dsName)
				pkts := datasetPackets(ds)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := newAnalyzer(ds, 4)
					for _, tr := range ds.Traces {
						if err := a.AddTrace(core.TraceInput{
							Name:      tr.Prefix.String(),
							Monitored: tr.Prefix,
							Packets:   tr.Packets,
						}); err != nil {
							b.Fatal(err)
						}
					}
					a.Report()
				}
				reportPktsPerSec(b, pkts)
			},
		})
	}

	// soak/D3-shape: the gen→analyze load harness priced end to end. The
	// default day-in-miniature schedule is tiled to an hour (~12× one
	// suite trace) and streamed straight from gen.StreamSource into the
	// pipeline — no pcap bytes anywhere — so the entry captures synthesis,
	// pooling, decode, shard, and replay as one loop: the cost model for
	// soak runs (`entanalyze -gen`). The window=60s variant adds epoch
	// rotation at the soak shape. Both are new relative to older
	// baselines, so -against treats them as informational until
	// re-baselined.
	for _, win := range []time.Duration{0, 60 * time.Second} {
		win := win
		name := "soak/D3-shape"
		if win > 0 {
			name = "soak/D3-shape/window=60s"
		}
		suite = append(suite, Benchmark{
			Name: name,
			F: func(b *testing.B) {
				cfg := enterprise.D3()
				sched := gen.DefaultSchedule().Repeat(time.Hour)
				subnet := cfg.Monitored[0]
				prefix := enterprise.SubnetPrefix(subnet)
				b.ReportAllocs()
				b.ResetTimer()
				var pkts int64
				for i := 0; i < b.N; i++ {
					src := gen.NewStreamSource(gen.StreamConfig{
						Network:  enterprise.NewNetwork(cfg),
						Subnet:   subnet,
						Schedule: sched,
						Snaplen:  cfg.Snaplen,
					})
					a := core.NewAnalyzer(core.Options{
						Dataset:         cfg.Name,
						KnownScanners:   enterprise.KnownScanners(),
						PayloadAnalysis: cfg.Snaplen >= 1500,
						Workers:         4,
						ReplayWorkers:   4,
						Window:          win,
					})
					if err := a.AddTraceSource("soak", prefix, src); err != nil {
						b.Fatal(err)
					}
					a.Report()
					pkts = src.Stats().Frames
				}
				reportPktsPerSec(b, pkts)
			},
		})
	}

	// adversarial/evasion: the hostile-input price. Replays the full
	// evasion scenario family (internal/gen) through the differential
	// harness's replay path at the default 4×4 shape. The entry is new
	// relative to older baselines, so -against treats it as informational
	// until re-baselined; the guarantee that the hardening did not tax
	// benign traffic is carried by the gated analyze/* and replay/*
	// entries, which share the reassembly and census hot path.
	suite = append(suite, Benchmark{
		Name: "adversarial/evasion",
		F: func(b *testing.B) {
			type rawScenario struct {
				raw []byte
				pre netip.Prefix
			}
			var scenarios []rawScenario
			var pkts int64
			for _, sc := range gen.EvasionScenarios() {
				tr := sc.Build()
				scenarios = append(scenarios, rawScenario{raw: advtest.Serialize(tr), pre: tr.Prefix})
				pkts += int64(len(tr.Packets))
			}
			gp := advtest.GridPoint{Workers: 4, ReplayWorkers: 4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, sc := range scenarios {
					res, err := advtest.Replay(sc.raw, sc.pre, gp, 0)
					if err != nil {
						b.Fatal(err)
					}
					if res.Report.Hostile.IngestBytes == 0 {
						b.Fatal("evasion replay produced no reassembled bytes")
					}
				}
			}
			reportPktsPerSec(b, pkts)
		},
	})

	return suite
}

// StreamBenchmark measures the full streaming path — pcap bytes through
// AddTraceReader's pooled read, decode, route, shard, replay, report —
// at a fixed worker count, reporting allocations and pkts/sec. It is the
// single definition of that workload: the entbench suite and the go-test
// harness (BenchmarkPipelineStream* in determinism_test.go) both run it,
// so the CI telemetry and the -benchmem numbers can never drift apart.
// Traces are serialized once, outside the timed region.
func StreamBenchmark(b *testing.B, ds *gen.Dataset, workers int) {
	traces := serializeDataset(ds)
	pkts := datasetPackets(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := newAnalyzer(ds, workers)
		for _, tr := range traces {
			if err := a.AddTraceReader(tr.name, tr.pre, bytes.NewReader(tr.raw)); err != nil {
				b.Fatal(err)
			}
		}
		a.Report()
	}
	b.StopTimer()
	reportPktsPerSec(b, pkts)
}

// readTrace drains one serialized trace, optionally through a pool, and
// returns the packet count.
func readTrace(b *testing.B, raw []byte, pool *pcap.Pool) int64 {
	rd, err := pcap.NewReader(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	if pool == nil {
		for {
			if _, err := rd.Next(); err != nil {
				finishTrace(b, err)
				return n
			}
			n++
		}
	}
	src := pcap.NewPooledReader(rd, pool)
	for {
		p, err := src.Next()
		if err != nil {
			finishTrace(b, err)
			return n
		}
		src.Release(p)
		n++
	}
}

// finishTrace distinguishes a clean end of trace from a read failure —
// a truncated trace must fail the benchmark, not shrink its workload.
func finishTrace(b *testing.B, err error) {
	if err != io.EOF {
		b.Fatalf("trace read failed mid-benchmark: %v", err)
	}
}

// reportPktsPerSec attaches packet throughput to the benchmark result.
// pkts is the packet count of ONE operation.
func reportPktsPerSec(b *testing.B, pkts int64) {
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(pkts)*float64(b.N)/elapsed, "pkts/sec")
	}
}

// RunSuite executes the suite entries matching filter (nil = all),
// minus those matching skip (nil = none), and returns their metrics as a
// report. progress, when non-nil, receives a line per finished
// benchmark.
func RunSuite(filter, skip *regexp.Regexp, progress func(string)) *Report {
	return RunBenchmarks(Suite(), filter, skip, progress)
}

// RunBenchmarks is RunSuite over an explicit entry list — how entbench
// composes the gated suite with the optional -cpus scaling grid. Each
// entry runs under its pinned GOMAXPROCS (restored afterwards, so one
// entry's width never leaks into the next), and the width it actually
// ran with is recorded on its metric.
func RunBenchmarks(entries []Benchmark, filter, skip *regexp.Regexp, progress func(string)) *Report {
	rep := NewReport()
	for _, bm := range entries {
		if filter != nil && !filter.MatchString(bm.Name) {
			continue
		}
		if skip != nil && skip.MatchString(bm.Name) {
			continue
		}
		procs := runtime.GOMAXPROCS(0)
		restore := 0
		if bm.GOMAXPROCS > 0 && bm.GOMAXPROCS != procs {
			restore = runtime.GOMAXPROCS(bm.GOMAXPROCS)
			procs = bm.GOMAXPROCS
		}
		res := testing.Benchmark(bm.F)
		if restore > 0 {
			runtime.GOMAXPROCS(restore)
		}
		m := Metric{
			Name:        bm.Name,
			Iterations:  res.N,
			GoMaxProcs:  procs,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			PktsPerSec:  res.Extra["pkts/sec"],
		}
		rep.Add(m)
		if progress != nil {
			progress(fmt.Sprintf("%-30s %12.0f ns/op %10d B/op %8d allocs/op %12.0f pkts/sec  gomaxprocs=%d",
				m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.PktsPerSec, m.GoMaxProcs))
		}
	}
	return rep
}
