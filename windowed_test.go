// Windowed determinism: enabling epoch rotation must not change the
// cumulative report — at any point of the (pipeline workers × replay
// workers) grid — and the per-window reports themselves must be
// identical across the grid. Together these pin the epoch-snapshot
// contract: window deltas partition the run exactly, and their banked
// merge reproduces the batch aggregate byte for byte.
package enttrace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"reflect"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

// analyzeWindowed runs a dataset at an explicit grid point with epoch
// rotation enabled, returning the cumulative report and every window.
func analyzeWindowed(tb testing.TB, ds *gen.Dataset, workers, replayWorkers int, window time.Duration) (*core.Report, []*core.WindowReport) {
	tb.Helper()
	a := addTraces(tb, datasetAnalyzer(ds, workers, replayWorkers, window), ds)
	return a.Report(), a.WindowReports()
}

// renderWindows renders every window to one byte stream (text and JSON),
// the "byte-identical" comparison unit across grid points.
func renderWindows(tb testing.TB, wins []*core.WindowReport) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for _, wr := range wins {
		buf.WriteString(core.RenderText(wr.Report))
		if err := core.WriteReportJSON(&buf, wr.Report); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestWindowedMatchesBatchGrid is the windowed acceptance gate: for D3
// and D4, at every point of the {1,4,8}×{1,4,8} worker grid, a -window
// run produces (a) a cumulative report byte-identical to the no-window
// batch run and (b) per-window reports byte-identical to the serial
// windowed run's.
func TestWindowedMatchesBatchGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	const window = 10 * time.Minute // several cuts per one-hour trace
	counts := []int{1, 4, 8}
	for _, dsName := range []string{"D3", "D4"} {
		ds := determinismDataset(t, dsName, 0.15)
		batch := analyzeGrid(t, ds, 1, 1)
		batchText := core.RenderText(batch)
		baseFinal, baseWins := analyzeWindowed(t, ds, 1, 1, window)
		if len(baseWins) < 2 {
			t.Fatalf("%s: expected multiple windows, got %d", dsName, len(baseWins))
		}
		baseWinBytes := renderWindows(t, baseWins)
		if !reflect.DeepEqual(batch, baseFinal) {
			t.Errorf("%s: windowed cumulative differs from batch (serial)", dsName)
			diffReports(t, batch, baseFinal)
		}
		if got := core.RenderText(baseFinal); got != batchText {
			t.Errorf("%s: windowed cumulative text differs from batch text", dsName)
		}
		for _, workers := range counts {
			for _, replayWorkers := range counts {
				if workers == 1 && replayWorkers == 1 {
					continue
				}
				final, wins := analyzeWindowed(t, ds, workers, replayWorkers, window)
				if !reflect.DeepEqual(batch, final) {
					t.Errorf("%s: windowed cumulative at %d/%d workers differs from batch",
						dsName, workers, replayWorkers)
					diffReports(t, batch, final)
				}
				if !bytes.Equal(renderWindows(t, wins), baseWinBytes) {
					t.Errorf("%s: window reports at %d/%d workers differ from serial windowed run",
						dsName, workers, replayWorkers)
				}
			}
		}
		// The partition property, directly: per-window totals sum to the
		// cumulative totals.
		var conns, payload, packets int64
		for _, wr := range baseWins {
			conns += wr.Report.Table3.TotalConns
			payload += wr.Report.Table3.TotalBytes
			packets += wr.Report.Table1.Packets
		}
		if conns != batch.Table3.TotalConns || payload != batch.Table3.TotalBytes || packets != batch.Table1.Packets {
			t.Errorf("%s: window sums (%d conns, %d bytes, %d pkts) != batch (%d, %d, %d)",
				dsName, conns, payload, packets,
				batch.Table3.TotalConns, batch.Table3.TotalBytes, batch.Table1.Packets)
		}
	}
}

// TestMidRunReportsLeaveFinalUnchanged pins that taking reports is free
// of side effects on the answer: Report() drains the replay workers'
// running cumulatives into the cumulative aggregate, so a run that calls
// Report() and WindowReports() after every trace folds the same deltas
// in a different grouping than a run that reports once — and must still
// end in the same bytes, text and JSON, windowed or not, at any replay
// worker count.
func TestMidRunReportsLeaveFinalUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	ds := determinismDataset(t, "D3", 0.15)
	run := func(workers int, window time.Duration, everyTrace bool) []byte {
		a := core.NewAnalyzer(core.Options{
			Dataset:         ds.Config.Name,
			KnownScanners:   enterprise.KnownScanners(),
			PayloadAnalysis: true,
			Workers:         workers,
			ReplayWorkers:   workers,
			Window:          window,
		})
		for _, tr := range ds.Traces {
			if err := a.AddTrace(core.TraceInput{Name: tr.Prefix.String(), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
				t.Fatal(err)
			}
			if everyTrace {
				a.Report()
				a.WindowReports()
			}
		}
		final, wins := a.Report(), a.WindowReports()
		if (window > 0) != (len(wins) > 1) {
			t.Fatalf("window %v produced %d windows", window, len(wins))
		}
		// What entanalyze prints, in both formats.
		var buf bytes.Buffer
		if len(wins) > 0 {
			buf.WriteString(core.RenderWindowSummary(wins))
		}
		buf.WriteString(core.RenderText(final))
		if err := core.WriteRunJSON(&buf, wins, final); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, window := range []time.Duration{0, 10 * time.Minute} {
		for _, workers := range []int{1, 4} {
			if !bytes.Equal(run(workers, window, true), run(workers, window, false)) {
				t.Errorf("window %v, %d workers: reporting after every trace changed the final report", window, workers)
			}
		}
	}
}

// TestWindowReportDigests pins the windowed run's bytes against the
// commit before windows became aggregates (2c27067, where a window kept
// its banked deltas and folded them trace-granular-first on every read):
// SHA-256 over every window's MarshalReport bytes, then the cumulative's.
// The grid differentials above compare one build with itself, so a change
// to the order a window folds in — or to what a banked delta still shares
// with the worker that cut it — could move every window and stay
// self-consistent; this fails instead. One constant per input: the bytes
// may not depend on the replay worker count either. A change that means
// to move report bytes re-records them and says so.
func TestWindowReportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	const window = 60 * time.Second
	digest := func(a *core.Analyzer) string {
		h := sha256.New()
		for _, wr := range a.WindowReports() {
			b, err := core.MarshalReport(wr.Report)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		b, err := core.MarshalReport(a.Report())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		return hex.EncodeToString(h.Sum(nil))
	}
	dataset := func(name string) func(int) *core.Analyzer {
		ds := determinismDataset(t, name, 0.15)
		return func(workers int) *core.Analyzer {
			return addTraces(t, datasetAnalyzer(ds, workers, workers, window), ds)
		}
	}
	// The default shape tiled to an hour, streamed as one trace, with the
	// reports OnWindow hands over hashed as they arrive: they leave while
	// the trace is still replaying (DESIGN "Epoch cuts and windowed
	// reports"), and must still be the bytes the parent commit emitted
	// after its join.
	var emitted hash.Hash
	schedule := func(workers int) *core.Analyzer {
		cfg := enterprise.D3()
		a := core.NewAnalyzer(core.Options{
			Dataset:         cfg.Name,
			KnownScanners:   enterprise.KnownScanners(),
			PayloadAnalysis: cfg.Snaplen >= 1500,
			Workers:         workers,
			ReplayWorkers:   workers,
			Window:          window,
			OnWindow: func(wr *core.WindowReport) {
				b, err := core.MarshalReport(wr.Report)
				if err != nil {
					t.Error(err)
				}
				emitted.Write(b)
			},
		})
		src := gen.NewStreamSource(gen.StreamConfig{
			Network:  enterprise.NewNetwork(cfg),
			Subnet:   cfg.Monitored[0],
			Schedule: gen.DefaultSchedule().Repeat(time.Hour),
			Snaplen:  cfg.Snaplen,
		})
		if err := a.AddTraceSource("sched", enterprise.SubnetPrefix(cfg.Monitored[0]), src); err != nil {
			t.Fatal(err)
		}
		return a
	}
	inputs := []struct {
		name, want string
		run        func(workers int) *core.Analyzer
		// wantEmitted is the digest of the OnWindow stream, recorded at
		// c67e1d7; empty where OnWindow is not set.
		wantEmitted string
	}{
		{"D3", "ae1f28b88e7dd0d42a069df646aab82ab448cf788c55637d727d24d379ea8cdb", dataset("D3"), ""},
		{"D0", "b9b81c90192024df0b631ea63f571da258b990ab5653e0b6a67a7226b2d23c2c", dataset("D0"), ""},
		// The header-only path: 68 bytes a frame, so transport headers cut
		// short key with zero ports. Recorded at aed69d9, before the flow
		// table keyed packets by words and the router hashed words.
		{"D2", "5e6a48b7baf345fad321d6b0c3931c5f9aebc214577b9a49e2c9455b621c0941", dataset("D2"), ""},
		{"schedule-1h", "ff3f3bde7adfc963f11eaff2ccb9139b80b4adb12ee4a0f90caaa18cedeebc6a", schedule, "9e4140c66bb8662d0127b031331cb6b7f2d39f3e07d690590f9221131cd9e1d3"},
	}
	for _, in := range inputs {
		for _, workers := range []int{1, 2, 4} {
			emitted = sha256.New()
			if got := digest(in.run(workers)); got != in.want {
				t.Errorf("%s at %d replay workers: digest %s, recorded %s", in.name, workers, got, in.want)
			}
			if got := hex.EncodeToString(emitted.Sum(nil)); in.wantEmitted != "" && got != in.wantEmitted {
				t.Errorf("%s at %d replay workers: OnWindow digest %s, recorded %s", in.name, workers, got, in.wantEmitted)
			}
		}
	}
}
