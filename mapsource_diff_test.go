// Source equivalence for the in-memory pcap source: analyzing a D3 trace
// through pcap.NewMapSource (zero-copy record views of the image) must
// produce run JSON byte-identical to streaming the same bytes through
// the pooled reader, at every point of the worker grid, batch and
// windowed. benchmark/'s soak reference analyses through MapSource, so
// this is the differential that keeps that reference honest.
package enttrace_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
)

// TestMapSourceRunJSONMatchesPooledReader: for each
// {workers}×{replay-workers}×{batch,60s-window} grid point, one
// analyzer reads the trace via AddTraceReader (the pooled reader) and
// one via a MapSource over a copy of the same bytes; their full-run JSON
// must match byte for byte. The copy is zeroed between the run and the
// report render, proving no report state borrows the image.
func TestMapSourceRunJSONMatchesPooledReader(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	cfg := enterprise.D3()
	raw := scheduledPcap(t, cfg, gen.DefaultSchedule())
	subnet := cfg.Monitored[0]
	prefix := enterprise.SubnetPrefix(subnet)
	name := "sched"
	newAnalyzer := func(workers, replayWorkers int, window time.Duration) *core.Analyzer {
		return core.NewAnalyzer(core.Options{
			Dataset:         cfg.Name,
			KnownScanners:   enterprise.KnownScanners(),
			PayloadAnalysis: cfg.Snaplen >= 1500,
			Workers:         workers,
			ReplayWorkers:   replayWorkers,
			Window:          window,
		})
	}

	for _, workers := range []int{1, 4} {
		for _, replayWorkers := range []int{1, 4} {
			for _, window := range []time.Duration{0, 60 * time.Second} {
				t.Run(fmt.Sprintf("workers=%d/replay=%d/window=%s", workers, replayWorkers, window), func(t *testing.T) {
					ref := newAnalyzer(workers, replayWorkers, window)
					if err := ref.AddTraceReader(name, prefix, bytes.NewReader(raw)); err != nil {
						t.Fatal(err)
					}
					want := runJSON(t, ref)

					mapped := newAnalyzer(workers, replayWorkers, window)
					image := bytes.Clone(raw)
					src, err := pcap.NewMapSource(image)
					if err != nil {
						t.Fatal(err)
					}
					if err := mapped.AddTraceSource(name, prefix, src); err != nil {
						t.Fatal(err)
					}
					clear(image)
					got := runJSON(t, mapped)

					if !bytes.Equal(got, want) {
						t.Errorf("MapSource run JSON differs from the pooled reader's (%d vs %d bytes)", len(got), len(want))
					}
				})
			}
		}
	}
}
