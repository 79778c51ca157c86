// Source equivalence for the gen→analyze load harness at soak scale: a
// long schedule streamed through gen.StreamSource must report
// byte-identically to writing it to a pcap and replaying it, in bounded
// memory however long the schedule runs. The worker grid, batch and
// windowed, is TestStreamedReportMatchesPcapReplay's row in
// grid_test.go.
package enttrace_test

import (
	"bytes"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

// scheduledPcap materializes one scheduled trace and serializes it the
// way entgen would — the reference path the streamed source must match.
func scheduledPcap(tb testing.TB, cfg enterprise.Config, sched gen.Schedule) []byte {
	tb.Helper()
	subnet := cfg.Monitored[0]
	pkts := gen.GenerateScheduledTrace(enterprise.NewNetwork(cfg), subnet, 0, sched)
	var buf bytes.Buffer
	tr := gen.Trace{Subnet: subnet, Packets: pkts, Prefix: enterprise.SubnetPrefix(subnet)}
	if err := gen.WriteTrace(&buf, cfg, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// runJSON renders a full run (window reports plus cumulative report) to
// its canonical JSON bytes — the strictest equality we can ask of two
// analysis runs.
func runJSON(tb testing.TB, a *core.Analyzer) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := core.WriteRunJSON(&buf, a.WindowReports(), a.Report()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func soakAnalyzer(cfg enterprise.Config, workers int, window time.Duration) *core.Analyzer {
	o := options(cfg)
	o.Workers, o.ReplayWorkers, o.Window = workers, workers, window
	return core.NewAnalyzer(o)
}

// TestSoakScaleEquivalenceAndBoundedMemory is the acceptance-scale run:
// the default shape tiled to 90 minutes (18 tiles, >10× one D3 trace's
// frames even under the heavy-tailed per-session sizes) streamed with
// no intermediate pcap, byte-identical to the replayed file, with the
// source's pooled-frame footprint pinned to the single-tile level — the
// reorder buffer and the in-flight count must not grow with duration.
func TestSoakScaleEquivalenceAndBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-scale analysis in -short mode")
	}
	cfg := enterprise.D3()
	shape := gen.DefaultSchedule()
	long := shape.Repeat(90 * time.Minute)
	subnet := cfg.Monitored[0]
	prefix := enterprise.SubnetPrefix(subnet)

	drain := func(sched gen.Schedule) (*gen.StreamSource, []byte) {
		a := soakAnalyzer(cfg, 4, 60*time.Second)
		src := gen.NewStreamSource(gen.StreamConfig{
			Network:  enterprise.NewNetwork(cfg),
			Subnet:   subnet,
			Schedule: sched,
			Snaplen:  cfg.Snaplen,
		})
		if err := a.AddTraceSource("soak", prefix, src); err != nil {
			t.Fatal(err)
		}
		return src, runJSON(t, a)
	}

	shortSrc, _ := drain(shape)
	longSrc, got := drain(long)

	shortStats, longStats := shortSrc.Stats(), longSrc.Stats()
	if longStats.Frames < 10*shortStats.Frames {
		t.Fatalf("soak run streamed %d frames, want >= 10x the single tile's %d",
			longStats.Frames, shortStats.Frames)
	}
	// Bounded memory: the reorder buffer holds at most the sessions
	// overlapping one instant plus the largest single session's frames —
	// a quantity set by the schedule's rate and the size distributions,
	// not its length. A longer run may sample a larger largest-session
	// (the sizes are heavy-tailed), so the bound is a hard ceiling plus a
	// vanishing fraction of the stream, not strict equality with the
	// single tile.
	if longStats.PeakBuffered > 4096 {
		t.Errorf("reorder buffer peak %d frames exceeds the soak ceiling", longStats.PeakBuffered)
	}
	if int64(longStats.PeakBuffered)*20 > longStats.Frames {
		t.Errorf("reorder buffer peak %d is not small against the %d-frame stream",
			longStats.PeakBuffered, longStats.Frames)
	}
	if longStats.PeakInFlight > 4*shortStats.PeakInFlight+4096 {
		t.Errorf("in-flight frames grew with duration: single tile %d, soak %d",
			shortStats.PeakInFlight, longStats.PeakInFlight)
	}

	ref := soakAnalyzer(cfg, 4, 60*time.Second)
	if err := addPcap(ref, "soak", prefix, scheduledPcap(t, cfg, long), nil); err != nil {
		t.Fatal(err)
	}
	if want := runJSON(t, ref); !bytes.Equal(got, want) {
		t.Errorf("soak-scale streamed run JSON differs from pcap replay (%d vs %d bytes)", len(got), len(want))
	}
}
