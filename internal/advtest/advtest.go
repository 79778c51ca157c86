// Package advtest is the adversarial differential harness: it replays
// the evasion scenario family (internal/gen) and benign workloads across
// the worker/replay-worker grid and checks the properties hostile input
// must not break — bit-identical reports at every grid point, exact
// conservation of the reassembly byte ledger, bounded pending memory,
// and windowed==batch equivalence.
//
// The helpers are exported so the adversarial consumers (the test suite
// here, the adversarial/evasion row of the root package's
// TestAllocationCeilings) share one replay path. The package
// holds no epoch state of its own — it drives the analyzer's windowed and
// batch modes and asserts their equivalence. DESIGN.md § "Adversarial
// input: overlap-conflict policy and the hostile-input census" is the
// companion prose.
package advtest

import (
	"bytes"
	"fmt"
	"net/netip"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/reassembly"
)

// GridPoint is one (pipeline workers, replay workers) configuration.
type GridPoint struct {
	Workers       int
	ReplayWorkers int
}

func (g GridPoint) String() string { return fmt.Sprintf("w%d.r%d", g.Workers, g.ReplayWorkers) }

// Grid is the {1,4,8}×{1,4,8} configuration matrix the differential
// tests sweep: every combination must yield byte-identical reports.
func Grid() []GridPoint {
	counts := []int{1, 4, 8}
	g := make([]GridPoint, 0, len(counts)*len(counts))
	for _, w := range counts {
		for _, r := range counts {
			g = append(g, GridPoint{Workers: w, ReplayWorkers: r})
		}
	}
	return g
}

// Serialize renders a trace as a full-snaplen pcap — the wire format the
// analyzer consumes — so corrupt headers and payload bytes survive
// intact regardless of any dataset snaplen.
func Serialize(tr gen.Trace) []byte {
	var buf bytes.Buffer
	if err := gen.WriteTrace(&buf, enterprise.Config{Snaplen: 65535}, tr); err != nil {
		// Writing to a bytes.Buffer cannot fail; an encoding error here
		// is a bug in the generator itself.
		panic(err)
	}
	return buf.Bytes()
}

// Result is one replay's outputs in byte-comparable form.
type Result struct {
	Report  *core.Report
	JSON    []byte
	Text    string
	Windows []*core.WindowReport
}

// Replay runs one serialized trace through a fresh analyzer at a grid
// point. window == 0 replays in batch mode; window > 0 enables epoch
// rotation (whose cumulative report must stay byte-identical to batch).
func Replay(pcapBytes []byte, monitored netip.Prefix, gp GridPoint, window time.Duration) (*Result, error) {
	a := core.NewAnalyzer(core.Options{
		Dataset:         "ADV",
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: true,
		Workers:         gp.Workers,
		ReplayWorkers:   gp.ReplayWorkers,
		Window:          window,
	})
	if err := a.AddTraceReader("adv", monitored, bytes.NewReader(pcapBytes)); err != nil {
		return nil, err
	}
	r := a.Report()
	js, err := core.MarshalReport(r)
	if err != nil {
		return nil, err
	}
	return &Result{Report: r, JSON: js, Text: core.RenderText(r), Windows: a.WindowReports()}, nil
}

// CheckConservation validates the hostile-input ledger identity on a
// final report: every ingested payload byte was delivered, trimmed as a
// duplicate or a conflict, or discarded — and the out-of-order buffer
// never exceeded its budget. (Pending is zero in a final ledger: streams
// are discarded before their accounting is folded into the census.)
func CheckConservation(h core.HostileReport) error {
	if got := h.DeliveredBytes + h.DuplicateBytes + h.ConflictBytes + h.DiscardedBytes; got != h.IngestBytes {
		return fmt.Errorf("ledger leak: delivered %d + duplicate %d + conflict %d + discarded %d = %d, want ingest %d",
			h.DeliveredBytes, h.DuplicateBytes, h.ConflictBytes, h.DiscardedBytes, got, h.IngestBytes)
	}
	if h.PeakPendingBytes > reassembly.DefaultMaxPending {
		return fmt.Errorf("pending memory unbounded: peak %d > budget %d",
			h.PeakPendingBytes, int64(reassembly.DefaultMaxPending))
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"streams", h.Streams},
		{"ingest", h.IngestBytes},
		{"delivered", h.DeliveredBytes},
		{"duplicate", h.DuplicateBytes},
		{"conflict", h.ConflictBytes},
		{"discarded", h.DiscardedBytes},
		{"gap-skipped", h.GapSkippedBytes},
		{"gap-events", h.GapEvents},
		{"wrap-events", h.WrapEvents},
		{"peak-pending", h.PeakPendingBytes},
		{"bogus-rsts", h.BogusRSTs},
		{"post-rst-data", h.PostRSTDataSegments},
		{"undecodable", h.UndecodableFrames},
	} {
		if c.v < 0 {
			return fmt.Errorf("negative %s counter: %d", c.name, c.v)
		}
	}
	return nil
}
