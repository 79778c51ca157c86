package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
)

// analyzeScaled generates a scaled-down dataset and runs the full
// pipeline — the reproduction's end-to-end path.
func analyzeScaled(t testing.TB, cfg enterprise.Config, scale float64, subnets int) *Report {
	t.Helper()
	cfg.Scale = scale
	if subnets > 0 && subnets < len(cfg.Monitored) {
		cfg.Monitored = cfg.Monitored[:subnets]
	}
	ds := gen.GenerateDataset(cfg)
	a := NewAnalyzer(Options{
		Dataset:         cfg.Name,
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: cfg.Snaplen >= 1500,
	})
	for _, tr := range ds.Traces {
		if err := a.AddTrace(TraceInput{
			Name:      tr.Prefix.String(),
			Monitored: tr.Prefix,
			Packets:   tr.Packets,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return a.Report()
}

// pooledReader is the source entanalyze reads a pcap file through: a
// PooledReader over raw, drawing its slabs from pool.
func pooledReader(tb testing.TB, raw []byte, pool *pcap.Pool) *pcap.PooledReader {
	tb.Helper()
	rd, err := pcap.NewReader(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	return pcap.NewPooledReader(rd, pool)
}

// TestPooledReaderMatchesAddTrace drives the file path: feeding serialized
// pcaps to AddTraceSource through PooledReaders over one pool must
// produce the same report as handing AddTrace the same packets in memory.
func TestPooledReaderMatchesAddTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	cfg := enterprise.D3()
	cfg.Monitored = []int{2, enterprise.SubnetPrint}
	cfg.Scale = 0.1
	ds := gen.GenerateDataset(cfg)
	newAnalyzer := func(workers int) *Analyzer {
		return NewAnalyzer(Options{
			Dataset:         "D3",
			KnownScanners:   enterprise.KnownScanners(),
			PayloadAnalysis: true,
			Workers:         workers,
		})
	}
	// The pcap format stores microseconds; truncate before the in-memory
	// run so both paths see identical timestamps.
	inMem := newAnalyzer(1)
	streamed := newAnalyzer(4)
	pool := pcap.NewPool()
	for _, tr := range ds.Traces {
		var buf bytes.Buffer
		if err := gen.WriteTrace(&buf, cfg, tr); err != nil {
			t.Fatal(err)
		}
		var trunc []*pcap.Packet
		for _, p := range tr.Packets {
			cp := *p
			cp.Timestamp = p.Timestamp.Truncate(time.Microsecond)
			trunc = append(trunc, &cp)
		}
		if err := inMem.AddTrace(TraceInput{Name: tr.Prefix.String(), Monitored: tr.Prefix, Packets: trunc}); err != nil {
			t.Fatal(err)
		}
		if err := streamed.AddTraceSource(tr.Prefix.String(), tr.Prefix, pooledReader(t, buf.Bytes(), pool)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := inMem.Report(), streamed.Report()
	if !reflect.DeepEqual(a, b) {
		t.Error("streamed report differs from in-memory report")
	}
}

// poisonSource wraps a pooled reader and scribbles over every released
// packet before it is recycled. Any analysis state that kept a slice into
// a capture buffer past Release, instead of copying what it keeps, would
// read 0xAA garbage and change the report.
type poisonSource struct{ inner *pcap.PooledReader }

func (s *poisonSource) Next() (*pcap.Packet, error) { return s.inner.Next() }

// Release implements pcap.Releaser. Called from worker goroutines; p is
// exclusively ours here, so the scribble is race-free.
func (s *poisonSource) Release(p *pcap.Packet) {
	for i := range p.Data {
		p.Data[i] = 0xAA
	}
	s.inner.Release(p)
}

// TestRecycledBufferMutationDoesNotChangeReport guards the pooling
// contract end to end: running the full analysis over a source that
// actively corrupts every recycled buffer must produce the exact report
// of the in-memory (never-recycled) path, at 1 and 4 workers.
func TestRecycledBufferMutationDoesNotChangeReport(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	cfg := enterprise.D3()
	cfg.Monitored = []int{2, enterprise.SubnetPrint}
	cfg.Scale = 0.1
	ds := gen.GenerateDataset(cfg)
	newAnalyzer := func(workers int) *Analyzer {
		return NewAnalyzer(Options{
			Dataset:         "D3",
			KnownScanners:   enterprise.KnownScanners(),
			PayloadAnalysis: true,
			Workers:         workers,
		})
	}
	inMem := newAnalyzer(1)
	poisoned1 := newAnalyzer(1)
	poisoned4 := newAnalyzer(4)
	for _, tr := range ds.Traces {
		var raw bytes.Buffer
		if err := gen.WriteTrace(&raw, cfg, tr); err != nil {
			t.Fatal(err)
		}
		var trunc []*pcap.Packet
		for _, p := range tr.Packets {
			cp := *p
			cp.Timestamp = p.Timestamp.Truncate(time.Microsecond)
			trunc = append(trunc, &cp)
		}
		if err := inMem.AddTrace(TraceInput{Name: tr.Prefix.String(), Monitored: tr.Prefix, Packets: trunc}); err != nil {
			t.Fatal(err)
		}
		for _, a := range []*Analyzer{poisoned1, poisoned4} {
			src := &poisonSource{inner: pooledReader(t, raw.Bytes(), nil)}
			if err := a.AddTraceSource(tr.Prefix.String(), tr.Prefix, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := inMem.Report()
	if got := poisoned1.Report(); !reflect.DeepEqual(want, got) {
		t.Error("1-worker report changed when recycled buffers were mutated")
	}
	if got := poisoned4.Report(); !reflect.DeepEqual(want, got) {
		t.Error("4-worker report changed when recycled buffers were mutated")
	}
}

func TestHeaderOnlyDatasetSkipsPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	r := analyzeScaled(t, enterprise.D1(), 0.1, 3)
	// Transport-level results exist.
	if r.Table3.TotalConns == 0 {
		t.Fatal("no connections")
	}
	// Payload-level results must be absent.
	if r.HTTP.InternalRequests != 0 {
		t.Error("payload analysis ran on a 68-byte-snaplen dataset")
	}
	if r.Windows.CIFSTotalRequests != 0 {
		t.Error("CIFS commands parsed without payloads")
	}
	// Email transport stats still present (the paper analyzes email at
	// the transport layer).
	if len(r.Email.Bytes) == 0 {
		t.Error("email transport stats missing")
	}
}

func TestFanReport(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	r := analyzeScaled(t, enterprise.D2(), 0.15, 4)
	f := r.Figure2
	if f.Hosts == 0 {
		t.Fatal("no fan stats")
	}
	if len(f.FanOutEnt) == 0 || len(f.FanInEnt) == 0 {
		t.Fatal("missing CDFs")
	}
	// More internal-only hosts than a trivial fraction, per §4.
	if f.OnlyInternalFanOut < 0.2 {
		t.Errorf("only-internal fan-out fraction = %v", f.OnlyInternalFanOut)
	}
}

func TestMonitoredHostCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	r := analyzeScaled(t, enterprise.D0(), 0.3, 3)
	s := r.Table1
	if s.MonitoredHosts == 0 || s.LocalHosts <= s.MonitoredHosts || s.RemoteHosts == 0 {
		t.Errorf("host counts: %+v", s)
	}
	if s.Packets == 0 {
		t.Error("no packets")
	}
}
