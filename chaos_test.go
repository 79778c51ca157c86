// Chaos tests for the resilience layer beyond the fault-schedule rows of
// the differential table (TestChaosGridDeterminism in grid_test.go): a
// torn trace mid-run costs only its own record, a graceful stop must be
// indistinguishable from running the same packet prefix to completion,
// and the serve mode must stay reachable (and honest about being
// degraded) through a fault-injected soak.
package enttrace_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/faults"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
)

// chaosAnalyzer is soakAnalyzer plus the resilience knobs: degrade on
// source errors, age out connections idle past two minutes.
func chaosAnalyzer(cfg enterprise.Config, workers int, window time.Duration) *core.Analyzer {
	o := options(cfg)
	o.Workers, o.ReplayWorkers, o.Window = workers, workers, window
	o.OnError, o.IdleEvict = pipeline.Degrade, 2*time.Minute
	return core.NewAnalyzer(o)
}

// checkCensusMatches asserts a report's folded census equals the fired
// manifest of src, the only source in wrapped: totals and kinds by the
// check the binaries run, then the per-trace offsets and terminal flag.
func checkCensusMatches(t *testing.T, r *core.Report, in *faults.Injector, src *faults.Source) {
	t.Helper()
	se, exp := r.SourceErrors, src.Expected()
	if err := in.CheckCensus(io.Discard, se.Errors, se.LostBytes, se.ByKind); err != nil {
		t.Errorf("%v; by kind: census %v, manifest %v", err, se.ByKind, exp.ByKind)
	}
	if exp.Errors == 0 {
		if len(se.Traces) != 0 {
			t.Errorf("census has %d trace entries, manifest none", len(se.Traces))
		}
		return
	}
	if len(se.Traces) != 1 {
		t.Fatalf("census traces = %+v, want exactly one", se.Traces)
	}
	tr := se.Traces[0]
	if tr.FirstIndex != exp.FirstIndex || tr.LastIndex != exp.LastIndex {
		t.Errorf("census offsets %d..%d, manifest %d..%d", tr.FirstIndex, tr.LastIndex, exp.FirstIndex, exp.LastIndex)
	}
	if tr.Terminal != exp.Terminal {
		t.Errorf("census terminal = %v, manifest %v", tr.Terminal, exp.Terminal)
	}
}

// TestTruncatedFinalRecordMidRun is the multi-trace regression for a
// torn pcap tail: with the skip policy, a truncated trace in the middle
// of a run costs only its own torn record — every healthy trace's
// packets are still analyzed and the census reports the loss.
func TestTruncatedFinalRecordMidRun(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 0.05
	cfg.Monitored = cfg.Monitored[:1]
	cfg.PerTap = 1
	ds := gen.GenerateDataset(cfg)
	if len(ds.Traces) == 0 {
		t.Fatal("generator produced no traces")
	}
	tr := ds.Traces[0]
	var buf bytes.Buffer
	if err := gen.WriteTrace(&buf, cfg, tr); err != nil {
		t.Fatal(err)
	}
	healthy := buf.Bytes()
	truncated := healthy[:len(healthy)-9]
	prefix := enterprise.SubnetPrefix(tr.Subnet)

	a := core.NewAnalyzer(core.Options{
		Dataset:       cfg.Name,
		KnownScanners: enterprise.KnownScanners(),
		OnError:       pipeline.Degrade,
	})
	pool := pcap.NewPool()
	for _, in := range []struct {
		name string
		raw  []byte
	}{
		{"healthy-0", healthy},
		{"torn", truncated},
		{"healthy-1", healthy},
	} {
		if err := addPcap(a, in.name, prefix, in.raw, pool); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
	}
	n := int64(len(tr.Packets))
	if got, want := a.PacketsSeen(), 3*n-1; got != want {
		t.Errorf("packets seen = %d, want %d (two healthy traces + torn prefix)", got, want)
	}
	r := a.Report()
	se := r.SourceErrors
	if se.Errors != 1 || se.ByKind["torn-record"] != 1 {
		t.Fatalf("census = %+v, want one torn-record", se)
	}
	if len(se.Traces) != 1 || se.Traces[0].Trace != "torn" || !se.Traces[0].Terminal {
		t.Errorf("census traces = %+v, want terminal entry for %q", se.Traces, "torn")
	}
	if se.Traces[0].FirstIndex != n-1 {
		t.Errorf("torn record at index %d, want %d", se.Traces[0].FirstIndex, n-1)
	}
}

// stopAfterSource delivers packets from inner and calls stop as the nth
// arrives — the deterministic trigger for the graceful-drain test. With
// a nil stop it ends the stream there instead, a clean EOF after the nth
// packet: the take-first-N run the stopped one must match.
type stopAfterSource struct {
	inner pcap.PacketSource
	rel   pcap.Releaser
	left  int64
	stop  func()
}

func stopAfter(inner pcap.PacketSource, n int64, stop func()) *stopAfterSource {
	s := &stopAfterSource{inner: inner, left: n, stop: stop}
	if rel, ok := inner.(pcap.Releaser); ok {
		s.rel = rel
	}
	return s
}

func (s *stopAfterSource) Next() (*pcap.Packet, error) {
	if s.left <= 0 && s.stop == nil {
		return nil, io.EOF
	}
	p, err := s.inner.Next()
	if err == nil {
		s.left--
		if s.left == 0 && s.stop != nil {
			s.stop()
		}
	}
	return p, err
}

func (s *stopAfterSource) Release(p *pcap.Packet) {
	if s.rel != nil {
		s.rel.Release(p)
	}
}

// TestGracefulDrainDeterminism: a run stopped mid-stream must report
// byte-identically to running the same fault schedule to completion
// through a take-first-N limiter at the drain watermark — stopping is
// truncation, never corruption.
func TestGracefulDrainDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end drain analysis in -short mode")
	}
	cfg := enterprise.D3()
	sched := gen.DefaultSchedule()
	subnet := cfg.Monitored[0]
	prefix := enterprise.SubnetPrefix(subnet)
	fsched, err := faults.ParseSpec("read@300,short@1200:40,read@2600", faults.Packets)
	if err != nil {
		t.Fatal(err)
	}
	stream := func() *faults.Source {
		return faults.Wrap(gen.NewStreamSource(gen.StreamConfig{
			Network:  enterprise.NewNetwork(cfg),
			Subnet:   subnet,
			Schedule: sched,
			Snaplen:  cfg.Snaplen,
		}), fsched)
	}
	const drainAt = 2500

	stopped := chaosAnalyzer(cfg, 4, time.Minute)
	if err := stopped.AddTraceSource("drain", prefix, stopAfter(stream(), drainAt, stopped.Stop)); err != nil {
		t.Fatal(err)
	}
	if got := stopped.PacketsSeen(); got != drainAt {
		t.Fatalf("stopped run saw %d packets, want exactly %d", got, drainAt)
	}
	got := runJSON(t, stopped)

	full := chaosAnalyzer(cfg, 4, time.Minute)
	if err := full.AddTraceSource("drain", prefix, stopAfter(stream(), drainAt, nil)); err != nil {
		t.Fatal(err)
	}
	want := runJSON(t, full)

	if !bytes.Equal(got, want) {
		t.Errorf("stopped run JSON differs from limited full run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosSoakServeHealth is the fault-injected soak: a long streamed
// schedule with a seeded random fault load, served over HTTP while
// analysis runs. /healthz must answer on every poll, the live
// connection table must respect -max-conns, and the final census must
// equal the injection manifest.
func TestChaosSoakServeHealth(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injected soak in -short mode")
	}
	cfg := enterprise.D3()
	sched := gen.DefaultSchedule().Repeat(10 * time.Minute)
	subnet := cfg.Monitored[0]
	prefix := enterprise.SubnetPrefix(subnet)
	const maxConns = 10000

	a := core.NewAnalyzer(core.Options{
		Dataset:         cfg.Name,
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: cfg.Snaplen >= 1500,
		Workers:         4,
		ReplayWorkers:   4,
		Window:          time.Minute,
		OnError:         pipeline.Degrade,
		IdleEvict:       2 * time.Minute,
		MaxConns:        maxConns,
	})
	srv := core.NewReportServer(a)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	in := &faults.Injector{Schedule: faults.Random(faults.Packets, 7, 40, 8000)}
	src := in.Wrap(gen.NewStreamSource(gen.StreamConfig{
		Network:  enterprise.NewNetwork(cfg),
		Subnet:   subnet,
		Schedule: sched,
		Snaplen:  cfg.Snaplen,
	})).(*faults.Source)
	src.SetSleep(func(time.Duration) {})

	done := make(chan error, 1)
	go func() { done <- a.AddTraceSource("soak", prefix, src) }()

	poll := func() (status string, live int64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("/healthz unreachable mid-soak: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("/healthz = %d mid-soak", resp.StatusCode)
		}
		var h struct {
			Status    string
			LiveConns int64
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("/healthz body: %v", err)
		}
		return h.Status, h.LiveConns
	}

	var maxLive int64
	var sawDegraded bool
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("soak analysis failed: %v", err)
			}
			running = false
		case <-time.After(2 * time.Millisecond):
			status, live := poll()
			if live > maxLive {
				maxLive = live
			}
			if status == "degraded" {
				sawDegraded = true
			}
		}
	}
	// The shard cap allows a transient +1 per shard between insert and
	// eviction; anything beyond that is a leak.
	if maxLive > maxConns+8 {
		t.Errorf("live connections peaked at %d, bound %d", maxLive, maxConns)
	}
	exp := src.Expected()
	if exp.Errors > 0 && !sawDegraded {
		// The last poll may have raced the first fault; check the final
		// state below rather than failing outright on timing.
		if status, _ := poll(); status != "degraded" {
			t.Errorf("soak folded %d source errors but health never read degraded", exp.Errors)
		}
	}

	r := a.Report()
	checkCensusMatches(t, r, in, src)
	if err := srv.SetFinal(r); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/report/final")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/report/final = %d after soak", resp.StatusCode)
	}
}
