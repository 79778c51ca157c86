package main

import (
	"crypto/sha256"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/fleet"
	"enttrace/internal/gen"
)

// inFlight is how many sites ship at once: the host has two CPUs, and a
// real fleet's sites do not take turns.
const inFlight = 2

// site is what one fleet member keeps after its own analysis: the
// handshake and every window's encoded snapshot.
type site struct {
	name    string
	hello   fleet.Hello
	exports []core.WindowExport
}

// fleetInput is fleet-fold's input: per-site exports ready to ship, and
// the reference the merged report must equal.
type fleetInput struct {
	sites      []site
	deltas     int
	deltaBytes int64
	pkts       int64
	traces     int

	// wantDigest is the report of the same exports folded in-process:
	// no transport, no shippers, one goroutine. wantPkts and the trace
	// count anchor it to the generated traffic itself.
	wantDigest [sha256.Size]byte

	// singleMatch, filled in by a traced run's set-up, says whether that
	// report is also byte-equal to a single instance over all sites'
	// traces. It is reported, not gated: a single instance carries
	// dynamic port registrations from one site's traces into the next's,
	// and for about one seed in twelve at this size that changes how one
	// later connection is handled (seed 1 at 16 sites × scale 1.0 is one).
	singleMatch bool
}

func fleetMember(origin time.Time, base int) *core.Analyzer {
	return core.NewAnalyzer(core.Options{
		Dataset:         "fleet",
		PayloadAnalysis: true,
		Window:          window,
		WindowOrigin:    origin,
		TraceBase:       base,
	})
}

// setupFleet generates one classification-self-contained block per site
// (one monitored subnet, its own network instance, as fleet_test.go's
// fleetBlocks does), analyses each windowed on a shared window clock
// with running trace ordinals, and keeps only what a site ships.
func setupFleet(cfg enterprise.Config, nsites int, rec *spanRec) (*fleetInput, error) {
	if nsites > len(cfg.Monitored) {
		return nil, fmt.Errorf("%d sites asked of %d monitored subnets", nsites, len(cfg.Monitored))
	}
	var blocks [][]gen.Trace
	var origin time.Time
	for _, subnet := range cfg.Monitored[:nsites] {
		c := cfg
		c.Monitored = []int{subnet}
		_, end := rec.start("gen.dataset", 0)
		ds := gen.GenerateDataset(c)
		end()
		blocks = append(blocks, ds.Traces)
		for _, tr := range ds.Traces {
			if len(tr.Packets) == 0 {
				continue
			}
			if ts := tr.Packets[0].Timestamp; origin.IsZero() || ts.Before(origin) {
				origin = ts
			}
		}
	}
	if origin.IsZero() {
		return nil, fmt.Errorf("fleet blocks generated no packets")
	}

	in := &fleetInput{}
	var single *core.Analyzer
	if rec != nil {
		single = fleetMember(origin, 0)
	}
	for i, block := range blocks {
		member := fleetMember(origin, in.traces)
		for _, tr := range block {
			ti := core.TraceInput{Name: fmt.Sprintf("trace-%02d", in.traces), Monitored: tr.Prefix, Packets: tr.Packets}
			in.traces++
			in.pkts += int64(len(tr.Packets))
			if err := member.AddTrace(ti); err != nil {
				return nil, fmt.Errorf("site %d: %w", i, err)
			}
			if single == nil {
				continue
			}
			if err := single.AddTrace(ti); err != nil {
				return nil, fmt.Errorf("single instance: %w", err)
			}
		}
		_, end := rec.start("core.window.export", 0)
		exports, err := member.ExportAll()
		end()
		if err != nil {
			return nil, fmt.Errorf("site %d export: %w", i, err)
		}
		in.sites = append(in.sites, site{name: fmt.Sprintf("site-%02d", i), hello: member.FleetHello(), exports: exports})
		in.deltas += len(exports)
		for _, we := range exports {
			in.deltaBytes += int64(len(we.Payload))
		}
	}
	ref, err := in.fold(len(in.sites))
	if err != nil {
		return nil, fmt.Errorf("reference fold: %w", err)
	}
	if !ref.complete {
		return nil, fmt.Errorf("reference fold covers %d packets in %d traces, generated %d in %d", ref.pkts, ref.traces, in.pkts, in.traces)
	}
	in.wantDigest = ref.digest
	if single != nil {
		d, err := reportDigest(single.Report())
		if err != nil {
			return nil, err
		}
		in.singleMatch = d == ref.digest
	}
	return in, nil
}

// lagSink is fleet-fold's tap: it sits between the aggregator and the
// merger and stamps each delta's delivery, so the benchmark can pair it
// with the moment the site handed that delta to its shipper.
type lagSink struct {
	fleet.Sink
	index  map[string]int
	shipAt [][]atomic.Int64 // [site][window] wall nanoseconds at ShipDelta
	// lags is per site: each site's frames arrive on one connection
	// goroutine, so the slices need no lock.
	lags [][]time.Duration
}

func newLagSink(inner fleet.Sink, sites []site) *lagSink {
	s := &lagSink{Sink: inner, index: make(map[string]int, len(sites))}
	for i, st := range sites {
		s.index[st.name] = i
		s.shipAt = append(s.shipAt, make([]atomic.Int64, len(st.exports)))
		s.lags = append(s.lags, make([]time.Duration, 0, len(st.exports)))
	}
	return s
}

func (s *lagSink) Delta(name string, window int, seq uint64, watermark int64, payload []byte) error {
	err := s.Sink.Delta(name, window, seq, watermark, payload)
	i := s.index[name]
	if at := s.shipAt[i][window].Load(); at != 0 {
		s.lags[i] = append(s.lags[i], time.Duration(time.Now().UnixNano()-at))
	}
	return err
}

// nopSink accepts every frame and keeps nothing: shipping into it prices
// the transport and the per-frame acknowledgement alone.
type nopSink struct{}

func (nopSink) Hello(string, fleet.Hello) error                { return nil }
func (nopSink) Delta(string, int, uint64, int64, []byte) error { return nil }
func (nopSink) Lost(string, int, uint64) error                 { return nil }
func (nopSink) Heartbeat(string, int64)                        {}
func (nopSink) Fin(string, int, uint64, int64) error           { return nil }
func (nopSink) Disconnect(string)                              {}

// fleetResult adds the shippers' retry counters (summed over sites) to
// an op's result.
type fleetResult struct {
	opResult
	stats fleet.ShipperStats
	ship  time.Duration // first dial → last Close
}

// run is one op: a fresh merger and aggregator on loopback TCP, every
// site shipped through a real Shipper, then the merged report rendered.
// With nop set the frames go to a sink that drops them and no report is
// built (the ship probe).
func (in *fleetInput) run(rec *spanRec, heap *heapProbe, nop bool) (fleetResult, error) {
	var res fleetResult
	names := make([]string, len(in.sites))
	for i, st := range in.sites {
		names[i] = st.name
	}
	rec.nextOp()
	if heap != nil {
		heap.begin()
	}
	start := time.Now()
	opID, endOp := rec.start("op", 0)
	fl := core.NewFleet(core.FleetConfig{Dataset: "fleet", ExpectSites: names})
	var sink fleet.Sink = fl
	if nop {
		sink = nopSink{}
	}
	tapSink := newLagSink(sink, in.sites)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	agg := fleet.NewAggregator(ln, tapSink, nil)
	served := make(chan struct{})
	go func() { agg.Serve(); close(served) }()
	stop := func() { agg.Close(); <-served }

	var wg sync.WaitGroup
	var mu sync.Mutex
	var shipErr error
	slots := make(chan struct{}, inFlight)
	for i := range in.sites {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			st, err := in.ship(ln.Addr().String(), i, tapSink, rec, opID)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && shipErr == nil {
				shipErr = err
			}
			res.stats.Reconnects += st.Reconnects
			res.stats.Resends += st.Resends
			res.stats.Evicted += st.Evicted
		}()
	}
	wg.Wait()
	res.ship = time.Since(start)
	stop()
	if heap != nil {
		heap.sample()
		heap.end()
	}
	for _, l := range tapSink.lags {
		res.lags = append(res.lags, l...)
	}
	if nop {
		endOp()
		res.wall = time.Since(start)
		res.ok = shipErr == nil
		return res, nil
	}

	status := fl.Status()
	_, endReport := rec.start("core.fleet.report", opID)
	r := fl.Report()
	endReport()
	_, endRender := rec.start("core.render", opID)
	got, err := reportDigest(r)
	endRender()
	endOp()
	res.wall = time.Since(start)
	if err != nil {
		return res, err
	}
	res.ok = shipErr == nil && status.FinalReady && status.LostWindows == 0 && len(status.MissingSites) == 0 &&
		r.Fleet == nil && got == in.wantDigest
	return res, nil
}

// ship streams one site's exports to the aggregator and drains.
func (in *fleetInput) ship(addr string, i int, tapSink *lagSink, rec *spanRec, parent int) (fleet.ShipperStats, error) {
	st := in.sites[i]
	_, end := rec.start("fleet.ship", parent)
	defer end()
	sh, err := fleet.NewShipper(fleet.ShipperConfig{
		Addr:  addr,
		Site:  st.name,
		Hello: st.hello,
		// Loopback never needs a retry; a bounded budget turns a broken
		// aggregator into a failed op instead of a hung run.
		Backoff: fleet.Backoff{Base: time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: 8},
	})
	if err != nil {
		return fleet.ShipperStats{}, err
	}
	maxWindow := -1
	var watermark int64
	for _, we := range st.exports {
		tapSink.shipAt[i][we.Window].Store(time.Now().UnixNano())
		sh.ShipDelta(we.Window, we.Watermark, we.Payload)
		maxWindow = max(maxWindow, we.Window)
		watermark = we.Watermark
	}
	sh.Fin(maxWindow, watermark)
	err = sh.Close()
	if err == nil && len(sh.LostWindows()) != 0 {
		err = fmt.Errorf("site %s lost windows %v", st.name, sh.LostWindows())
	}
	return sh.Stats(), err
}

// foldResult is one in-process fold.
type foldResult struct {
	deltaUs  float64 // mean Fleet.Delta cost
	reportMs float64 // Fleet.Report cost
	digest   [sha256.Size]byte
	pkts     int64
	traces   int
	// complete: the report is whole and accounts for every generated
	// packet and trace of the sites folded (meaningful for a full fold).
	complete bool
}

// fold feeds the first n sites' deltas to a merger in-process — no
// transport, no shippers, one goroutine — and builds its report.
func (in *fleetInput) fold(n int) (foldResult, error) {
	var res foldResult
	fl := core.NewFleet(core.FleetConfig{Dataset: "fleet"})
	var spent time.Duration
	count := 0
	for _, st := range in.sites[:n] {
		if err := fl.Hello(st.name, st.hello); err != nil {
			return res, err
		}
		var seq uint64
		var watermark int64
		for _, we := range st.exports {
			seq++
			start := time.Now()
			err := fl.Delta(st.name, we.Window, seq, we.Watermark, we.Payload)
			spent += time.Since(start)
			if err != nil {
				return res, err
			}
			count++
			watermark = we.Watermark
		}
		if err := fl.Fin(st.name, len(st.exports)-1, seq+1, watermark); err != nil {
			return res, err
		}
	}
	if count == 0 {
		return res, fmt.Errorf("no deltas to fold")
	}
	start := time.Now()
	r := fl.Report()
	res.reportMs = ms(time.Since(start))
	res.deltaUs = us(spent) / float64(count)
	var err error
	if res.digest, err = reportDigest(r); err != nil {
		return res, err
	}
	res.pkts, res.traces = r.Table1.Packets, r.Table1.Traces
	res.complete = r.Fleet == nil && res.pkts == in.pkts && res.traces == in.traces
	return res, nil
}
