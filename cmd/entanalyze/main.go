// Command entanalyze runs the paper's analysis pipeline over existing
// libpcap traces (for example, files produced by entgen, or any Ethernet
// capture) and prints the reproduced tables. Traces are streamed — packets
// are decoded in batches and sharded across workers, so multi-GB captures
// are analyzed without materializing them in memory.
//
// With -window, the analysis additionally cuts per-window reports at
// fixed boundaries in packet time; with -serve, a long-running HTTP
// server exposes the latest window, any window by index, and a health
// endpoint while analysis streams (and the final report afterwards).
//
// With -gen, no trace files are read at all: frames are synthesized on
// the fly from a gen.Schedule and streamed straight into the pipeline —
// the in-memory load harness. -duration tiles the schedule for soak
// runs; memory stays bounded however long it runs, and the report is
// byte-identical to writing the same schedule to a pcap and replaying
// it.
//
// Resilience controls: -on-error selects the source read-error policy
// (fail-fast, or skip poisoned records and fold a SourceError census
// into the report), -inject drives a deterministic fault schedule
// against any source for chaos testing, and -idle-evict/-max-conns
// bound the connection table for indefinite runs. SIGINT/SIGTERM drain
// gracefully: intake stops, routed packets flush, the final report is
// emitted, and the process exits 0.
//
// Two-tier fleet mode: with -ship, a site streams its per-window
// snapshot deltas to an aggregator over TCP (at-least-once delivery,
// exponential-backoff reconnect); with -aggregate, the process runs as
// the aggregator instead — it reads no traces, merges every site's
// snapshots into fleet-wide reports, and serves them (with per-site
// liveness) over -serve. Windowed fleet members must share a window
// clock: pass the same -window and -window-origin to every site.
//
// Usage:
//
//	entanalyze [-payload] [-workers N] [-replay-workers N] [-monitored 128.3.5.0/24]
//	           [-window 60s] [-format text|json] [-serve :8080]
//	           [-on-error fail|skip] [-inject spec] [-idle-evict 5m] [-max-conns N]
//	           trace1.pcap [trace2.pcap ...]
//	entanalyze -gen default [-gen-dataset D3] [-duration 10m] [-window 60s] [-serve :8080]
//	entanalyze -ship agg:9444 -site lbl-east [-window 60s -window-origin 2005-01-06T09:00:00Z]
//	           [-trace-base N] trace1.pcap ...
//	entanalyze -aggregate :9444 [-expect-sites east,west] [-stale-after 30s] [-serve :8080]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/faults"
	"enttrace/internal/fleet"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
	"enttrace/internal/stats"
)

// usageError marks a bad invocation; main exits 2 for it (like flag
// parse failures) and 1 for runtime errors.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

func main() {
	// The first SIGINT/SIGTERM cancels ctx, which drains the run, and
	// unregisters the handler: a second signal terminates the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the program: args are the command line after the program name,
// stdout takes the report, stderr the narration. Cancelling ctx drains
// the run, which still returns nil.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	c, err := parseConfig(args)
	switch {
	case err != nil:
		return err
	case c.help != "":
		fmt.Fprint(stderr, c.help)
		return nil
	case c.aggregate != "":
		return runAggregate(ctx, c, stdout, stderr)
	}
	return runAnalyze(ctx, c, stdout, stderr)
}

// config is one validated command line. Aggregate mode reads format,
// serve, opts.Dataset and the last three fields; analyze mode the rest.
type config struct {
	help          string // -h: the usage text, and nothing else is set
	format, serve string
	opts          core.Options // without OnWindow, which the run sets
	prefix        netip.Prefix
	traces        []string
	stream        *gen.StreamConfig // -gen, in place of traces
	inject        faults.Schedule
	ship, site    string
	aggregate     string
	expectSites   []string
	staleAfter    time.Duration
}

// parseConfig validates a whole command line. It opens, listens on and
// creates nothing, so a usage error leaves nothing behind.
func parseConfig(args []string) (*config, error) {
	c := &config{opts: core.Options{KnownScanners: enterprise.KnownScanners()}}
	fs := flag.NewFlagSet("entanalyze", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // main prints a parse error once; -h gets the usage below
	fs.BoolVar(&c.opts.PayloadAnalysis, "payload", true, "enable application-payload analysis")
	monitored := fs.String("monitored", "128.3.0.0/16", "monitored prefix for fan-in/out")
	fs.StringVar(&c.opts.Dataset, "name", "pcap", "label for the report")
	fs.IntVar(&c.opts.Workers, "workers", 0, "pipeline shard workers (0 = GOMAXPROCS); results are identical for any count")
	fs.IntVar(&c.opts.ReplayWorkers, "replay-workers", 0, "application-replay workers (0 = GOMAXPROCS); results are identical for any count")
	fs.DurationVar(&c.opts.Window, "window", 0, "cut per-window reports at this interval in packet time (0 = whole-run report only)")
	fs.StringVar(&c.format, "format", "text", "report output format: text or json")
	fs.StringVar(&c.serve, "serve", "", "serve reports over HTTP at this address (e.g. :8080); window endpoints need -window")
	genSpec := fs.String("gen", "",
		`stream a synthesized schedule instead of reading trace files: comma-separated phases `+
			`kind:duration[:rate] with rate in sessions/minute (e.g. "steady:5m:120"), or "default" `+
			`for the built-in day-in-miniature; frames never touch disk`)
	genDataset := fs.String("gen-dataset", "D3", "dataset shape for -gen (D0..D4): snaplen, subnets, seed")
	duration := fs.Duration("duration", 0, "with -gen, tile the schedule to at least this length (soak mode; 0 = run it once)")
	onError := fs.String("on-error", "fail",
		`source read-error policy: "fail" aborts on the first error (default); "skip" degrades `+
			`and continues — poisoned records are dropped and the report carries a SourceError census`)
	inject := fs.String("inject", "",
		`deterministic fault injection against every source: "word@N[:arg],..." with the source `+
			`words read@N, short@N:cut, stall@N:dur, torn@N, eof@N — or "rand:seed:count:span" (the `+
			`wire words drop, dup, reorder, netstall count frames sent and are refused here); pair with `+
			`-on-error skip to exercise degraded runs (the census is checked against the manifest)`)
	fs.DurationVar(&c.opts.IdleEvict, "idle-evict", 0,
		"evict connections idle past this horizon, bounding memory on indefinite runs "+
			"(0 = protocol-default timeouts only); evictions are banked as the report's AgedOut disposition")
	fs.IntVar(&c.opts.MaxConns, "max-conns", 0,
		"hard bound on live connections across all shards (0 = unbounded); a lossy backstop — "+
			"evictions are surfaced in the report when it fires")
	fs.StringVar(&c.ship, "ship", "",
		"stream per-window snapshot deltas to a fleet aggregator at this TCP address "+
			"(two-tier mode; requires -site, and -window-origin when windowed)")
	fs.StringVar(&c.site, "site", "", "with -ship: this site's unique name in the fleet")
	windowOrigin := fs.String("window-origin", "",
		"with -ship and -window: the fleet's shared window-clock origin, RFC3339 "+
			"(every site must pass the same value or the aggregator refuses the session)")
	fs.IntVar(&c.opts.TraceBase, "trace-base", 0,
		"with -ship: global ordinal of this site's first trace, so the fleet report "+
			"orders per-trace rows exactly like a single instance over the concatenated traces")
	fs.StringVar(&c.aggregate, "aggregate", "",
		"run as the fleet aggregator listening for site shippers at this TCP address; "+
			"no traces are read — reports come from merged site snapshots (pair with -serve)")
	expectSites := fs.String("expect-sites", "",
		"with -aggregate: comma-separated site names the fleet is incomplete without; "+
			"an absent site keeps /report/final unavailable and is named in /healthz")
	fs.DurationVar(&c.staleAfter, "stale-after", 30*time.Second,
		"with -aggregate -serve: degrade /healthz and name a site stale after this long "+
			"without a frame from it (0 = never)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		var usage strings.Builder
		fs.SetOutput(&usage)
		fs.Usage()
		return &config{help: usage.String()}, nil
	} else if err != nil {
		return nil, usagef("%v (entanalyze -h lists the flags)", err)
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if c.format != "text" && c.format != "json" {
		return nil, usagef("unknown -format %q (want text or json)", c.format)
	}
	if c.aggregate != "" {
		if fs.NArg() > 0 || *genSpec != "" || c.ship != "" {
			return nil, usagef("-aggregate runs a standalone aggregator: it takes no traces, -gen, or -ship")
		}
		for _, s := range strings.Split(*expectSites, ",") {
			if s = strings.TrimSpace(s); s != "" {
				c.expectSites = append(c.expectSites, s)
			}
		}
		return c, nil
	}
	c.traces = fs.Args()
	for _, rule := range []struct {
		broken bool
		msg    string
	}{
		{*expectSites != "" || set["stale-after"], "-expect-sites and -stale-after require -aggregate"},
		{(len(c.traces) == 0) == (*genSpec == ""), "usage: entanalyze [flags] trace.pcap ...\n       entanalyze -gen <schedule|default> [flags]\n       entanalyze -aggregate <addr> [flags]"},
		{(c.ship == "") != (c.site == ""), "-ship and -site go together (a fleet site needs both)"},
		{c.ship == "" && c.opts.TraceBase != 0, "-trace-base only applies to fleet sites (-ship)"},
		{*windowOrigin != "" && c.opts.Window <= 0, "-window-origin requires -window"},
		{c.ship != "" && c.opts.Window > 0 && *windowOrigin == "", "a windowed fleet site needs -window-origin (the shared window clock; same RFC3339 instant on every site)"},
		{*genSpec == "" && (set["duration"] || set["gen-dataset"]), "-duration and -gen-dataset require -gen"},
	} {
		if rule.broken {
			return nil, &usageError{msg: rule.msg}
		}
	}
	var err error
	if *windowOrigin != "" {
		if c.opts.WindowOrigin, err = time.Parse(time.RFC3339, *windowOrigin); err != nil {
			return nil, usagef("-window-origin: %v", err)
		}
	}
	if c.opts.OnError, err = pipeline.ParseErrorPolicy(*onError); err != nil {
		return nil, &usageError{msg: err.Error()}
	}
	if *inject != "" {
		if c.inject, err = faults.ParseSpec(*inject, faults.Packets); err != nil {
			return nil, &usageError{msg: err.Error()}
		}
	}
	if c.prefix, err = netip.ParsePrefix(*monitored); err != nil {
		return nil, &usageError{msg: err.Error()}
	}
	if *genSpec == "" {
		return c, nil
	}
	ds, ok := enterprise.DatasetByName(*genDataset)
	if !ok {
		return nil, usagef("unknown -gen-dataset %q", *genDataset)
	}
	sched, err := gen.ParseSchedule(*genSpec)
	if err != nil {
		return nil, &usageError{msg: err.Error()}
	}
	stream := gen.DatasetStream(ds, sched.Repeat(*duration))
	c.stream = &stream
	// The synthesized trace is a single monitored-subnet vantage: the
	// fan-in/out prefix and the label default to it.
	if !set["monitored"] {
		c.prefix = enterprise.SubnetPrefix(stream.Subnet)
	}
	if !set["name"] {
		c.opts.Dataset = ds.Name + "-gen"
	}
	return c, nil
}

// runAnalyze is the analyze mode: trace files or a -gen stream through
// one Analyzer, optionally served (-serve) and shipped (-ship).
// Cancelling ctx stops intake at the next packet boundary; routed packets
// flush, windows bank at the drain watermark, and the final report is
// emitted as if the input had ended there.
func runAnalyze(ctx context.Context, c *config, stdout, stderr io.Writer) (err error) {
	var sh *shipping // set before the first trace, so before OnWindow runs
	opts := c.opts
	if opts.Window > 0 {
		// Narrate each window as the watermark passes its end, so a long
		// run shows progress. It runs on a replay worker's goroutine, one
		// call at a time and in window order.
		opts.OnWindow = func(wr *core.WindowReport) {
			fmt.Fprintf(stderr, "window %d [%s, %s): %d conns, %s payload\n",
				wr.Index, wr.Start.UTC().Format("15:04:05"), wr.End.UTC().Format("15:04:05"),
				wr.Report.Table3.TotalConns, stats.Bytes(wr.Report.Table3.TotalBytes))
			if sh != nil {
				sh.ship(wr.Index)
			}
		}
	}
	a := core.NewAnalyzer(opts)
	drained := make(chan struct{})
	stopDrain := context.AfterFunc(ctx, func() {
		defer close(drained)
		fmt.Fprintln(stderr, "signal: draining — stopping intake, flushing windows, emitting final report")
		a.Stop()
	})
	defer func() {
		if !stopDrain() {
			<-drained
		}
	}()
	if c.ship != "" {
		if sh, err = startShipping(a, c, stderr); err != nil {
			return err
		}
		defer sh.abort()
	}
	srv := core.NewReportServer(a)
	var web *server
	if c.serve != "" {
		if web, err = serve(stderr, c.serve, srv, "reports", "/report/final"); err != nil {
			return err
		}
		defer web.stop(&err)
	}

	in := &faults.Injector{Schedule: c.inject}
	if c.stream != nil {
		src := gen.NewStreamSource(*c.stream)
		start := time.Now()
		if err := a.AddTraceSource(opts.Dataset, c.prefix, in.Wrap(src)); err != nil {
			return fmt.Errorf("gen stream: %w", err)
		}
		wall := time.Since(start)
		st := src.Stats()
		fmt.Fprintf(stderr, "gen stream: %d packets over %s of schedule in %.1fs wall (%.0f pkts/s), peak %d frames buffered, %d in flight\n",
			st.Frames, c.stream.Schedule.Duration(), wall.Seconds(),
			float64(st.Frames)/wall.Seconds(), st.PeakBuffered, st.PeakInFlight)
	}
	// analyzeFile is the one way a trace file is opened: a pooled reader
	// takes it straight into slabs reused across traces. The file closes
	// once AddTraceSource returns: the analyzer copies what it keeps of a
	// packet before releasing it, so nothing outlives the call.
	pool := pcap.NewPool()
	analyzeFile := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, err := pcap.NewReader(f)
		if err != nil {
			return err
		}
		return a.AddTraceSource(path, c.prefix, in.Wrap(pcap.NewPooledReader(rd, pool)))
	}
	for _, path := range c.traces {
		before := a.PacketsSeen()
		if err := analyzeFile(path); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(stderr, "%s: %d packets\n", path, a.PacketsSeen()-before)
	}
	if sh != nil {
		if err := sh.finish(); err != nil {
			return err
		}
	}

	report := a.Report()
	if err := core.WriteRun(stdout, c.format, a.WindowReports(), report); err != nil {
		return err
	}
	if opts.OnError == pipeline.Degrade && !a.Stopping() {
		se := report.SourceErrors
		if err := in.CheckCensus(stderr, se.Errors, se.LostBytes, se.ByKind); err != nil {
			return err
		}
	}
	if web == nil {
		return nil
	}
	if err := srv.SetFinal(report); err != nil {
		return err
	}
	if !a.Stopping() {
		fmt.Fprintln(stderr, "analysis complete; still serving (SIGINT/SIGTERM to exit)")
		select {
		case <-drained: // closed after the drain line is printed
		case <-web.done: // stop sets err to why serving failed
		}
	}
	return nil
}

// shipping is a fleet site's half of an analyze run (-ship): windows ship
// as they complete, a heartbeat says the site is alive meanwhile, and
// finish ships the canonical re-export that supersedes them, then FIN.
// abort, deferred where shipping starts, stops what finish did not.
type shipping struct {
	a        *core.Analyzer
	s        *fleet.Shipper
	c        *config
	stderr   io.Writer
	stopBeat func() // idempotent; returns once the heartbeat has exited
}

// startShipping starts the shipper, which dials on its first frame, and
// a five-second heartbeat, so the aggregator can tell a slow site from a
// dead one.
func startShipping(a *core.Analyzer, c *config, stderr io.Writer) (*shipping, error) {
	s, err := fleet.NewShipper(fleet.ShipperConfig{
		Addr:  c.ship,
		Site:  c.site,
		Hello: a.FleetHello(),
		Logf:  func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) },
	})
	if err != nil {
		return nil, err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if wm := a.Watermark(); !wm.IsZero() {
					s.Heartbeat(wm.UnixNano())
				}
			case <-stop:
				return
			}
		}
	}()
	return &shipping{a: a, s: s, c: c, stderr: stderr, stopBeat: sync.OnceFunc(func() { close(stop); <-done })}, nil
}

// ship ships window n. It runs in OnWindow beside the heartbeat:
// ExportWindow and ShipDelta are both safe there.
func (sh *shipping) ship(n int) {
	if we, err := sh.a.ExportWindow(n); err == nil {
		sh.s.ShipDelta(we.Window, we.Watermark, we.Payload)
	} else {
		fmt.Fprintf(sh.stderr, "ship window %d: %v\n", n, err)
	}
}

// finish blocks until the aggregator has acknowledged everything (or the
// shipper gave up); the shipper sleeps between acks, so the wait costs
// this site no CPU.
func (sh *shipping) finish() error {
	sh.stopBeat()
	exports, err := sh.a.ExportAll()
	if err != nil {
		return fmt.Errorf("fleet export: %w", err)
	}
	maxWindow, watermark := -1, int64(0)
	for _, we := range exports {
		sh.s.ShipDelta(we.Window, we.Watermark, we.Payload)
		maxWindow, watermark = max(maxWindow, we.Window), we.Watermark
	}
	sh.s.Fin(maxWindow, watermark)
	if err := sh.s.Close(); err != nil {
		return fmt.Errorf("ship to %s: %w", sh.c.ship, err)
	}
	st := sh.s.Stats()
	fmt.Fprintf(sh.stderr, "shipped %d windows to %s as site %s (%d frames acked, %d reconnects, %d resends)\n",
		len(exports), sh.c.ship, sh.c.site, st.Acked, st.Reconnects, st.Resends)
	return nil
}

func (sh *shipping) abort() {
	sh.stopBeat()
	sh.s.Abort()
}

// runAggregate is the -aggregate mode: a standalone fleet aggregator
// that accepts site shippers, merges their window snapshots
// (idempotently — delivery is at-least-once), optionally serves
// fleet-wide reports and per-site liveness over HTTP, and once ctx is
// cancelled drains and emits the merged report — degraded with a
// per-site census when sites are missing, lagging, or lost.
func runAggregate(ctx context.Context, c *config, stdout, stderr io.Writer) (err error) {
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	f := core.NewFleet(core.FleetConfig{Dataset: c.opts.Dataset, ExpectSites: c.expectSites, Logf: logf})
	ln, err := net.Listen("tcp", c.aggregate)
	if err != nil {
		return err
	}
	agg := fleet.NewAggregator(ln, f, logf)
	if len(c.expectSites) > 0 {
		fmt.Fprintf(stderr, "fleet aggregator listening on %s (expecting sites: %s)\n", ln.Addr(), strings.Join(c.expectSites, ", "))
	} else {
		fmt.Fprintf(stderr, "fleet aggregator listening on %s\n", ln.Addr())
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		agg.Serve() // returns net.ErrClosed, once Close has closed ln
	}()
	closeAgg := func() { agg.Close(); <-served }
	defer closeAgg()

	fsrv := core.NewFleetServer(f)
	fsrv.SetStaleThreshold(c.staleAfter)
	var failed chan struct{} // never ready without -serve
	if c.serve != "" {
		var web *server
		if web, err = serve(stderr, c.serve, fsrv, "fleet reports", "/report/fleet, /report/final"); err != nil {
			return err
		}
		defer web.stop(&err)
		failed = web.done
	}
	select {
	case <-ctx.Done():
	case <-failed:
		return nil // stop sets err to why serving failed
	}
	fsrv.SetDraining(true)
	fmt.Fprintln(stderr, "signal: draining — closing shipper sessions, emitting fleet report")
	closeAgg()

	if err := core.WriteRun(stdout, c.format, f.WindowReports(), f.Report()); err != nil {
		return err
	}
	if st := f.Status(); !st.FinalReady {
		fmt.Fprintf(stderr, "fleet incomplete: missing sites %v, %d windows lost — the report above carries the degradation census\n",
			st.MissingSites, st.LostWindows)
	}
	return nil
}

// server is one of the two report servers, serving in the background.
type server struct {
	http *http.Server
	done chan struct{} // closed once Serve has returned: early if it failed
	err  error         // why Serve failed; read after done
}

// serve listens on addr and serves h there (both report servers share
// the window and final endpoints; tail names what follows them).
func serve(stderr io.Writer, addr string, h http.Handler, what, tail string) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "serving %s on http://%s (/healthz, /report/latest, /report/window/<n>, %s)\n", what, ln.Addr(), tail)
	return serveOn(ln, h), nil
}

func serveOn(ln net.Listener, h http.Handler) *server {
	s := &server{http: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.http.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	}()
	return s
}

// stop shuts the server down — requests in flight get five seconds to
// finish, then their connections are closed under them — and returns
// once the listener, every connection and the serving goroutine are
// gone. If serving had failed, and *err is nil, *err is set to why.
func (s *server) stop(err *error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.http.Shutdown(ctx) != nil {
		s.http.Close()
	}
	<-s.done
	if *err == nil {
		*err = s.err
	}
}
