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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		var ue *usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the program: args are the command line after the program name,
// stdout takes the report, stderr the narration.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("entanalyze", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // main prints a parse error once; -h prints the usage below
	payload := fs.Bool("payload", true, "enable application-payload analysis")
	monitored := fs.String("monitored", "128.3.0.0/16", "monitored prefix for fan-in/out")
	dataset := fs.String("name", "pcap", "label for the report")
	workers := fs.Int("workers", 0, "pipeline shard workers (0 = GOMAXPROCS); results are identical for any count")
	replayWorkers := fs.Int("replay-workers", 0, "application-replay workers (0 = GOMAXPROCS); results are identical for any count")
	window := fs.Duration("window", 0, "cut per-window reports at this interval in packet time (0 = whole-run report only)")
	format := fs.String("format", "text", "report output format: text or json")
	serve := fs.String("serve", "", "serve reports over HTTP at this address (e.g. :8080); window endpoints need -window")
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
		`deterministic fault injection against every source: "kind@index[:arg],..." with kinds `+
			`read@N, short@N:cut, stall@N:dur, torn@N, eof@N — or "rand:seed:count:span"; pair with `+
			`-on-error skip to exercise degraded runs (the census is checked against the manifest)`)
	idleEvict := fs.Duration("idle-evict", 0,
		"evict connections idle past this horizon, bounding memory on indefinite runs "+
			"(0 = protocol-default timeouts only); evictions are banked as the report's AgedOut disposition")
	maxConns := fs.Int("max-conns", 0,
		"hard bound on live connections across all shards (0 = unbounded); a lossy backstop — "+
			"evictions are surfaced in the report when it fires")
	ship := fs.String("ship", "",
		"stream per-window snapshot deltas to a fleet aggregator at this TCP address "+
			"(two-tier mode; requires -site, and -window-origin when windowed)")
	site := fs.String("site", "", "with -ship: this site's unique name in the fleet")
	windowOrigin := fs.String("window-origin", "",
		"with -ship and -window: the fleet's shared window-clock origin, RFC3339 "+
			"(every site must pass the same value or the aggregator refuses the session)")
	traceBase := fs.Int("trace-base", 0,
		"with -ship: global ordinal of this site's first trace, so the fleet report "+
			"orders per-trace rows exactly like a single instance over the concatenated traces")
	aggregate := fs.String("aggregate", "",
		"run as the fleet aggregator listening for site shippers at this TCP address; "+
			"no traces are read — reports come from merged site snapshots (pair with -serve)")
	expectSites := fs.String("expect-sites", "",
		"with -aggregate: comma-separated site names the fleet is incomplete without; "+
			"an absent site keeps /report/final unavailable and is named in /healthz")
	staleAfter := fs.Duration("stale-after", 30*time.Second,
		"with -aggregate -serve: degrade /healthz and name a site stale after this long "+
			"without a frame from it (0 = never)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(stderr)
		fs.Usage()
		return nil
	} else if err != nil {
		return usagef("%v (entanalyze -h lists the flags)", err)
	}
	setFlags := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if *format != "text" && *format != "json" {
		return usagef("unknown -format %q (want text or json)", *format)
	}
	if *aggregate != "" {
		if fs.NArg() > 0 || *genSpec != "" || *ship != "" {
			return usagef("-aggregate runs a standalone aggregator: it takes no traces, -gen, or -ship")
		}
		return runAggregate(stdout, stderr, *aggregate, *expectSites, *dataset, *serve, *staleAfter, *format)
	}
	if *expectSites != "" || setFlags["stale-after"] {
		return usagef("-expect-sites and -stale-after require -aggregate")
	}
	if (fs.NArg() == 0) == (*genSpec == "") {
		return usagef("usage: entanalyze [flags] trace.pcap ...\n       entanalyze -gen <schedule|default> [flags]\n       entanalyze -aggregate <addr> [flags]")
	}
	if (*ship == "") != (*site == "") {
		return usagef("-ship and -site go together (a fleet site needs both)")
	}
	if *ship == "" && *traceBase != 0 {
		return usagef("-trace-base only applies to fleet sites (-ship)")
	}
	if *windowOrigin != "" && *window <= 0 {
		return usagef("-window-origin requires -window")
	}
	var shipOrigin time.Time
	if *windowOrigin != "" {
		var err error
		if shipOrigin, err = time.Parse(time.RFC3339, *windowOrigin); err != nil {
			return usagef("-window-origin: %v", err)
		}
	}
	if *ship != "" && *window > 0 && *windowOrigin == "" {
		return usagef("a windowed fleet site needs -window-origin (the shared window clock; same RFC3339 instant on every site)")
	}
	var policy pipeline.ErrorPolicy
	switch *onError {
	case "fail":
		policy = pipeline.FailFast
	case "skip":
		policy = pipeline.Degrade
	default:
		return usagef("unknown -on-error %q (want fail or skip)", *onError)
	}
	var injectSched faults.Schedule
	if *inject != "" {
		var err error
		if injectSched, err = faults.ParseSpec(*inject); err != nil {
			return &usageError{msg: err.Error()}
		}
	}
	prefix, err := netip.ParsePrefix(*monitored)
	if err != nil {
		return &usageError{msg: err.Error()}
	}

	// Soak-mode setup: resolve the schedule and dataset shape up front so
	// flag errors surface before the server starts.
	var streamCfg gen.StreamConfig
	if *genSpec != "" {
		var cfg enterprise.Config
		found := false
		for _, c := range enterprise.AllDatasets() {
			if c.Name == *genDataset {
				cfg, found = c, true
			}
		}
		if !found {
			return usagef("unknown -gen-dataset %q", *genDataset)
		}
		sched := gen.DefaultSchedule()
		if *genSpec != "default" {
			if sched, err = gen.ParseSchedule(*genSpec); err != nil {
				return &usageError{msg: err.Error()}
			}
		}
		if *duration > 0 {
			sched = sched.Repeat(*duration)
		}
		subnet := cfg.Monitored[0]
		streamCfg = gen.StreamConfig{
			Network:  enterprise.NewNetwork(cfg),
			Subnet:   subnet,
			Schedule: sched,
			Snaplen:  cfg.Snaplen,
		}
		// The synthesized trace is a single monitored-subnet vantage;
		// default the fan-in/out prefix to it unless the user said
		// otherwise.
		if !setFlags["monitored"] {
			prefix = enterprise.SubnetPrefix(subnet)
		}
		if !setFlags["name"] {
			*dataset = fmt.Sprintf("%s-gen", cfg.Name)
		}
	} else if setFlags["duration"] || setFlags["gen-dataset"] {
		return usagef("-duration and -gen-dataset require -gen")
	}
	opts := core.Options{
		Dataset:         *dataset,
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: *payload,
		Workers:         *workers,
		ReplayWorkers:   *replayWorkers,
		Window:          *window,
		WindowOrigin:    shipOrigin,
		TraceBase:       *traceBase,
		OnError:         policy,
		IdleEvict:       *idleEvict,
		MaxConns:        *maxConns,
	}
	// shipper is assigned after the analyzer exists (the HELLO carries
	// the analyzer's snapshot schema and window config); the OnWindow
	// closure reads it through the variable.
	var shipper *fleet.Shipper
	var a *core.Analyzer
	if *window > 0 {
		// Narrate window completion as the watermark passes each
		// boundary, so a long streaming run shows progress — and in
		// fleet mode, ship the completed window as a provisional
		// snapshot (the end-of-run canonical re-export supersedes it).
		// The callback runs on a replay worker's goroutine, one call at
		// a time and in window order, beside the heartbeat goroutine
		// below: ExportWindow and ShipDelta are both safe there.
		opts.OnWindow = func(wr *core.WindowReport) {
			fmt.Fprintf(stderr, "window %d [%s, %s): %d conns, %s payload\n",
				wr.Index, wr.Start.UTC().Format("15:04:05"), wr.End.UTC().Format("15:04:05"),
				wr.Report.Table3.TotalConns, stats.Bytes(wr.Report.Table3.TotalBytes))
			if shipper != nil {
				if we, err := a.ExportWindow(wr.Index); err == nil {
					shipper.ShipDelta(we.Window, we.Watermark, we.Payload)
				} else {
					fmt.Fprintf(stderr, "ship window %d: %v\n", wr.Index, err)
				}
			}
		}
	}
	a = core.NewAnalyzer(opts)
	var hbStop chan struct{}
	if *ship != "" {
		var err error
		shipper, err = fleet.NewShipper(fleet.ShipperConfig{
			Addr:  *ship,
			Site:  *site,
			Hello: a.FleetHello(),
			Logf:  func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) },
		})
		if err != nil {
			return err
		}
		// Liveness heartbeats while analysis streams, so the aggregator
		// can tell a slow site from a dead one; stopped before Close.
		hbStop = make(chan struct{})
		go func() {
			tick := time.NewTicker(5 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if wm := a.Watermark(); !wm.IsZero() {
						shipper.Heartbeat(wm.UnixNano())
					}
				case <-hbStop:
					return
				}
			}
		}()
	}

	// Graceful drain: the first SIGINT/SIGTERM stops intake at the next
	// packet boundary; routed packets flush, the final report (and, with
	// -serve, /report/final) is emitted, and run returns nil — exit 0. A
	// second signal gets default handling (immediate termination).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sigDone := make(chan struct{})
	go func() {
		<-sigc
		signal.Stop(sigc)
		fmt.Fprintln(stderr, "signal: draining — stopping intake, flushing windows, emitting final report")
		a.Stop()
		close(sigDone)
	}()

	// wrapSource interposes the fault injector (when -inject is set) and
	// remembers each injector so the census self-check can aggregate the
	// manifests afterwards.
	var injectors []*faults.Source
	wrapSource := func(src pcap.PacketSource) pcap.PacketSource {
		if *inject == "" {
			return src
		}
		fs := faults.Wrap(src, injectSched)
		injectors = append(injectors, fs)
		return fs
	}

	var srv *core.ReportServer
	if *serve != "" {
		srv = core.NewReportServer(a)
		stop, err := serveReports(stderr, *serve, srv, "reports", "/report/final")
		if err != nil {
			return err
		}
		defer stop()
	}

	if *genSpec != "" {
		src := gen.NewStreamSource(streamCfg)
		start := time.Now()
		if err := a.AddTraceSource(*dataset, prefix, wrapSource(src)); err != nil {
			return fmt.Errorf("gen stream: %w", err)
		}
		wall := time.Since(start)
		st := src.Stats()
		fmt.Fprintf(stderr, "gen stream: %d packets over %s of schedule in %.1fs wall (%.0f pkts/s), peak %d frames buffered, %d in flight\n",
			st.Frames, streamCfg.Schedule.Duration(), wall.Seconds(),
			float64(st.Frames)/wall.Seconds(), st.PeakBuffered, st.PeakInFlight)
	}
	// analyzeFile is the one way a trace file is opened: a pooled reader
	// takes it straight into slabs reused across traces. The file closes
	// once AddTraceSource returns — the analyzer's borrow contract
	// consumes every retained view during replay, so nothing outlives it.
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
		return a.AddTraceSource(path, prefix, wrapSource(pcap.NewPooledReader(rd, pool)))
	}
	for _, path := range fs.Args() {
		before := a.PacketsSeen()
		if err := analyzeFile(path); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(stderr, "%s: %d packets\n", path, a.PacketsSeen()-before)
	}

	if shipper != nil {
		close(hbStop)
		exports, err := a.ExportAll()
		if err != nil {
			return fmt.Errorf("fleet export: %w", err)
		}
		maxWindow := -1
		var watermark int64
		for _, we := range exports {
			shipper.ShipDelta(we.Window, we.Watermark, we.Payload)
			if we.Window > maxWindow {
				maxWindow = we.Window
			}
			watermark = we.Watermark
		}
		shipper.Fin(maxWindow, watermark)
		// Close blocks until the aggregator has acknowledged everything
		// queued above (or the shipper gave up); the shipper sleeps
		// between acks, so the wait costs this site no CPU.
		if err := shipper.Close(); err != nil {
			return fmt.Errorf("ship to %s: %w", *ship, err)
		}
		st := shipper.Stats()
		fmt.Fprintf(stderr, "shipped %d windows to %s as site %s (%d frames acked, %d reconnects, %d resends)\n",
			len(exports), *ship, *site, st.Acked, st.Reconnects, st.Resends)
	}

	report := a.Report()
	if err := printRun(stdout, *format, a.WindowReports(), report); err != nil {
		return err
	}
	if len(injectors) > 0 && policy == pipeline.Degrade && !a.Stopping() {
		se := report.SourceErrors
		if err := faults.CheckCensus(se.Errors, se.LostBytes, se.ByKind, injectors...); err != nil {
			return err
		}
		// The match line is stable for CI to grep.
		fmt.Fprintf(stderr, "fault census: report matches injected manifest (%d errors, %d bytes lost)\n",
			se.Errors, se.LostBytes)
	}
	if srv != nil {
		if err := srv.SetFinal(report); err != nil {
			return err
		}
		if !a.Stopping() {
			fmt.Fprintln(stderr, "analysis complete; still serving (SIGINT/SIGTERM to exit)")
			<-sigDone
		}
	}
	return nil
}

// serveReports serves one of the two report servers on addr in the
// background (both share the window and final endpoints; tail names what
// follows them) until the returned stop is called — on the way out of
// either mode, once the drain has emitted its report.
func serveReports(stderr io.Writer, addr string, h http.Handler, what, tail string) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "serving %s on http://%s (/healthz, /report/latest, /report/window/<n>, %s)\n", what, ln.Addr(), tail)
	return serveOn(ln, h), nil
}

// serveOn serves h on ln in the background. A serve failure after a
// successful listen is fatal. stop shuts the server down — requests in
// flight get five seconds to finish, then their connections are closed
// under them — and returns once the listener, every connection and the
// serving goroutine are gone.
func serveOn(ln net.Listener, h http.Handler) (stop func()) {
	server := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := server.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if server.Shutdown(ctx) != nil {
			server.Close()
		}
		<-served
	}
}

// printRun writes a run's window summary and cumulative report to
// stdout in the selected format.
func printRun(stdout io.Writer, format string, windows []*core.WindowReport, report *core.Report) error {
	if format == "json" {
		return core.WriteRunJSON(stdout, windows, report)
	}
	if len(windows) > 0 {
		fmt.Fprint(stdout, core.RenderWindowSummary(windows)+"\n")
	}
	fmt.Fprint(stdout, core.RenderText(report))
	return nil
}

// runAggregate is the -aggregate mode: a standalone fleet aggregator
// that accepts site shippers on addr, merges their window snapshots
// (idempotently — delivery is at-least-once), optionally serves
// fleet-wide reports and per-site liveness over HTTP, and on
// SIGINT/SIGTERM drains and emits the merged report — degraded with a
// per-site census when sites are missing, lagging, or lost.
func runAggregate(stdout, stderr io.Writer, addr, expect, dataset, serveAddr string, staleAfter time.Duration, format string) error {
	var sites []string
	for _, s := range strings.Split(expect, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sites = append(sites, s)
		}
	}
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	f := core.NewFleet(core.FleetConfig{Dataset: dataset, ExpectSites: sites, Logf: logf})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	agg := fleet.NewAggregator(ln, f, logf)
	if len(sites) > 0 {
		fmt.Fprintf(stderr, "fleet aggregator listening on %s (expecting sites: %s)\n", ln.Addr(), strings.Join(sites, ", "))
	} else {
		fmt.Fprintf(stderr, "fleet aggregator listening on %s\n", ln.Addr())
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := agg.Serve(); !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(stderr, err)
		}
	}()

	var fsrv *core.FleetServer
	if serveAddr != "" {
		fsrv = core.NewFleetServer(f)
		fsrv.SetStaleThreshold(staleAfter)
		stop, err := serveReports(stderr, serveAddr, fsrv, "fleet reports", "/report/fleet, /report/final")
		if err != nil {
			return err
		}
		defer stop()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	signal.Stop(sigc)
	if fsrv != nil {
		fsrv.SetDraining(true)
	}
	fmt.Fprintln(stderr, "signal: draining — closing shipper sessions, emitting fleet report")
	agg.Close()
	<-served

	if err := printRun(stdout, format, f.WindowReports(), f.Report()); err != nil {
		return err
	}
	if st := f.Status(); !st.FinalReady {
		fmt.Fprintf(stderr, "fleet incomplete: missing sites %v, %d windows lost — the report above carries the degradation census\n",
			st.MissingSites, st.LostWindows)
	}
	return nil
}
