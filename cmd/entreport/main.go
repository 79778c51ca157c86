// Command entreport reproduces every table and figure of "A First Look at
// Modern Enterprise Traffic" (IMC 2005): it generates the five synthetic
// datasets D0–D4, runs the full analysis pipeline over each, and prints
// the paper's tables with measured values.
//
// Usage:
//
//	entreport [-scale 1.0] [-datasets D0,D1,D2,D3,D4] [-subnets N]
//	entreport -datasets D3 -schedule default [-duration 10m] [-window 60s]
//	entreport -datasets D3 -on-error skip -inject "read@50,stall@100:1ms"
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/faults"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
)

// usageError marks a bad invocation; main exits 2 for it (like flag
// parse failures) and 1 for runtime errors.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

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
// stdout takes the reports, stderr the narration.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("entreport", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // main prints a parse error once; -h prints the usage below
	scale := fs.Float64("scale", 1.0, "workload scale factor (volume knob)")
	datasets := fs.String("datasets", "D0,D1,D2,D3,D4", "comma-separated dataset names")
	subnets := fs.Int("subnets", 0, "limit monitored subnets per dataset (0 = all)")
	figdir := fs.String("figdir", "", "directory for per-figure TSV data series (empty = skip)")
	workers := fs.Int("workers", 0, "pipeline shard workers (0 = GOMAXPROCS); results are identical for any count")
	replayWorkers := fs.Int("replay-workers", 0, "application-replay workers (0 = GOMAXPROCS); results are identical for any count")
	window := fs.Duration("window", 0, "cut per-window reports at this interval in packet time (0 = whole-run report only)")
	format := fs.String("format", "text", "report output format: text or json")
	schedule := fs.String("schedule", "",
		`analyze a time-structured schedule streamed straight from the generator (no trace `+
			`materialized) instead of the tap rotation: phase spec or "default"`)
	duration := fs.Duration("duration", 0, "with -schedule, tile the schedule to at least this length")
	onError := fs.String("on-error", "fail",
		`source read-error policy: "fail" aborts on the first error (default); "skip" degrades `+
			`and continues — poisoned records are dropped and the report carries a SourceError census`)
	inject := fs.String("inject", "",
		`deterministic fault injection against every source: "word@N[:arg],..." with the source `+
			`words read@N, short@N:cut, stall@N:dur, torn@N, eof@N — or "rand:seed:count:span" (the `+
			`wire words drop, dup, reorder, netstall count frames sent and are refused here); pair with `+
			`-on-error skip to exercise degraded runs (the census is checked against the manifest)`)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(stderr)
		fs.Usage()
		return nil
	} else if err != nil {
		return &usageError{msg: fmt.Sprintf("%v (entreport -h lists the flags)", err)}
	}
	if *format != "text" && *format != "json" {
		return &usageError{msg: fmt.Sprintf("unknown -format %q (want text or json)", *format)}
	}
	policy, err := pipeline.ParseErrorPolicy(*onError)
	if err != nil {
		return &usageError{msg: err.Error()}
	}
	var injectSched faults.Schedule
	if *inject != "" {
		if injectSched, err = faults.ParseSpec(*inject, faults.Packets); err != nil {
			return &usageError{msg: err.Error()}
		}
	}
	var sched gen.Schedule
	if *schedule != "" {
		if sched, err = gen.ParseSchedule(*schedule); err != nil {
			return &usageError{msg: err.Error()}
		}
		sched = sched.Repeat(*duration)
	} else if *duration > 0 {
		return &usageError{msg: "-duration requires -schedule"}
	}
	selected, err := selectDatasets(*datasets)
	if err != nil {
		return err
	}

	for _, cfg := range selected {
		cfg.Scale = *scale
		if *subnets > 0 && *subnets < len(cfg.Monitored) {
			cfg.Monitored = cfg.Monitored[:*subnets]
		}
		a := core.NewAnalyzer(core.Options{
			Dataset:         cfg.Name,
			KnownScanners:   enterprise.KnownScanners(),
			PayloadAnalysis: cfg.Snaplen >= 1500,
			Workers:         *workers,
			ReplayWorkers:   *replayWorkers,
			Window:          *window,
			OnError:         policy,
		})
		// Both ingest modes route through the injector — dataset traces
		// via a slice source — so a degraded rotation and a degraded
		// stream exercise the same seam. Injectors are per-dataset: each
		// report's census is checked against exactly the faults fired
		// into it.
		in := &faults.Injector{Schedule: injectSched}
		var genDur time.Duration
		var totalPkts int64
		start := time.Now()
		if *schedule != "" {
			// Streamed mode: frames go straight from the generator into
			// the pipeline, so generation and analysis share the clock.
			stream := gen.DatasetStream(cfg, sched)
			src := gen.NewStreamSource(stream)
			name := fmt.Sprintf("%s/subnet%d/scheduled", cfg.Name, stream.Subnet)
			if err := a.AddTraceSource(name, enterprise.SubnetPrefix(stream.Subnet), in.Wrap(src)); err != nil {
				return fmt.Errorf("analyze %s: %w", cfg.Name, err)
			}
			totalPkts = src.Stats().Frames
		} else {
			ds := gen.GenerateDataset(cfg)
			genDur = time.Since(start)
			totalPkts = int64(ds.TotalPackets())
			start = time.Now()
			for _, tr := range ds.Traces {
				name := fmt.Sprintf("%s/subnet%d/tap%d", cfg.Name, tr.Subnet, tr.Tap)
				if err := a.AddTraceSource(name, tr.Prefix, in.Wrap(pcap.NewSliceSource(tr.Packets))); err != nil {
					return fmt.Errorf("analyze %s: %w", cfg.Name, err)
				}
			}
		}
		r := a.Report()
		if policy == pipeline.Degrade {
			se := r.SourceErrors
			if err := in.CheckCensus(stderr, se.Errors, se.LostBytes, se.ByKind); err != nil {
				return err
			}
		}
		if err := core.WriteRun(stdout, *format, a.WindowReports(), r); err != nil {
			return fmt.Errorf("%s report: %w", *format, err)
		}
		if *figdir != "" {
			if err := core.WriteFigureData(*figdir, r); err != nil {
				return fmt.Errorf("figure data: %w", err)
			}
		}
		// Telemetry goes to stdout in text mode (as always) but must not
		// corrupt the machine-readable stream in json mode.
		dst := stdout
		if *format == "json" {
			dst = stderr
		}
		if *schedule != "" {
			fmt.Fprintf(dst, "[%s: streamed %d packets gen→analyze in %.1fs]\n\n",
				cfg.Name, totalPkts, time.Since(start).Seconds())
		} else {
			fmt.Fprintf(dst, "[%s: generated %d packets in %.1fs, analyzed in %.1fs]\n\n",
				cfg.Name, totalPkts, genDur.Seconds(), time.Since(start).Seconds())
		}
	}
	return nil
}

// selectDatasets resolves a -datasets value to configs in D0..D4 order.
// A name that is not a dataset is a usage error, not an empty report.
func selectDatasets(spec string) ([]enterprise.Config, error) {
	want := make(map[string]bool)
	for _, d := range strings.Split(spec, ",") {
		d = strings.TrimSpace(d)
		if _, ok := enterprise.DatasetByName(d); !ok {
			return nil, &usageError{msg: fmt.Sprintf("unknown dataset %q in -datasets (want D0..D4)", d)}
		}
		want[d] = true
	}
	return slices.DeleteFunc(enterprise.AllDatasets(), func(c enterprise.Config) bool { return !want[c.Name] }), nil
}
