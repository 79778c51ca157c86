// Command entgen generates the synthetic enterprise datasets as libpcap
// trace files, one file per monitored subnet per tap — the on-disk shape
// of the paper's capture campaign. The traces are ordinary Ethernet pcaps
// readable by any packet tool.
//
// Usage:
//
//	entgen -dataset D3 -out ./traces [-scale 1.0] [-subnets N]
//	entgen -dataset D3 -schedule default [-duration 10m] -out ./traces
//	entgen -evasion all -out ./traces
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
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

// writePcap creates path and runs write over a buffered writer on it.
// pcap.Writer issues two writes per packet — a 16-byte record header,
// then the body — which straight onto an *os.File are two system calls
// per packet, millions per dataset. The first error among write, the
// flush and the close is returned.
func writePcap(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 256<<10)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run is the program: args are the command line after the program name,
// stdout takes the one line per file written, stderr the usage on -h.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("entgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // main prints a parse error once; -h prints the usage below
	dataset := fs.String("dataset", "D0", "dataset name (D0..D4)")
	out := fs.String("out", ".", "output directory")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	subnets := fs.Int("subnets", 0, "limit monitored subnets (0 = all)")
	schedule := fs.String("schedule", "",
		`emit one time-structured trace instead of the tap rotation: comma-separated phases `+
			`kind:duration[:rate] with rate in sessions/minute, e.g. `+
			`"ramp:60s:0-30,burst:60s:90,quiet:60s,steady:2m:18"; "default" uses the built-in day-in-miniature`)
	duration := fs.Duration("duration", 0,
		"with -schedule, tile the schedule to at least this length (soak-sized traces; 0 = emit it once)")
	evasion := fs.String("evasion", "",
		`emit adversarial evasion scenario pcaps instead of the tap rotation: a scenario name, `+
			`"all", or "list" to print the scenario family`)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(stderr)
		fs.Usage()
		return nil
	} else if err != nil {
		return &usageError{msg: fmt.Sprintf("%v (entgen -h lists the flags)", err)}
	}

	if *evasion == "list" {
		for _, sc := range gen.EvasionScenarios() {
			fmt.Fprintf(stdout, "%-18s %s\n", sc.Name, sc.Description)
		}
		return nil
	}
	cfg, ok := enterprise.DatasetByName(*dataset)
	if !ok {
		return &usageError{msg: fmt.Sprintf("unknown dataset %q", *dataset)}
	}
	var scenarios []gen.EvasionScenario
	if *evasion == "all" {
		scenarios = gen.EvasionScenarios()
	} else if *evasion != "" {
		sc, ok := gen.EvasionScenarioByName(*evasion)
		if !ok {
			return &usageError{msg: fmt.Sprintf("unknown evasion scenario %q (try -evasion list)", *evasion)}
		}
		scenarios = []gen.EvasionScenario{sc}
	}
	var sched gen.Schedule
	if *schedule != "" {
		var err error
		if sched, err = gen.ParseSchedule(*schedule); err != nil {
			return &usageError{msg: err.Error()}
		}
	} else if *duration > 0 {
		return &usageError{msg: "-duration requires -schedule"}
	}
	cfg.Scale = *scale
	if *subnets > 0 && *subnets < len(cfg.Monitored) {
		cfg.Monitored = cfg.Monitored[:*subnets]
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if scenarios != nil {
		for _, sc := range scenarios {
			tr := sc.Build()
			path := filepath.Join(*out, fmt.Sprintf("evasion-%s.pcap", sc.Name))
			// Full frames: evasion pcaps carry their corrupt headers and
			// payload bytes intact regardless of the dataset snaplen.
			wcfg := cfg
			wcfg.Snaplen = 65535
			err := writePcap(path, func(w io.Writer) error { return gen.WriteTrace(w, wcfg, tr) })
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: %d packets (%s)\n", path, len(tr.Packets), sc.Description)
		}
		return nil
	}
	if *schedule != "" {
		// Stream the frames straight to disk: a soak-length schedule never
		// materializes in memory, and the file is byte-identical to the
		// materialized path.
		stream := gen.DatasetStream(cfg, sched.Repeat(*duration))
		path := filepath.Join(*out, fmt.Sprintf("%s-scheduled-subnet%02d.pcap", cfg.Name, stream.Subnet))
		src := gen.NewStreamSource(stream)
		var n int64
		err := writePcap(path, func(w io.Writer) (err error) {
			n, err = gen.WriteStream(w, cfg.Snaplen, src)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d packets over %s\n", path, n, stream.Schedule.Duration())
		return nil
	}
	ds := gen.GenerateDataset(cfg)
	for _, tr := range ds.Traces {
		path := filepath.Join(*out, fmt.Sprintf("%s-subnet%02d-tap%d.pcap", cfg.Name, tr.Subnet, tr.Tap))
		err := writePcap(path, func(w io.Writer) error { return gen.WriteTrace(w, cfg, tr) })
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d packets\n", path, len(tr.Packets))
	}
	return nil
}
