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
	if err := run(os.Args[1:], os.Stdout); err != nil {
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
// stdout takes the one line per file written.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("entgen", flag.ExitOnError)
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
	fs.Parse(args)

	if *evasion == "list" {
		for _, sc := range gen.EvasionScenarios() {
			fmt.Fprintf(stdout, "%-18s %s\n", sc.Name, sc.Description)
		}
		return nil
	}

	var cfg enterprise.Config
	found := false
	for _, c := range enterprise.AllDatasets() {
		if c.Name == *dataset {
			cfg, found = c, true
		}
	}
	if !found {
		return &usageError{msg: fmt.Sprintf("unknown dataset %q", *dataset)}
	}
	cfg.Scale = *scale
	if *subnets > 0 && *subnets < len(cfg.Monitored) {
		cfg.Monitored = cfg.Monitored[:*subnets]
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if *evasion != "" {
		scenarios := gen.EvasionScenarios()
		if *evasion != "all" {
			sc, ok := gen.EvasionScenarioByName(*evasion)
			if !ok {
				return &usageError{msg: fmt.Sprintf("unknown evasion scenario %q (try -evasion list)", *evasion)}
			}
			scenarios = []gen.EvasionScenario{sc}
		}
		for _, sc := range scenarios {
			tr := sc.Build()
			name := fmt.Sprintf("evasion-%s.pcap", sc.Name)
			path := filepath.Join(*out, name)
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
		sched := gen.DefaultSchedule()
		if *schedule != "default" {
			var err error
			if sched, err = gen.ParseSchedule(*schedule); err != nil {
				return &usageError{msg: err.Error()}
			}
		}
		if *duration > 0 {
			sched = sched.Repeat(*duration)
		}
		subnet := cfg.Monitored[0]
		name := fmt.Sprintf("%s-scheduled-subnet%02d.pcap", cfg.Name, subnet)
		path := filepath.Join(*out, name)
		// Stream the frames straight to disk: a soak-length schedule never
		// materializes in memory, and the file is byte-identical to the
		// materialized path.
		src := gen.NewStreamSource(gen.StreamConfig{
			Network:  enterprise.NewNetwork(cfg),
			Subnet:   subnet,
			Schedule: sched,
			Snaplen:  cfg.Snaplen,
		})
		var n int64
		err := writePcap(path, func(w io.Writer) (err error) {
			n, err = gen.WriteStream(w, cfg.Snaplen, src)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d packets over %s\n", path, n, sched.Duration())
		return nil
	}
	ds := gen.GenerateDataset(cfg)
	for _, tr := range ds.Traces {
		name := fmt.Sprintf("%s-subnet%02d-tap%d.pcap", cfg.Name, tr.Subnet, tr.Tap)
		path := filepath.Join(*out, name)
		err := writePcap(path, func(w io.Writer) error { return gen.WriteTrace(w, cfg, tr) })
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d packets\n", path, len(tr.Packets))
	}
	return nil
}
