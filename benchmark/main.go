// Command benchmark is the repository's one performance benchmark: five
// named workloads over the analysis pipeline, the fleet tier and the
// report server, five end-to-end metrics every workload reports, and a
// traced run that splits each op into per-layer numbers by timing the
// layers' public calls from outside. README.md in this directory is the
// glossary; BENCHMARK.json at the repository root is the contract.
//
//	go run ./benchmark -workload batch-payload -seed 1 -seconds 8 -trace 0
//	go run ./benchmark -compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// width pins the scheduler: the host the baseline was taken on has two
// CPUs, and a wider machine must not silently change what "default
// width" means between two sides of a comparison.
const width = 2

type workloadFlag []string

func (f *workloadFlag) String() string     { return strings.Join(*f, ",") }
func (f *workloadFlag) Set(s string) error { *f = append(*f, s); return nil }

// meta is the noise-hygiene record written beside every result.
type meta struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	Seconds    float64 `json:"seconds"`
}

// load1 is the 1-minute load average, or -1 where the host has none to
// read.
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var v float64
	if _, err := fmt.Sscan(string(b), &v); err != nil {
		return -1
	}
	return v
}

func main() {
	os.Exit(run())
}

func run() int {
	var names workloadFlag
	flag.Var(&names, "workload", "workload to run (repeatable; default: all five)")
	seed := flag.Int64("seed", 1, "input seed, added to enterprise.Config.Seed")
	seconds := flag.Float64("seconds", 10, "length of the measured loop")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced op, probes, per-layer metrics")
	out := flag.String("out", "", "append each result as one JSON line to this file")
	spans := flag.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON")
	compare := flag.String("compare", "", "compare two -out files: -compare A.jsonl B.jsonl (one file: its spreads)")
	flag.Parse()

	if *compare != "" {
		return compareFiles(*compare, flag.Arg(0))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1")
		return 2
	}
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var defs []workloadDef
	for _, n := range names {
		w, ok := workloadByName(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", n)
			return 2
		}
		defs = append(defs, w)
	}

	runtime.GOMAXPROCS(min(width, runtime.NumCPU()))
	recorded := map[string][]span{}
	for _, w := range defs {
		m := meta{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), LoadStart: load1(), Seconds: *seconds}
		var rec *spanRec
		if *trace == 1 {
			rec = newSpanRec()
		}
		res, err := runWorkload(w, *seed, *seconds, *trace == 1, fullSizes, rec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		m.LoadEnd = load1()
		if rec != nil {
			printSpanSummary(w.name, rec.spans)
		}
		if err := report(res, m, *out); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		if rec != nil {
			recorded[w.name] = rec.spans
		}
	}
	if *trace == 1 && *spans != "" {
		if err := writeSpans(*spans, recorded); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return 0
}

// outLine is one line of an -out file.
type outLine struct {
	Meta meta `json:"meta"`
	*result
}

// contractLine is the last line of standard output, the shape the
// driver reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name with its unit — one flat
// `workload metric value unit` line per number — then the result as one
// JSON object, and appends it to the -out file.
func report(res *result, m meta, out string) error {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	fmt.Printf("# %s seed=%d trace=%v %s gomaxprocs=%d numcpu=%d load1=%.2f..%.2f\n",
		res.Workload, res.Seed, res.Traced, m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.LoadStart, m.LoadEnd)
	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is missing or not finite", res.Workload, d.name)
		}
		line.Metrics[d.name] = contractValue{Value: v, Unit: d.unit}
		n := ""
		if c, ok := res.N[d.name]; ok {
			n = fmt.Sprintf(" n=%d", c)
		}
		fmt.Printf("%s %s %.6g %s%s\n", res.Workload, d.name, v, d.unit, n)
	}
	names := make([]string, 0, len(res.Quartiles))
	for name := range res.Quartiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q := res.Quartiles[name]
		fmt.Printf("%s %s.quartiles %.6g %.6g %.6g ms\n", res.Workload, name, q[0], q[1], q[2])
	}
	for _, d := range defs {
		if v, ok := res.Raw[d.name]; ok {
			fmt.Printf("%s %s.raw %.6g %s\n", res.Workload, d.name, v, d.unit)
		}
	}
	if v, ok := res.Raw["calibration_ms"]; ok {
		fmt.Printf("%s host.calibration_ms %.6g ms (times above are scaled to a %v loop)\n", res.Workload, v, refCalibration)
	}
	fmt.Printf("%s ops %d count\n%s failed_ops %d count\n%s failed_share %.6g ratio\n",
		res.Workload, res.Attempted, res.Workload, res.Failed, res.Workload, float64(res.Failed)/float64(res.Attempted))

	if out != "" {
		b, err := json.Marshal(outLine{Meta: m, result: res})
		if err != nil {
			return err
		}
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
