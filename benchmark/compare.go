package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// manifest is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and regression bound.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// manifestPath is relative to the repository root, where the command
// runs.
const manifestPath = "BENCHMARK.json"

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readRuns loads an -out file: per workload and end-to-end metric, the
// value of every untraced run in it.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if r.Traced {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], v)
		}
	}
	return runs, sc.Err()
}

// verdict judges one workload × metric: the relative change of B's
// median against A's in the worsening direction, against the bound.
// Where either side's run-to-run spread is wider than the bound the
// pair is unresolved, not unchanged.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if higherBetter {
		worse = -worse
	}
	for _, xs := range [][]float64{a, b} {
		if s, err := spread(xs); err == nil && s > bound {
			return "unresolved", worse
		}
	}
	if worse > bound {
		return "worse", worse
	}
	return "within", worse
}

// compareFiles prints, per workload × end-to-end metric, each file's
// median and spread and the verdict of B against A. With one file it
// prints that file's medians and spreads alone. It returns 1 when any
// pair is worse.
func compareFiles(pathA, pathB string) int {
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	b := a
	if pathB != "" {
		if b, err = readRuns(pathB); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	show := func(xs []float64) string {
		s, err := spread(xs)
		if err != nil {
			return fmt.Sprintf("%.6g (n=%d)", median(xs), len(xs))
		}
		return fmt.Sprintf("%.6g ±%.1f%% (n=%d)", median(xs), 100*s, len(xs))
	}
	code := 0
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			xa, xb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			if pathB == "" {
				fmt.Printf("%-14s %-20s %-32s %-4s bound %.0f%%\n", w.Name, m.Name, show(xa), m.Unit, 100*m.Bound)
				continue
			}
			v, worse := verdict(xa, xb, m.Better == "higher", m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-14s %-20s %-32s %-32s %-4s %+6.1f%% worse, bound %.0f%%: %s\n",
				w.Name, m.Name, show(xa), show(xb), m.Unit, 100*worse, 100*m.Bound, v)
		}
	}
	return code
}
