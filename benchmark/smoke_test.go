package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeSizes shrink every input so the whole benchmark — all five
// workloads, untraced and traced — runs in a few seconds. The op counts
// stay high enough for each workload's tail percentile to be supported.
var smokeSizes = sizes{
	scale:     0.02,
	soak:      2 * time.Hour,
	sites:     4,
	siteScale: 0.02,
	setups:    1,
	warmOps:   1,
	warmReqs:  50,
	minOps:    9,
	minReqs:   200,
	memReqs:   1000,
	reqBatch:  50,
	probeOps:  1,
}

// TestSmokeEveryWorkload pins the public API the benchmark is frozen
// against: a refactor that breaks one of those seams fails here, in
// `go test ./...`, not when a later change is being measured. It also
// asserts what the benchmark's acceptance rests on: every named metric
// present and finite, no op failed.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 1, 0, false, smokeSizes, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, endToEnd)
			for _, d := range endToEnd {
				// At smoke size the header-only flow table can fit under
				// the heap baseline's noise; every other metric must be
				// positive even here.
				if v := res.Metrics[d.name]; v < 0 || (v == 0 && d.name != "peak_live_heap_mb") {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
				}
			}

			rec := newSpanRec()
			res, err = runWorkload(w, 1, 0, true, smokeSizes, rec)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, perLayer)
			if v := res.Metrics["layers.decode_allocs_per_pkt"]; v != 0 {
				t.Errorf("layers.decode_allocs_per_pkt = %v, want 0", v)
			}
			for _, name := range []string{"fleet.resends", "fleet.reconnects", "fleet.evicted"} {
				if v := res.Metrics[name]; v != 0 {
					t.Errorf("%s = %v on loopback, want 0", name, v)
				}
			}
			ids := map[int]bool{0: true}
			for _, s := range rec.spans {
				ids[s.ID] = true
			}
			for _, s := range rec.spans {
				if !ids[s.Parent] {
					t.Errorf("span %+v names a parent that was never recorded", s)
				}
			}
		})
	}
}

func check(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v (present %v), want a finite number", d.name, v, ok)
		}
	}
}

// TestManifestNamesTheSameMetrics keeps BENCHMARK.json and the tables in
// workloads.go in step: same workloads, same metric names and units, in
// the same order.
func TestManifestNamesTheSameMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", manifestPath))
	if err != nil {
		t.Fatal(err)
	}
	var full struct {
		manifest
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(full.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if full.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, full.Workloads[i].Name, w.name)
		}
	}
	if len(full.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the benchmark has %d", len(full.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if m := full.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m := full.EndToEnd[i]; m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(full.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the benchmark has %d", len(full.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := full.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}
