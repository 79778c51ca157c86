package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Parent is the id of the span that caused
// it (0 = root); spans of one op share Op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// spanRec keeps spans in memory until the run ends. A nil *spanRec is a
// valid recorder that records nothing, which is how untraced ops run the
// same code path without paying for it.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// nextOp starts a new op id for the spans that follow.
func (r *spanRec) nextOp() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.op++
	r.mu.Unlock()
}

// start opens a span and returns its id and the function that closes it.
func (r *spanRec) start(name string, parent int) (int, func()) {
	if r == nil {
		return 0, func() {}
	}
	begin := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name, StartNs: int64(begin)})
	id := len(r.spans)
	r.mu.Unlock()
	return id, func() {
		end := time.Since(r.t0)
		r.mu.Lock()
		r.spans[id-1].EndNs = int64(end)
		r.mu.Unlock()
	}
}

// add records a span whose interval was measured elsewhere (busy time
// aggregated inside the tap source, zero-length marks).
func (r *spanRec) add(name string, parent int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	begin := start.Sub(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name, StartNs: int64(begin), EndNs: int64(begin + d)})
	r.mu.Unlock()
}

// total sums the durations of one op's spans with this name (op 0 is
// set-up).
func (r *spanRec) total(name string, op int) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.Op == op {
			d += s.dur()
		}
	}
	return d
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover. Children may overlap one another (parallel
// shippers), so the covered part is the union of their intervals clipped
// to the parent, not their sum.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			sum += v.b - v.a
			end = v.b
		} else if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return time.Duration(sum)
}

// printSpanSummary prints, per span name, how many spans were recorded,
// their total time and their total self time: where a traced run's wall
// time sits.
func printSpanSummary(workload string, spans []span) {
	type sum struct {
		n           int
		total, self time.Duration
	}
	self := selfTimes(spans)
	byName := map[string]*sum{}
	var names []string
	for _, s := range spans {
		e := byName[s.Name]
		if e == nil {
			e = &sum{}
			byName[s.Name] = e
			names = append(names, s.Name)
		}
		e.n++
		e.total += s.dur()
		e.self += self[s.ID]
	}
	sort.Strings(names)
	for _, name := range names {
		e := byName[name]
		fmt.Printf("%s span.%s n=%d total_ms=%.3f self_ms=%.3f\n", workload, name, e.n, ms(e.total), ms(e.self))
	}
}

// writeSpans dumps the recorded spans, keyed by workload, as JSON.
func writeSpans(path string, byWorkload map[string][]span) error {
	b, err := json.MarshalIndent(byWorkload, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
