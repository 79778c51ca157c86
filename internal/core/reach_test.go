package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"enttrace/internal/appproto/http"
	"enttrace/internal/enterprise"
	"enttrace/internal/faults"
	"enttrace/internal/fleet"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
	"enttrace/internal/stats"
)

// TestEveryAccumulatorReachesTheReport holds the analysis to keeping only
// what a report reads. It walks every field of the epoch aggregate's
// graph — through structs and pointers, but for pairing state, which
// never leaves its worker — down to its accumulators: numbers,
// stats.Counter, stats.Dist, maps and slices. Each accumulator the sample
// holds anything in is zeroed in a copy of the sample, and the copy's
// report JSON must differ from the sample's: an accumulator no report
// reads is state every fold and export carries for nothing. Accumulators
// the sample leaves zero say nothing and are logged.
func TestEveryAccumulatorReachesTheReport(t *testing.T) {
	sample := accumulatorSample(t)
	want := renderEpoch(sample)
	var unread, zero []string
	for _, path := range accumulators(sample).paths {
		cp := newEpochAgg()
		fleet.Merge(cp, sample)
		v := accumulators(cp).at[path]
		if !holds(v) {
			zero = append(zero, path)
			continue
		}
		v.SetZero()
		if bytes.Equal(renderEpoch(cp), want) {
			unread = append(unread, path)
		}
	}
	if !bytes.Equal(renderEpoch(sample), want) {
		t.Fatal("zeroing a copy changed the sample: the copy shares state with it")
	}
	if len(zero) > 0 {
		t.Logf("%d accumulators the sample leaves zero: %s", len(zero), strings.Join(zero, ", "))
	}
	for _, path := range unread {
		t.Errorf("%s: zeroing it leaves the report unchanged — no report reads it", path)
	}
}

// accumulatorSample is one aggregate holding D0 and D3 (payload analysis,
// scale 0.2; D0 under a connection cap, for its evictions, D3 aged out
// past a 30 s idle horizon), the evasion scenarios (the hostile-input
// census; again through a failing source, for the degraded-source
// census), and two connections no generated trace has: an NCP one that
// carried keep-alives alone, and an HTTP client that runs automated and
// browses too, so the fan-out's automated exclusion has a client to
// exclude.
func accumulatorSample(t *testing.T) *epochAgg {
	sample := newEpochAgg()
	add := func(a *Analyzer) {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.drainLocked()
		fleet.Merge(sample, foldSlots(a.heldLocked()))
	}
	for _, run := range []struct {
		cfg  enterprise.Config
		opts Options
	}{{enterprise.D0(), Options{MaxConns: 16}}, {enterprise.D3(), Options{IdleEvict: 30 * time.Second}}} {
		cfg, opts := run.cfg, run.opts
		cfg.Scale = 0.2
		opts.Dataset, opts.KnownScanners, opts.PayloadAnalysis = cfg.Name, enterprise.KnownScanners(), true
		a := NewAnalyzer(opts)
		for i, tr := range gen.GenerateDataset(cfg).Traces {
			if err := a.AddTrace(TraceInput{Name: traceName(i), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
				t.Fatal(err)
			}
		}
		add(a)
	}
	// The evasion scenarios run twice: clean, and through a source that
	// fails twice a trace.
	sched, err := faults.ParseSpec("read@5,read@9", faults.Packets)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {OnError: pipeline.Degrade}} {
		opts.Dataset, opts.PayloadAnalysis = "ADV", true
		a := NewAnalyzer(opts)
		for i, sc := range gen.EvasionScenarios() {
			tr := sc.Build()
			var buf bytes.Buffer
			if err := gen.WriteTrace(&buf, enterprise.Config{Snaplen: 65535}, tr); err != nil {
				t.Fatal(err)
			}
			rd, err := pcap.NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var src pcap.PacketSource = rd
			if opts.OnError == pipeline.Degrade {
				src = faults.Wrap(rd, sched)
			}
			if err := a.AddTraceSource(traceName(i), tr.Prefix, src); err != nil {
				t.Fatal(err)
			}
		}
		add(a)
	}
	// An NCP connection that carried keep-alives alone.
	ncpIdle := tcpConn(hostA, hostB, 40001, 524, flows.StateEstablished)
	ncpIdle.KeepAliveRetrans, ncpIdle.OrigBytes = 1, 1
	sample.apps.transportConn(ncpIdle, "NCP")
	sample.apps.markNCPKeepAlive(ncpIdle)
	client, server := hostA, hostB
	sample.apps.http.conn(tcpConn(client, server, 40000, 80, flows.StateEstablished), false,
		[]http.Request{{Method: "GET", UserAgent: "LBNL-Site-Scanner/1.2"}, {Method: "GET", UserAgent: "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)"}},
		[]http.Response{{Status: 200}, {Status: 200}})
	return sample
}

// accumulatorSet is an aggregate's accumulators: their paths in walk
// order, and each one's settable value.
type accumulatorSet struct {
	paths []string
	at    map[string]reflect.Value
}

// accumulators walks e's graph to its accumulators. A path names the
// fields on the way, an embedded struct's fields as the embedder's.
func accumulators(e *epochAgg) accumulatorSet {
	set := accumulatorSet{at: map[string]reflect.Value{}}
	counter, dist := reflect.TypeFor[stats.Counter](), reflect.TypeFor[stats.Dist]()
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch t := v.Type(); {
		case t == counter || t == dist:
		case t.Kind() == reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
			return
		case t.Kind() == reflect.Struct:
			for i := range t.NumField() {
				f := t.Field(i)
				if f.Tag.Get("agg") == "pairing" {
					continue
				}
				sub := path
				if !f.Anonymous {
					sub = strings.TrimPrefix(path+"."+f.Name, ".")
				}
				walk(v.Field(i), sub)
			}
			return
		}
		set.paths = append(set.paths, path)
		set.at[path] = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	walk(reflect.ValueOf(e).Elem(), "")
	return set
}

// holds reports whether the accumulator v holds anything.
func holds(v reflect.Value) bool {
	switch x := v.Addr().Interface().(type) {
	case *stats.Counter:
		return x.Len() > 0 || x.Total() != 0
	case *stats.Dist:
		return x.N() > 0
	}
	switch v.Kind() {
	case reflect.Map, reflect.Slice:
		return v.Len() > 0
	}
	return !v.IsZero()
}
