package core

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"enttrace/internal/appproto/cifs"
	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/enterprise"
	"enttrace/internal/fleet"
	"enttrace/internal/gen"
	"enttrace/internal/stats"
)

// TestMergePlanCoversAggregates pins the plan, not only its output:
// every field the epoch aggregate reaches either has a merge rule or is
// declared pairing state. A field added without either — a string, an
// interface, a func, an array — fails here, naming itself, instead of
// panicking at the first window cut.
func TestMergePlanCoversAggregates(t *testing.T) {
	for _, v := range []any{&epochAgg{}, &appAggregates{}} {
		if err := fleet.MergeError(v); err != nil {
			t.Errorf("%T: %v", v, err)
		}
	}
}

// TestMapKernelsCoverAggregates: every map the epoch aggregate reaches,
// pairing state included, is declared a fleet.Map, which the codec has
// a kernel for, so it encodes, folds and merges without reflection; a
// map left plain fails by name. stats.Counter is a codec leaf, whose
// table's index is no map of the aggregate's: the walk stops there. A
// plain map fails the same way on its own.
func TestMapKernelsCoverAggregates(t *testing.T) {
	counter := reflect.TypeFor[stats.Counter]()
	maps := 0
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Map:
			maps++
			if _, err := fleet.Marshal(reflect.New(typ).Interface()); err != nil {
				t.Errorf("%s: %v", path, err)
			}
			walk(typ.Key(), path+"[key]")
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path)
		case reflect.Struct:
			if typ == counter {
				if _, err := fleet.Marshal(stats.NewCounter()); err != nil {
					t.Errorf("%s: %v", path, err)
				}
				return
			}
			for i := range typ.NumField() {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeFor[epochAgg](), "epochAgg")
	if maps < 20 {
		t.Fatalf("%d map types in the aggregate: the walk lost its way", maps)
	}
	plain := new(map[netip.Addr]struct{})
	for name, err := range map[string]error{
		"MergeError": fleet.MergeError(plain),
		"Marshal":    func() error { _, err := fleet.Marshal(plain); return err }(),
		"Check":      fleet.Check[map[netip.Addr]struct{}]([]byte{0}),
	} {
		if err == nil || !strings.Contains(err.Error(), "map[netip.Addr]struct {} has no kernel") {
			t.Errorf("%s of a plain map: %v, want it to name the type", name, err)
		}
	}
}

// pairingFields visits every agg:"pairing" field reachable from v
// through struct fields and pointers.
func pairingFields(v reflect.Value, path string, visit func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			pairingFields(v.Elem(), path, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Tag.Get("agg") == "pairing" {
				visit(path+"."+f.Name, v.Field(i))
			} else {
				pairingFields(v.Field(i), path+"."+f.Name, visit)
			}
		}
	}
}

// pairingMaps identifies the pairing maps reachable from ap, with their
// sizes.
func pairingMaps(ap *appAggregates) map[string][2]uintptr {
	out := make(map[string][2]uintptr)
	pairingFields(reflect.ValueOf(ap), "apps", func(path string, f reflect.Value) {
		if f.Kind() == reflect.Map {
			out[path] = [2]uintptr{f.Pointer(), uintptr(f.Len())}
		}
	})
	return out
}

// TestPairingNeverTravels pins the rule every Merge in this package
// leans on: a cut carries no pairing state — every agg:"pairing" field of
// every cut is nil or empty — and the source keeps its own, the same
// maps holding the same entries, so a query pending at a cut still pairs
// after it.
func TestPairingNeverTravels(t *testing.T) {
	src := newAppAggregates()
	steps, cuts, held := 0, 0, 0
	foldDataset(t, src, func() {
		if steps++; steps%25 != 0 {
			return
		}
		before := pairingMaps(src)
		d := fleet.Cut(src)
		if d == nil {
			return
		}
		cuts++
		pairingFields(reflect.ValueOf(d), "cut", func(path string, f reflect.Value) {
			if !f.IsZero() && (f.Kind() != reflect.Map || f.Len() != 0) {
				t.Errorf("cut %d carries pairing state %s", cuts, path)
			}
		})
		after := pairingMaps(src)
		if !reflect.DeepEqual(before, after) {
			t.Errorf("cut %d changed the source's pairing state:\nbefore %v\n after %v", cuts, before, after)
		}
		for _, m := range after {
			if m[1] > 0 {
				held++
			}
		}
	})
	if cuts < 10 || held == 0 {
		t.Fatalf("%d cuts, pairing state held across %d: the check would be vacuous", cuts, held)
	}
}

// refs records every map and pointer reachable from v through struct
// fields, pointers and map values — not through slices, whose elements
// are records appended whole and never written after.
func refs(v reflect.Value, path string, into map[uintptr]string) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Map:
		if v.IsNil() {
			return
		}
		into[v.Pointer()] = path
		if v.Kind() == reflect.Pointer {
			refs(v.Elem(), path, into)
			return
		}
		for it := v.MapRange(); it.Next(); {
			refs(it.Value(), path+"[]", into)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			refs(v.Field(i), path+"."+v.Type().Field(i).Name, into)
		}
	}
}

// sharesNothing fails unless dst and src reach no map or pointer in
// common.
func sharesNothing(t *testing.T, what string, dst, src any) {
	t.Helper()
	d, s := map[uintptr]string{}, map[uintptr]string{}
	refs(reflect.ValueOf(dst), "dst", d)
	refs(reflect.ValueOf(src), "src", s)
	for p, path := range d {
		if other, ok := s[p]; ok {
			t.Errorf("%s: %s is %s", what, path, other)
		}
	}
}

// TestZeroLengthResponsesBankInTheirWindow is the regression test for a
// cut that left zero-count keys behind: a window whose only RPC and CIFS
// traffic is zero-length responses banks their keys — a "fn": 0 row — in
// that window, and the next window reads none of them.
func TestZeroLengthResponsesBankInTheirWindow(t *testing.T) {
	ap := newAppAggregates()
	key := dcerpc.ChanKey{Conn: 1, Side: dcerpc.SideBoth}
	ap.rpc.Summaries(key, []dcerpc.Summary{{Type: dcerpc.PTBind, Iface: dcerpc.IfSpoolss}})
	if fleet.Cut(ap) != nil {
		t.Fatal("a bind alone banked something")
	}
	ap.rpc.Summaries(key, []dcerpc.Summary{{Type: dcerpc.PTResponse}})
	var p cifs.StreamParser
	p.Init(false, 0)
	p.Data(cifs.Encode(&cifs.Message{Command: cifs.CmdReadAndX, Response: true}))
	p.End()
	ap.cifs.Records(&p, nil)

	window := fleet.Cut(ap)
	if window == nil {
		t.Fatal("a window of zero-length responses cut as empty")
	}
	rep := appsReport(window)
	if _, ok := rep.Windows.RPCBytes["Spoolss/other"]; !ok {
		t.Errorf("window RPC bytes %v: the zero-stub response's key did not bank in its window", rep.Windows.RPCBytes)
	}
	if _, ok := rep.Windows.CIFSBytes[cifs.CatFile]; !ok {
		t.Errorf("window CIFS bytes %v: the zero-length response's key did not bank in its window", rep.Windows.CIFSBytes)
	}
	if ap.rpc.Bytes.Len() != 0 || ap.cifs.Bytes.Len() != 0 {
		t.Error("the cut left zero-count keys behind for a later window")
	}
}

// decodeEpoch decodes one shipped window snapshot, which Fleet.Delta
// only checks (fleet.Check) and its reads fold without decoding: a
// decode is the same fold into a zero aggregate.
func decodeEpoch(payload []byte) (*epochAgg, error) {
	e := new(epochAgg)
	if err := fleet.MergeFrom(e, payload); err != nil {
		return nil, err
	}
	return e, nil
}

// TestUnmarshalOverwrites holds the decode to the codec's one read rule
// over real window snapshots: a decode is a merge into a zero aggregate,
// so nothing a receiver holds leaks into what a fold reads. Folding a
// snapshot into an aggregate that already holds two other windows —
// every component allocated, keys the snapshot lacks — gives the bytes
// of merging its fresh decode into the same, and the fresh decode
// re-encodes to the snapshot's canonical form: bytes that decode and
// re-encode to themselves.
func TestUnmarshalOverwrites(t *testing.T) {
	seeds := mergeSeeds(t)
	if len(seeds) == 0 {
		t.Fatal("the windowed run exported no window snapshots")
	}
	for i, s := range seeds {
		filled := func() *epochAgg {
			e := newEpochAgg()
			for _, p := range s[1:] {
				d, err := decodeEpoch(p)
				if err != nil {
					t.Fatal(err)
				}
				fleet.Merge(e, d)
			}
			return e
		}
		got, want := filled(), filled()
		if held, err := fleet.Marshal(got); err != nil || bytes.Equal(held, s[0]) {
			t.Fatalf("seed %d: the filled aggregate already encodes to the snapshot (%v)", i, err)
		}
		if err := fleet.MergeFrom(got, s[0]); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		fresh, err := decodeEpoch(s[0])
		if err != nil {
			t.Fatal(err)
		}
		canon, err := fleet.Marshal(fresh)
		if err != nil {
			t.Fatal(err)
		}
		fleet.Merge(want, fresh)
		gb, gerr := fleet.Marshal(got)
		wb, werr := fleet.Marshal(want)
		if gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
			t.Errorf("seed %d: folding into a filled aggregate differs from merging the fresh decode into it (%v, %v)", i, gerr, werr)
		}
		again, err := decodeEpoch(canon)
		if err != nil {
			t.Fatal(err)
		}
		if re, err := fleet.Marshal(again); err != nil || !bytes.Equal(re, canon) {
			t.Errorf("seed %d: the decode's canonical form re-encodes to %d bytes, was %d (%v)", i, len(re), len(canon), err)
		}
	}
}

// mergeSeeds returns real window snapshots: a small windowed run's
// exports, in threes.
func mergeSeeds(tb testing.TB) [][3][]byte {
	cfg := enterprise.D3()
	cfg.Scale = 0.05
	cfg.Monitored = cfg.Monitored[:1]
	a := NewAnalyzer(Options{Dataset: "seed", PayloadAnalysis: true, Window: 2 * time.Minute})
	for i, tr := range gen.GenerateDataset(cfg).Traces {
		if err := a.AddTrace(TraceInput{Name: traceName(i), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			tb.Fatal(err)
		}
	}
	exports, err := a.ExportAll()
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][3][]byte
	for i := 0; i+2 < len(exports) && len(seeds) < 8; i += 3 {
		seeds = append(seeds, [3][]byte{exports[i].Payload, exports[i+1].Payload, exports[i+2].Payload})
	}
	return seeds
}

// renderEpoch is what a report of e looks like: its JSON, or the error
// marshalling it gave.
func renderEpoch(e *epochAgg) []byte {
	b, err := MarshalReport(buildReport("fuzz", e, nil))
	if err != nil {
		return []byte("error: " + err.Error())
	}
	return b
}

// FuzzMergeAssociative holds the plan's merge to the algebra the windowed
// and fleet designs rest on, over decoded snapshots: (a⊕b)⊕c and
// a⊕(b⊕c) render identical reports, so do a⊕b and b⊕a, and ∅⊕a renders
// as a does. A
// snapshot that cannot be reported on its own (the decoder checks
// structure, not meaning) says nothing about merging and is skipped.
func FuzzMergeAssociative(f *testing.F) {
	for _, s := range mergeSeeds(f) {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, pa, pb, pc []byte) {
		var in [3]*epochAgg
		for i, p := range [][]byte{pa, pb, pc} {
			e, err := decodeEpoch(p)
			if err != nil || !reportable(e) {
				return
			}
			in[i] = e
		}
		a, b, c := in[0], in[1], in[2]
		fold := func(parts ...*epochAgg) *epochAgg {
			e := newEpochAgg()
			for _, p := range parts {
				fleet.Merge(e, p)
			}
			return e
		}
		if l, r := renderEpoch(fold(fold(a, b), c)), renderEpoch(fold(a, fold(b, c))); !bytes.Equal(l, r) {
			t.Fatalf("(a⊕b)⊕c and a⊕(b⊕c) differ:\n%s\n%s", l, r)
		}
		if l, r := renderEpoch(fold(a, b)), renderEpoch(fold(b, a)); !bytes.Equal(l, r) {
			t.Fatalf("a⊕b and b⊕a differ:\n%s\n%s", l, r)
		}
		if got, want := renderEpoch(fold(a)), renderEpoch(a); !bytes.Equal(got, want) {
			t.Fatalf("∅⊕a renders differently from a:\n%s\n%s", got, want)
		}
	})
}

// reportable reports whether a report can be built from e alone.
func reportable(e *epochAgg) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	renderEpoch(e)
	return true
}

// FuzzMergeFromMatchesMerge holds the fleet's fold off the wire to the
// decode-then-merge it replaced, over window snapshots: Check accepts
// exactly what decodeEpoch accepts, and folding accepted bytes into an
// empty aggregate, a sparse window aggregate (whose nil components decode
// fresh), or one that already holds another snapshot or the same one
// (every key then merges into one the receiver holds) gives the
// fleet.Marshal bytes of merging the decoded snapshot into the same.
func FuzzMergeFromMatchesMerge(f *testing.F) {
	for _, s := range mergeSeeds(f) {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, pa, pb []byte) {
		_, err := decodeEpoch(pa)
		if checkErr := fleet.Check[epochAgg](pa); (err == nil) != (checkErr == nil) {
			t.Fatalf("Check and decode disagree\n  Check: %v\n decode: %v", checkErr, err)
		}
		if err != nil {
			return
		}
		dsts := map[string]func() *epochAgg{"empty": newEpochAgg, "sparse": newWindowAgg}
		for name, held := range map[string][]byte{"holding another": pb, "holding itself": pa} {
			if _, err := decodeEpoch(held); err == nil {
				dsts[name] = func() *epochAgg {
					e, _ := decodeEpoch(held)
					dst := newEpochAgg()
					fleet.Merge(dst, e)
					return dst
				}
			}
		}
		for name, dst := range dsts {
			want, got := dst(), dst()
			a, _ := decodeEpoch(pa)
			fleet.Merge(want, a)
			if err := fleet.MergeFrom(got, pa); err != nil {
				t.Fatalf("%s: MergeFrom refuses what Check accepts: %v", name, err)
			}
			wb, werr := fleet.Marshal(want)
			gb, gerr := fleet.Marshal(got)
			if werr != nil || gerr != nil || !bytes.Equal(gb, wb) {
				t.Fatalf("%s: MergeFrom differs from Merge of the decoded snapshot (%v, %v)", name, gerr, werr)
			}
		}
	})
}
