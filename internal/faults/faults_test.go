package faults

import (
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"enttrace/internal/pcap"
)

// mkPackets builds n packets of size data bytes each.
func mkPackets(n, size int) []*pcap.Packet {
	pkts := make([]*pcap.Packet, n)
	for i := range pkts {
		pkts[i] = &pcap.Packet{
			Timestamp: time.Unix(1000, 0).Add(time.Duration(i) * time.Millisecond),
			Data:      make([]byte, size),
			OrigLen:   size,
		}
	}
	return pkts
}

// drain consumes src to the end, returning delivered packets and the
// injected errors in arrival order. Any non-EOF, non-injected error is
// fatal.
func drain(t *testing.T, src *Source) (pkts []*pcap.Packet, errs []*Fired) {
	t.Helper()
	for {
		p, err := src.Next()
		if err == nil {
			pkts = append(pkts, p)
			continue
		}
		if err == io.EOF {
			return pkts, errs
		}
		fe, ok := err.(*Fired)
		if !ok {
			t.Fatalf("unexpected non-injected error: %v", err)
		}
		errs = append(errs, fe)
	}
}

func TestParseSpecExplicit(t *testing.T) {
	for _, tc := range []struct {
		spec string
		on   Ordinal
		want []Event
	}{
		{"read@100, short@250:40, stall@300:50ms, torn@500, eof@800", Packets, []Event{
			{Kind: ReadError, At: 100},
			{Kind: ShortRead, At: 250, Arg: 40},
			{Kind: Stall, At: 300, Arg: int64(50 * time.Millisecond)},
			{Kind: Torn, At: 500},
			{Kind: EarlyEOF, At: 800},
		}},
		{"drop@1,dup@3,reorder@4,netstall@2:1ms", Sends, []Event{
			{Kind: ConnDrop, At: 1},
			{Kind: DupFrame, At: 3},
			{Kind: ReorderFrame, At: 4},
			{Kind: NetStall, At: 2, Arg: int64(time.Millisecond)},
		}},
	} {
		s, err := ParseSpec(tc.spec, tc.on)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Events, tc.want) {
			t.Errorf("%q: events = %+v, want %+v", tc.spec, s.Events, tc.want)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec("short@10,stall@20", Packets)
	if err != nil {
		t.Fatal(err)
	}
	if s.Events[0].Arg != 32 {
		t.Errorf("short default cut = %d, want 32", s.Events[0].Arg)
	}
	if d := time.Duration(s.Events[1].Arg); d != 10*time.Millisecond {
		t.Errorf("stall default delay = %v, want 10ms", d)
	}
	w, err := ParseSpec("netstall@20", Sends)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(w.Events[0].Arg); d != 10*time.Millisecond {
		t.Errorf("netstall default delay = %v, want 10ms", d)
	}
}

func TestParseSpecRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",                      // empty
		"read",                  // no index
		"read@-1",               // negative index
		"read@x",                // non-numeric index
		"short@5:x",             // bad cut
		"short@5:-1",            // negative cut
		"stall@5:bogus",         // bad duration
		"torn@5:9",              // torn takes no argument
		"eof@5:9",               // eof takes no argument
		"bogus@1",               // unknown kind
		"rand:1:2",              // missing span
		"rand:1:0:10",           // zero count
		"rand:1:2:-5",           // negative span
		"read@1,,bogus@2",       // bad event after blank
		"drop@3",                // a wire kind on a source
		"netstall@3:1ms",        // likewise
		"netrand:1:2:10",        // the wire's random form on a source
		"rand:1:100000000000:5", // count past the bound
	} {
		if _, err := ParseSpec(spec, Packets); err == nil {
			t.Errorf("ParseSpec(%q, Packets) accepted, want error", spec)
		}
	}
	for _, spec := range []string{"read@3", "stall@3", "rand:1:2:10", "drop@3:9", "reorder@x", "netrand:1:0:10"} {
		if _, err := ParseSpec(spec, Sends); err == nil {
			t.Errorf("ParseSpec(%q, Sends) accepted, want error", spec)
		}
	}
}

// TestScheduleFiresAtExactOffsets walks a mixed schedule and pins the
// manifest contract: Fired.At is the delivered-packet offset (what the
// pipeline census records), short reads truncate and then deliver, and
// a torn record kills the stream.
func TestScheduleFiresAtExactOffsets(t *testing.T) {
	sched := Schedule{Events: []Event{
		{Kind: ReadError, At: 2},
		{Kind: ShortRead, At: 5, Arg: 40},
		{Kind: Torn, At: 8},
	}}
	src := Wrap(pcap.NewSliceSource(mkPackets(10, 100)), sched)
	pkts, errs := drain(t, src)

	// Records 0,1 pass; record 2 is dropped (read error); 3,4 pass;
	// record 5 is truncated and delivered after its error; 6,7 pass;
	// record 8 is torn and ends the stream. Record 9 is never read.
	if len(pkts) != 7 {
		t.Fatalf("delivered %d packets, want 7", len(pkts))
	}
	if got := len(pkts[4].Data); got != 40 {
		t.Errorf("short-read record kept %d bytes, want 40", got)
	}

	wantErrs := []*Fired{
		{Kind: ReadError, At: 2, Lost: 100},
		{Kind: ShortRead, At: 4, Lost: 60},
		{Kind: Torn, At: 7, Lost: 100},
	}
	if !reflect.DeepEqual(errs, wantErrs) {
		t.Errorf("errors = %+v, want %+v", errs, wantErrs)
	}
	wantFired := []Fired{
		{Kind: ReadError, At: 2, Lost: 100},
		{Kind: ShortRead, At: 4, Lost: 60},
		{Kind: Torn, At: 7, Lost: 100},
	}
	if !reflect.DeepEqual(src.Manifest(), wantFired) {
		t.Errorf("manifest = %+v, want %+v", src.Manifest(), wantFired)
	}

	exp := src.Expected()
	if exp.Errors != 3 || exp.LostBytes != 260 || !exp.Terminal {
		t.Errorf("expected census = %+v", exp)
	}
	if exp.FirstIndex != 2 || exp.LastIndex != 7 {
		t.Errorf("census offsets %d..%d, want 2..7", exp.FirstIndex, exp.LastIndex)
	}
	for _, k := range []Kind{ReadError, ShortRead, Torn} {
		if exp.ByKind[string(k)] != 1 {
			t.Errorf("ByKind[%s] = %d, want 1", k, exp.ByKind[string(k)])
		}
	}

	// The stream stays dead after the terminal fault.
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("post-terminal Next: %v, want io.EOF", err)
	}
}

func TestStallAndEarlyEOF(t *testing.T) {
	sched := Schedule{Events: []Event{
		{Kind: Stall, At: 1, Arg: int64(5 * time.Millisecond)},
		{Kind: EarlyEOF, At: 3},
	}}
	src := Wrap(pcap.NewSliceSource(mkPackets(10, 60)), sched)
	var slept []time.Duration
	src.SetSleep(func(d time.Duration) { slept = append(slept, d) })

	pkts, errs := drain(t, src)
	if len(pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(pkts))
	}
	if !reflect.DeepEqual(slept, []time.Duration{5 * time.Millisecond}) {
		t.Errorf("stall slept %v", slept)
	}
	if len(errs) != 1 || errs[0].Kind != EarlyEOF || errs[0].At != 3 {
		t.Errorf("errors = %+v, want one early-eof at 3", errs)
	}
	exp := src.Expected()
	if exp.Errors != 1 || exp.Stalls != 1 || exp.StallTime != 5*time.Millisecond || !exp.Terminal {
		t.Errorf("expected census = %+v", exp)
	}
}

// TestEventsPastEndNeverFire pins the manifest-honesty contract: events
// the stream never reaches — beyond the last record, or consuming
// events whose target record does not exist — are absent from the
// manifest, so Expected() stays comparable to a real run's census.
func TestEventsPastEndNeverFire(t *testing.T) {
	sched := Schedule{Events: []Event{
		{Kind: ReadError, At: 5}, // fires at EOF: no record to consume
		{Kind: Torn, At: 100},    // far past the end
	}}
	src := Wrap(pcap.NewSliceSource(mkPackets(5, 60)), sched)
	pkts, errs := drain(t, src)
	if len(pkts) != 5 || len(errs) != 0 {
		t.Fatalf("delivered %d packets with %d errors, want 5 and 0", len(pkts), len(errs))
	}
	if got := src.Manifest(); len(got) != 0 {
		t.Errorf("manifest = %+v, want empty", got)
	}
	exp := src.Expected()
	if exp.Errors != 0 || exp.FirstIndex != -1 || exp.LastIndex != -1 {
		t.Errorf("expected census = %+v, want empty", exp)
	}
}

func TestShortReadAtOrBelowCutLosesNothing(t *testing.T) {
	sched := Schedule{Events: []Event{{Kind: ShortRead, At: 0, Arg: 64}}}
	src := Wrap(pcap.NewSliceSource(mkPackets(2, 20)), sched)
	pkts, errs := drain(t, src)
	if len(pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(pkts))
	}
	if len(pkts[0].Data) != 20 {
		t.Errorf("record truncated to %d bytes, want untouched 20", len(pkts[0].Data))
	}
	if len(errs) != 1 || errs[0].Lost != 0 {
		t.Errorf("errors = %+v, want one zero-loss short read", errs)
	}
}

// TestErrorClassification pins that injected errors drive the
// pipeline's classifier exactly like a native source fault.
func TestErrorClassification(t *testing.T) {
	for _, tc := range []struct {
		kind        Kind
		recoverable bool
	}{
		{ReadError, true},
		{ShortRead, true},
		{Torn, false},
		{EarlyEOF, false},
	} {
		e := &Fired{Kind: tc.kind, Lost: 7}
		kind, rec := pcap.ClassifyReadError(e)
		if kind != string(tc.kind) || rec != tc.recoverable {
			t.Errorf("classify(%s) = (%s, %v), want (%s, %v)", tc.kind, kind, rec, tc.kind, tc.recoverable)
		}
		if pcap.FaultLostBytes(e) != 7 {
			t.Errorf("FaultLostBytes(%s) = %d, want 7", tc.kind, pcap.FaultLostBytes(e))
		}
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	a := Random(Packets, 42, 10, 1000)
	b := Random(Packets, 42, 10, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different schedules")
	}
	parsed, err := ParseSpec("rand:42:10:1000", Packets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, a) {
		t.Error("rand spec differs from Random with the same parameters")
	}
	for _, ev := range a.Events {
		if ev.At < 0 || ev.At >= 1000 {
			t.Errorf("event index %d outside span", ev.At)
		}
		if ev.Kind == Torn || ev.Kind == EarlyEOF {
			t.Errorf("random schedule drew terminal kind %s", ev.Kind)
		}
	}
	// Note 42|1 == 43|1: the xorshift zero-guard ORs the low bit, so
	// adjacent even/odd seeds intentionally alias.
	if c := Random(Packets, 44, 10, 1000); reflect.DeepEqual(c, a) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestCheckCensus pins the check both binaries run after a degraded
// run: the manifest is summed over every wrapped source, stalls count
// for nothing, and totals alone do not pass when the kinds differ.
func TestCheckCensus(t *testing.T) {
	in := &Injector{Schedule: Schedule{Events: []Event{
		{Kind: ReadError, At: 2},
		{Kind: Stall, At: 3},
		{Kind: ShortRead, At: 5, Arg: 40},
	}}}
	if err := in.CheckCensus(io.Discard, 4, 0, nil); err != nil {
		t.Errorf("an injector that wrapped nothing checked a census: %v", err)
	}
	for range 2 {
		src := in.Wrap(pcap.NewSliceSource(mkPackets(10, 100))).(*Source)
		src.SetSleep(func(time.Duration) {})
		drain(t, src)
	}
	// Per source: one whole 100-byte record and one 60-byte tail.
	good := map[string]int64{"read-error": 2, "short-read": 2}
	var line strings.Builder
	if err := in.CheckCensus(&line, 4, 320, good); err != nil {
		t.Errorf("matching census rejected: %v", err)
	}
	if want := "fault census: report matches injected manifest (4 errors, 320 bytes lost)\n"; line.String() != want {
		t.Errorf("match line %q, want %q", line.String(), want)
	}
	if src := (&Injector{}).Wrap(pcap.NewSliceSource(nil)); reflect.TypeOf(src) != reflect.TypeOf(pcap.NewSliceSource(nil)) {
		t.Errorf("an empty schedule wrapped its source in %T", src)
	}
	for name, c := range map[string]struct {
		errors, lost int64
		byKind       map[string]int64
	}{
		"one source's worth": {2, 160, map[string]int64{"read-error": 1, "short-read": 1}},
		"bytes off":          {4, 319, good},
		"kinds swapped":      {4, 320, map[string]int64{"read-error": 3, "short-read": 1}},
		"extra kind":         {4, 320, map[string]int64{"read-error": 2, "short-read": 2, "stall": 0}},
	} {
		err := in.CheckCensus(io.Discard, c.errors, c.lost, c.byKind)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		want := fmt.Sprintf("fault census: report (%d errors, %d bytes lost) does not match injected manifest (4 errors, 320 bytes lost)", c.errors, c.lost)
		if err.Error() != want {
			t.Errorf("%s: error text %q, want %q", name, err, want)
		}
	}
}

// TestRandomDrawsUnchanged pins the schedules the seeded random forms
// draw for every seed the tests use: a change to the grammar table's
// order or to a row's draw moves every one of them. The digests were
// taken when the source and wire draws were still two routines.
func TestRandomDrawsUnchanged(t *testing.T) {
	digest := func(on Ordinal, seeds []uint64, count int, span int64) string {
		h := sha256.New()
		for _, seed := range seeds {
			for _, e := range Random(on, seed, count, span).Events {
				fmt.Fprintf(h, "%s@%d:%d\n", e.Kind, e.At, e.Arg)
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))[:16]
	}
	var sweep []uint64 // the fleet shipper's random-schedule sweep
	for seed := range uint64(200) {
		sweep = append(sweep, seed)
	}
	for _, tc := range []struct {
		on    Ordinal
		seeds []uint64
		count int
		span  int64
		want  string
	}{
		{Packets, []uint64{7}, 40, 8000, "f43ea788cd7e1b4e"},
		{Packets, []uint64{99}, 12, 4000, "6a07888e2e834113"},
		{Packets, []uint64{42}, 10, 1000, "f976b82940f06094"},
		{Packets, []uint64{44}, 10, 1000, "adcb7c65ea4118ff"},
		{Sends, []uint64{11}, 5, 20, "9ed4473e171e24df"},
		{Sends, []uint64{23}, 5, 20, "4e1b14101e3773a3"},
		{Sends, []uint64{7}, 5, 100, "81814253f301fd40"},
		{Sends, sweep, 5, 20, "9e37d03445370993"},
	} {
		if got := digest(tc.on, tc.seeds, tc.count, tc.span); got != tc.want {
			t.Errorf("%s seeds %v count %d span %d: digest %s, want %s", randForm[tc.on], tc.seeds, tc.count, tc.span, got, tc.want)
		}
	}
}

// FuzzParseSpec pins that no spec panics the parser on either seam, and
// that everything it accepts is an event the seam can fire: a kind of
// the grammar that counts the seam's ordinal, a non-negative ordinal
// and argument.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"read@100, short@250:40, stall@300:50ms, torn@500, eof@800",
		"drop@1,dup@3,reorder@4,netstall@2:1ms",
		"rand:42:10:1000", "netrand:11:5:20", "short@5:-1", "stall@1:-5s", "@", "rand:::",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, on := range []Ordinal{Packets, Sends} {
			s, err := ParseSpec(spec, on)
			if err != nil {
				continue
			}
			for _, ev := range s.Events {
				i := slices.IndexFunc(grammar, func(r rule) bool { return r.kind == ev.Kind })
				if i < 0 || grammar[i].on != on || ev.At < 0 || ev.Arg < 0 {
					t.Fatalf("ParseSpec(%q, %s) accepted %+v", spec, on, ev)
				}
			}
		}
	})
}
