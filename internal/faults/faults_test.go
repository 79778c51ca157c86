package faults

import (
	"fmt"
	"io"
	"reflect"
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
func drain(t *testing.T, src *Source) (pkts []*pcap.Packet, errs []*Error) {
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
		fe, ok := err.(*Error)
		if !ok {
			t.Fatalf("unexpected non-injected error: %v", err)
		}
		errs = append(errs, fe)
	}
}

func TestParseSpecExplicit(t *testing.T) {
	s, err := ParseSpec("read@100, short@250:40, stall@300:50ms, torn@500, eof@800")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: ReadError, Index: 100},
		{Kind: ShortRead, Index: 250, Cut: 40},
		{Kind: Stall, Index: 300, Delay: 50 * time.Millisecond},
		{Kind: Torn, Index: 500},
		{Kind: EarlyEOF, Index: 800},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Errorf("events = %+v, want %+v", s.Events, want)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec("short@10,stall@20")
	if err != nil {
		t.Fatal(err)
	}
	if s.Events[0].Cut != 32 {
		t.Errorf("short default cut = %d, want 32", s.Events[0].Cut)
	}
	if s.Events[1].Delay != 10*time.Millisecond {
		t.Errorf("stall default delay = %v, want 10ms", s.Events[1].Delay)
	}
}

func TestParseSpecRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",                // empty
		"read",            // no index
		"read@-1",         // negative index
		"read@x",          // non-numeric index
		"short@5:x",       // bad cut
		"stall@5:bogus",   // bad duration
		"torn@5:9",        // torn takes no argument
		"eof@5:9",         // eof takes no argument
		"bogus@1",         // unknown kind
		"rand:1:2",        // missing span
		"rand:1:0:10",     // zero count
		"rand:1:2:-5",     // negative span
		"read@1,,bogus@2", // bad event after blank
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", spec)
		}
	}
}

// TestScheduleFiresAtExactOffsets walks a mixed schedule and pins the
// manifest contract: Fired.At is the delivered-packet offset (what the
// pipeline census records), short reads truncate and then deliver, and
// a torn record kills the stream.
func TestScheduleFiresAtExactOffsets(t *testing.T) {
	sched := Schedule{Events: []Event{
		{Kind: ReadError, Index: 2},
		{Kind: ShortRead, Index: 5, Cut: 40},
		{Kind: Torn, Index: 8},
	}}
	src := Wrap(pcap.NewSliceSource(mkPackets(10, 100)), sched)
	pkts, errs := drain(t, src)

	// Records 0,1 pass; record 2 is dropped (read error); 3,4 pass;
	// record 5 is truncated and delivered after its error; 6,7 pass;
	// record 8 is torn and ends the stream. Record 9 is never read.
	if len(pkts) != 7 {
		t.Fatalf("delivered %d packets, want 7", len(pkts))
	}
	if src.PacketsDelivered() != 7 {
		t.Errorf("PacketsDelivered = %d, want 7", src.PacketsDelivered())
	}
	if got := len(pkts[4].Data); got != 40 {
		t.Errorf("short-read record kept %d bytes, want 40", got)
	}

	wantErrs := []*Error{
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
		{Kind: Stall, Index: 1, Delay: 5 * time.Millisecond},
		{Kind: EarlyEOF, Index: 3},
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
		{Kind: ReadError, Index: 5}, // fires at EOF: no record to consume
		{Kind: Torn, Index: 100},    // far past the end
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
	sched := Schedule{Events: []Event{{Kind: ShortRead, Index: 0, Cut: 64}}}
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
		e := &Error{Kind: tc.kind, Lost: 7}
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
	a := RandomSchedule(42, 10, 1000)
	b := RandomSchedule(42, 10, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different schedules")
	}
	parsed, err := ParseSpec("rand:42:10:1000")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, a) {
		t.Error("rand spec differs from RandomSchedule with the same parameters")
	}
	for _, ev := range a.Events {
		if ev.Index < 0 || ev.Index >= 1000 {
			t.Errorf("event index %d outside span", ev.Index)
		}
		if ev.Kind == Torn || ev.Kind == EarlyEOF {
			t.Errorf("random schedule drew terminal kind %s", ev.Kind)
		}
	}
	// Note 42|1 == 43|1: the xorshift zero-guard ORs the low bit, so
	// adjacent even/odd seeds intentionally alias.
	if c := RandomSchedule(44, 10, 1000); reflect.DeepEqual(c, a) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestLimitDeliversExactlyN(t *testing.T) {
	src := Limit(pcap.NewSliceSource(mkPackets(10, 60)), 4)
	var n int
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Errorf("delivered %d packets, want 4", n)
	}
}

// TestCheckCensus pins the check both binaries run after a degraded
// run: the manifest is summed over every wrapped source, stalls count
// for nothing, and totals alone do not pass when the kinds differ.
func TestCheckCensus(t *testing.T) {
	in := &Injector{Schedule: Schedule{Events: []Event{
		{Kind: ReadError, Index: 2},
		{Kind: Stall, Index: 3},
		{Kind: ShortRead, Index: 5, Cut: 40},
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
