package pipeline

import (
	"bytes"
	"sync/atomic"
	"testing"

	"enttrace/internal/faults"
	"enttrace/internal/pcap"
)

// TestDegradeRecoverableFoldsCensus injects recoverable faults and pins
// the Degrade contract: the run finishes with a nil error, the poisoned
// record is the only loss, and the census matches the injector's
// manifest — at one worker and many.
func TestDegradeRecoverableFoldsCensus(t *testing.T) {
	pkts := testTrace(t)
	if len(pkts) > 400 {
		pkts = pkts[:400]
	}
	sched := faults.Schedule{Events: []faults.Event{
		{Kind: faults.ReadError, At: 50},
		{Kind: faults.ShortRead, At: 120, Arg: 20},
	}}
	for _, workers := range []int{1, 4} {
		var cnt atomic.Int64
		src := faults.Wrap(pcap.NewSliceSource(pkts), sched)
		res, err := Run(src, Config{Workers: workers, OnError: Degrade, ErrCounter: &cnt})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// The read error drops one record; the short read truncates but
		// still delivers.
		if want := int64(len(pkts) - 1); res.Packets != want {
			t.Errorf("workers=%d: packets = %d, want %d", workers, res.Packets, want)
		}
		if len(res.SourceErrors) != 2 {
			t.Fatalf("workers=%d: census = %+v, want 2 entries", workers, res.SourceErrors)
		}
		exp := src.Expected()
		if got := res.SourceErrors[0]; got.Kind != "read-error" || got.Index != exp.FirstIndex || got.Terminal {
			t.Errorf("workers=%d: first census entry %+v vs manifest first index %d", workers, got, exp.FirstIndex)
		}
		if got := res.SourceErrors[1]; got.Kind != "short-read" || got.Index != exp.LastIndex || got.Terminal {
			t.Errorf("workers=%d: second census entry %+v vs manifest last index %d", workers, got, exp.LastIndex)
		}
		var lost int64
		for _, se := range res.SourceErrors {
			lost += se.Lost
		}
		if lost != exp.LostBytes {
			t.Errorf("workers=%d: census lost %d bytes, manifest %d", workers, lost, exp.LostBytes)
		}
		if cnt.Load() != 2 {
			t.Errorf("workers=%d: live error counter = %d, want 2", workers, cnt.Load())
		}
		if res.Stopped {
			t.Errorf("workers=%d: Stopped set on an unstopped run", workers)
		}
	}
}

// TestDegradeTerminalEndsTraceEarly: a torn record under Degrade ends
// the trace cleanly at the fault, with the packets before it analyzed
// and the terminal error folded, not returned.
func TestDegradeTerminalEndsTraceEarly(t *testing.T) {
	pkts := testTrace(t)
	if len(pkts) > 300 {
		pkts = pkts[:300]
	}
	sched := faults.Schedule{Events: []faults.Event{{Kind: faults.Torn, At: 100}}}
	for _, workers := range []int{1, 4} {
		src := faults.Wrap(pcap.NewSliceSource(pkts), sched)
		res, err := Run(src, Config{Workers: workers, OnError: Degrade})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Packets != 100 {
			t.Errorf("workers=%d: packets = %d, want 100", workers, res.Packets)
		}
		if len(res.SourceErrors) != 1 || !res.SourceErrors[0].Terminal || res.SourceErrors[0].Kind != "torn-record" {
			t.Errorf("workers=%d: census = %+v, want one terminal torn-record", workers, res.SourceErrors)
		}
	}
}

// TestFailFastStillAborts pins that the default policy is untouched by
// the degrade machinery: the first injected error comes back to the
// caller and no census is built.
func TestFailFastStillAborts(t *testing.T) {
	pkts := testTrace(t)
	if len(pkts) > 300 {
		pkts = pkts[:300]
	}
	sched := faults.Schedule{Events: []faults.Event{{Kind: faults.ReadError, At: 50}}}
	src := faults.Wrap(pcap.NewSliceSource(pkts), sched)
	res, err := Run(src, Config{Workers: 4})
	if err == nil {
		t.Fatal("FailFast returned nil error on an injected fault")
	}
	if res == nil || res.Packets != 50 {
		t.Fatalf("FailFast drained result = %+v, want 50 packets", res)
	}
	if len(res.SourceErrors) != 0 {
		t.Errorf("FailFast built a census: %+v", res.SourceErrors)
	}
}

// TestDegradeRealTornPcap drives the policy through a genuine truncated
// pcap stream — no injector — so the classifier's io.ErrUnexpectedEOF
// mapping is exercised end to end.
func TestDegradeRealTornPcap(t *testing.T) {
	var pkts []*pcap.Packet
	for _, p := range testTrace(t) {
		cp := *p
		cp.Timestamp = p.Timestamp.Truncate(1000)
		pkts = append(pkts, &cp)
	}
	raw := pcapBytes(t, pkts)
	rd, err := pcap.NewReader(bytes.NewReader(raw[:len(raw)-7]))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(rd, Config{Workers: 2, OnError: Degrade})
	if err != nil {
		t.Fatalf("Degrade returned error on torn pcap: %v", err)
	}
	if want := int64(len(pkts) - 1); res.Packets != want {
		t.Errorf("packets = %d, want %d (all but the torn final record)", res.Packets, want)
	}
	if len(res.SourceErrors) != 1 || res.SourceErrors[0].Kind != "torn-record" || !res.SourceErrors[0].Terminal {
		t.Fatalf("census = %+v, want one terminal torn-record", res.SourceErrors)
	}
	if res.SourceErrors[0].Index != int64(len(pkts)-1) {
		t.Errorf("census index = %d, want %d", res.SourceErrors[0].Index, len(pkts)-1)
	}
}

// countingSource counts delivered packets and fires a callback at the
// nth, the seam the stop test uses to request a stop at an exact point.
type countingSource struct {
	inner Source
	n     int64
	at    int64
	fire  func()
}

func (c *countingSource) Next() (*pcap.Packet, error) {
	p, err := c.inner.Next()
	if err == nil {
		c.n++
		if c.n == c.at {
			c.fire()
		}
	}
	return p, err
}

// TestStoppedDrainsCleanly: the Stopped hook ends the run after exactly
// the packets delivered so far, drains them, and marks the result.
func TestStoppedDrainsCleanly(t *testing.T) {
	pkts := testTrace(t)
	if len(pkts) > 500 {
		pkts = pkts[:500]
	}
	for _, workers := range []int{1, 4} {
		var stop atomic.Bool
		src := &countingSource{inner: pcap.NewSliceSource(pkts), at: 100, fire: func() { stop.Store(true) }}
		res, err := Run(src, Config{Workers: workers, Stopped: stop.Load})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Stopped {
			t.Errorf("workers=%d: Stopped not set", workers)
		}
		// The stop flag rises as packet 100 is delivered; the router's
		// poll before the next read ends the run there.
		if res.Packets != 100 {
			t.Errorf("workers=%d: packets = %d, want 100", workers, res.Packets)
		}
		var conns int
		for _, s := range res.Shards {
			conns += len(s.Conns)
		}
		if conns == 0 {
			t.Errorf("workers=%d: no connections drained from the stopped run", workers)
		}
	}
}
