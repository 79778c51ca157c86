package main

import (
	"io"
	"testing"
	"time"

	"enttrace/internal/pcap"
)

// fakeClock advances one millisecond per reading, so every wall time
// the tap takes is distinct and predictable.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func packetsAt(origin time.Time, offsets ...time.Duration) []*pcap.Packet {
	var pkts []*pcap.Packet
	for _, off := range offsets {
		pkts = append(pkts, &pcap.Packet{Timestamp: origin.Add(off), Data: []byte{0}, OrigLen: 1})
	}
	return pkts
}

func TestTapStampsWindowCrossings(t *testing.T) {
	origin := time.Date(2005, 1, 6, 9, 0, 0, 0, time.UTC)
	// Windows of 60 s from the first packet. The fourth packet passes the
	// end of window 0; the fifth passes windows 1, 2 and 3 at once.
	src := pcap.NewSliceSource(packetsAt(origin, 0, 10*time.Second, 59*time.Second, 60*time.Second, 245*time.Second, 250*time.Second))
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tp := newTap(src)
	tp.now, tp.window = clock.now, 60*time.Second
	for {
		if _, err := tp.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if tp.handed != 6 {
		t.Errorf("handed %d packets, want 6", tp.handed)
	}
	if len(tp.crossed) != 4 {
		t.Fatalf("stamped %d crossings, want 4 (windows 0-3): %v", len(tp.crossed), tp.crossed)
	}
	// The clock is read once per crossing packet and once at EOF.
	first, second := time.Unix(1000, 0).Add(time.Millisecond), time.Unix(1000, 0).Add(2*time.Millisecond)
	for n, want := range []time.Time{first, second, second, second} {
		if !tp.crossed[n].Equal(want) {
			t.Errorf("window %d crossed at %v, want %v", n, tp.crossed[n], want)
		}
	}
	if want := time.Unix(1000, 0).Add(3 * time.Millisecond); !tp.eof.Equal(want) {
		t.Errorf("eof at %v, want %v", tp.eof, want)
	}
}

func TestCloseLags(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	crossed := []time.Time{at(10), at(20)}
	// Three windows emitted; the third's end was never passed by a packet
	// (the trace ended inside the next window), so it counts from EOF.
	emitted := []time.Time{at(100), at(101), at(102)}
	lags := closeLags(crossed, emitted, at(30))
	want := []time.Duration{90 * time.Millisecond, 81 * time.Millisecond, 72 * time.Millisecond}
	for i := range want {
		if lags[i] != want[i] {
			t.Errorf("window %d lag = %v, want %v", i, lags[i], want[i])
		}
	}
}

type countingSource struct {
	pcap.SliceSource
	released int
}

func (c *countingSource) Release(*pcap.Packet) { c.released++ }

func TestTapForwardsReleaseAndSamplesBusyTime(t *testing.T) {
	origin := time.Unix(0, 0)
	offsets := make([]time.Duration, 2*busySample)
	src := &countingSource{SliceSource: *pcap.NewSliceSource(packetsAt(origin, offsets...))}
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tp := newTap(src)
	tp.now, tp.timed = clock.now, true
	var eofs int
	tp.onEOF = func() { eofs++ }
	for {
		p, err := tp.Next()
		if err == io.EOF {
			break
		}
		tp.Release(p)
	}
	if src.released != len(offsets) || eofs != 1 {
		t.Errorf("released %d of %d, saw %d ends of input, want 1", src.released, len(offsets), eofs)
	}
	// Calls 0, 32 and 64 (the EOF) are timed at 1 ms of fake clock each,
	// each standing for busySample calls.
	if want := 3 * busySample * time.Millisecond; tp.busy != want {
		t.Errorf("busy = %v, want %v", tp.busy, want)
	}
}
