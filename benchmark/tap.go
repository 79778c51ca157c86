package main

import (
	"io"
	"time"

	"enttrace/internal/pcap"
)

// tap sits between a packet source and the analyzer's ingest seam and
// observes, from outside the program, what an operator at that seam
// could: when the event-time watermark passed each window's end, when
// the source ran dry and how long the source itself was busy. It
// forwards Release so pooled sources keep recycling.
type tap struct {
	src pcap.PacketSource
	rel pcap.Releaser
	now func() time.Time

	handed int64
	// eof is the wall time Next reported the end of the trace: every
	// packet the trace's results depend on has been handed over.
	eof time.Time

	// window > 0 turns on watermark tracking: crossed[n] is the wall time
	// the tap handed over the first packet whose timestamp is at or past
	// the end of window n. Windows are aligned to the first packet, the
	// analyzer's own rule when no origin is pinned.
	window  time.Duration
	nextEnd time.Time
	crossed []time.Time

	// onEOF, when set, is called when the source runs dry: the memory
	// op reads the heap there, when everything the trace buffers is
	// resident.
	onEOF func()

	// timed estimates the wall time spent inside the wrapped source's
	// Next (the traced op's pcap.source span) by timing one call in
	// busySample and scaling: timing every call costs more than the call.
	timed bool
	busy  time.Duration
}

const busySample = 32

func newTap(src pcap.PacketSource) *tap {
	t := &tap{src: src, now: time.Now}
	t.rel, _ = src.(pcap.Releaser)
	return t
}

// Next implements pcap.PacketSource.
func (t *tap) Next() (*pcap.Packet, error) {
	var p *pcap.Packet
	var err error
	if t.timed && t.handed%busySample == 0 {
		begin := t.now()
		p, err = t.src.Next()
		t.busy += t.now().Sub(begin) * busySample
	} else {
		p, err = t.src.Next()
	}
	if err != nil {
		if err == io.EOF {
			t.eof = t.now()
			if t.onEOF != nil {
				t.onEOF()
			}
		}
		return p, err
	}
	if t.window > 0 {
		t.advance(p.Timestamp)
	}
	t.handed++
	return p, nil
}

// advance moves the watermark to ts, stamping every window whose end it
// passes (a quiet stretch can pass several at once).
func (t *tap) advance(ts time.Time) {
	if t.nextEnd.IsZero() {
		t.nextEnd = ts.Add(t.window)
		return
	}
	if ts.Before(t.nextEnd) {
		return
	}
	now := t.now()
	for !ts.Before(t.nextEnd) {
		t.crossed = append(t.crossed, now)
		t.nextEnd = t.nextEnd.Add(t.window)
	}
}

// Release implements pcap.Releaser.
func (t *tap) Release(p *pcap.Packet) {
	if t.rel != nil {
		t.rel.Release(p)
	}
}

// closeLags pairs each window's emission time with the moment the
// watermark passed its end. A window emitted without its end having been
// passed by a packet (the trace ended inside the next window) is measured
// from end of input instead.
func closeLags(crossed, emitted []time.Time, eof time.Time) []time.Duration {
	lags := make([]time.Duration, len(emitted))
	for n, at := range emitted {
		from := eof
		if n < len(crossed) {
			from = crossed[n]
		}
		lags[n] = at.Sub(from)
	}
	return lags
}
