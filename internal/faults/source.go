package faults

import (
	"fmt"
	"io"
	"maps"
	"time"

	"enttrace/internal/pcap"
)

// Expected is the error census a degraded run over this source must
// report: the manifest aggregated the way the pipeline aggregates.
// Stalls are excluded — they surface no error.
type Expected struct {
	Errors     int64
	LostBytes  int64
	ByKind     map[string]int64
	FirstIndex int64 // packet offset of the first error (-1 when none)
	LastIndex  int64
	Terminal   bool // the stream ended on a terminal fault
	Stalls     int64
	StallTime  time.Duration
}

// Source wraps an inner packet source and fires a schedule of source
// kinds against it. It implements pcap.PacketSource and pcap.Releaser
// (delegating to the inner source when it pools packets; records the
// injector consumes are released immediately).
type Source struct {
	cursor
	inner pcap.PacketSource
	rel   pcap.Releaser
	idx   int64 // next underlying record ordinal
	out   int64 // packets delivered to the consumer
	stash *pcap.Packet
	dead  error // terminal state: io.EOF after a terminal fault fired
}

// Wrap returns a fault-injecting source over inner.
func Wrap(inner pcap.PacketSource, sched Schedule) *Source {
	rel, _ := inner.(pcap.Releaser)
	return &Source{cursor: newCursor(sched), inner: inner, rel: rel}
}

// Next implements pcap.PacketSource. Injected errors come from the
// schedule; between events the inner source's packets (and errors) pass
// through unchanged.
func (s *Source) Next() (*pcap.Packet, error) {
	if s.dead != nil {
		return nil, s.dead
	}
	if p := s.stash; p != nil {
		s.stash = nil
		s.out++
		return p, nil
	}
	for ev, ok := s.due(s.idx); ok; ev, ok = s.due(s.idx) {
		if ev.Kind == Stall {
			s.fire(ev, s.out, 0)
			continue
		}
		var lost int64
		if ev.Kind != EarlyEOF {
			// Consuming kinds: the event applies to the next underlying
			// record. If the stream ends first, the event never fires.
			p, err := s.inner.Next()
			if err != nil {
				return nil, err
			}
			s.idx++
			lost = int64(len(p.Data))
			if ev.Kind == ShortRead {
				// A record already at or below the cut loses nothing, but
				// the short read still fires.
				if lost = max(0, lost-ev.Arg); lost > 0 {
					p.Data = p.Data[:ev.Arg]
				}
				s.stash = p
			} else {
				s.Release(p)
			}
		}
		f := s.fire(ev, s.out, lost)
		if !f.Recoverable() {
			s.dead = io.EOF
		}
		return nil, f
	}
	p, err := s.inner.Next()
	if err != nil {
		return nil, err
	}
	s.idx++
	s.out++
	return p, nil
}

// Release implements pcap.Releaser, delegating to the inner source.
func (s *Source) Release(p *pcap.Packet) {
	if s.rel != nil {
		s.rel.Release(p)
	}
}

// Expected aggregates the manifest into the census a degraded run must
// report. Call it after the run drains the source.
func (s *Source) Expected() Expected { return expect(s) }

// expect aggregates the manifests of srcs.
func expect(srcs ...*Source) Expected {
	exp := Expected{ByKind: make(map[string]int64), FirstIndex: -1, LastIndex: -1}
	for _, s := range srcs {
		for _, f := range s.fired {
			if f.Kind == Stall {
				exp.Stalls++
				exp.StallTime += f.Delay
				continue
			}
			exp.Errors++
			exp.LostBytes += f.Lost
			exp.ByKind[string(f.Kind)]++
			if exp.FirstIndex < 0 {
				exp.FirstIndex = f.At
			}
			exp.LastIndex = f.At
			exp.Terminal = exp.Terminal || !f.Recoverable()
		}
	}
	return exp
}

// Injector fires one schedule into every source of a run and keeps the
// wrappers, so the run's census can be checked against all of them. An
// Injector with an empty schedule wraps nothing.
type Injector struct {
	Schedule Schedule
	sources  []*Source
}

// Wrap returns src under the schedule.
func (in *Injector) Wrap(src pcap.PacketSource) pcap.PacketSource {
	if len(in.Schedule.Events) == 0 {
		return src
	}
	s := Wrap(src, in.Schedule)
	in.sources = append(in.sources, s)
	return s
}

// CheckCensus compares a degraded run's source-error census (totals and
// per-kind counts) with what the wrapped sources fired, summed over all
// of them, and on a match writes the line saying so to w. Stalls surface
// no error and are not counted. It checks nothing when nothing was
// wrapped.
func (in *Injector) CheckCensus(w io.Writer, errors, lostBytes int64, byKind map[string]int64) error {
	if len(in.sources) == 0 {
		return nil
	}
	exp := expect(in.sources...)
	if errors != exp.Errors || lostBytes != exp.LostBytes || !maps.Equal(byKind, exp.ByKind) {
		return fmt.Errorf("fault census: report (%d errors, %d bytes lost) does not match injected manifest (%d errors, %d bytes lost)",
			errors, lostBytes, exp.Errors, exp.LostBytes)
	}
	fmt.Fprintf(w, "fault census: report matches injected manifest (%d errors, %d bytes lost)\n", errors, lostBytes)
	return nil
}
