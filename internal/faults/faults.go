// Package faults is the deterministic fault injector for packet
// sources: it wraps any pcap.PacketSource and fires a seeded schedule
// of the failure modes a real capture path produces — mid-stream read
// errors, torn (truncated) records, short reads, latency stalls, and
// early EOF — at exact packet offsets, so the same schedule replays the
// same faults every run.
//
// The wrapper is the test and soak harness for the pipeline's
// degrade-and-continue error policy (entanalyze -inject drives it from
// the command line): every injected error implements pcap.SourceFault,
// and the wrapper records what it actually injected, so a run's
// SourceError census can be checked against the injection manifest
// exactly. Events scheduled past the end of the stream, or after a
// terminal fault, never fire and are absent from the manifest.
//
// Epoch obligations: none — the wrapper is upstream of the pipeline and
// holds no report-feeding state; the census it enables banks through
// the ordinary epoch machinery in internal/core.
package faults

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"enttrace/internal/pcap"
)

// Kind names one injected failure class. The string values are census
// keys and must stay stable.
type Kind string

// Fault kinds. ReadError and ShortRead are recoverable (the stream
// continues past them); Torn and EarlyEOF are terminal; Stall surfaces
// no error at all (it only delays Next, for watermark-stall testing).
const (
	ReadError Kind = "read-error"
	ShortRead Kind = "short-read"
	Stall     Kind = "stall"
	Torn      Kind = "torn-record"
	EarlyEOF  Kind = "early-eof"
)

// Event is one scheduled fault. Index is the offset into the underlying
// stream's records at which the event fires: consuming kinds (ReadError,
// ShortRead, Torn) apply to that record; Stall and EarlyEOF fire just
// before it is read.
type Event struct {
	Kind  Kind
	Index int64
	// Cut is ShortRead's kept byte count (the record's Data is truncated
	// to at most this many bytes).
	Cut int
	// Delay is Stall's sleep duration.
	Delay time.Duration
}

// Schedule is a set of events, kept sorted by Index (ties fire in
// insertion order).
type Schedule struct {
	Events []Event
}

// firingOrder returns a copy of a schedule's events sorted by index;
// the sort is stable, so ties fire in insertion order. It serves both
// schedule types (Event here, NetEvent in net.go).
func firingOrder[E any](evs []E, index func(E) int64) []E {
	out := slices.Clone(evs)
	slices.SortStableFunc(out, func(a, b E) int { return cmp.Compare(index(a), index(b)) })
	return out
}

// xorshift is the seeded generator behind both random schedules. Seed
// it with seed|1: the state must not start at zero.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// ParseSpec parses an injection spec. Two forms:
//
//	kind@index[:arg][,kind@index[:arg]...]
//	rand:seed:count:span
//
// Explicit events: read@100, short@250:40 (keep 40 bytes), stall@300:50ms,
// torn@500, eof@800. The random form draws count recoverable events
// (read errors, short reads, stalls) at seeded-pseudorandom offsets in
// [0, span) — the same seed always yields the same schedule.
func ParseSpec(spec string) (Schedule, error) {
	if rest, ok := strings.CutPrefix(spec, "rand:"); ok {
		return parseRand(rest)
	}
	var s Schedule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return Schedule{}, err
		}
		s.Events = append(s.Events, ev)
	}
	if len(s.Events) == 0 {
		return Schedule{}, fmt.Errorf("faults: empty injection spec %q", spec)
	}
	return s, nil
}

func parseEvent(part string) (Event, error) {
	kind, rest, ok := strings.Cut(part, "@")
	if !ok {
		return Event{}, fmt.Errorf("faults: event %q: want kind@index[:arg]", part)
	}
	idxStr, arg, hasArg := strings.Cut(rest, ":")
	idx, err := strconv.ParseInt(idxStr, 10, 64)
	if err != nil || idx < 0 {
		return Event{}, fmt.Errorf("faults: event %q: bad index %q", part, idxStr)
	}
	ev := Event{Index: idx}
	switch kind {
	case "read":
		ev.Kind = ReadError
	case "short":
		ev.Kind = ShortRead
		ev.Cut = 32
		if hasArg {
			cut, err := strconv.Atoi(arg)
			if err != nil || cut < 0 {
				return Event{}, fmt.Errorf("faults: event %q: bad cut %q", part, arg)
			}
			ev.Cut = cut
		}
	case "stall":
		ev.Kind = Stall
		ev.Delay = 10 * time.Millisecond
		if hasArg {
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return Event{}, fmt.Errorf("faults: event %q: bad duration %q", part, arg)
			}
			ev.Delay = d
		}
	case "torn":
		ev.Kind = Torn
	case "eof":
		ev.Kind = EarlyEOF
	default:
		return Event{}, fmt.Errorf("faults: event %q: unknown kind %q (want read, short, stall, torn, eof)", part, kind)
	}
	if hasArg && ev.Kind != ShortRead && ev.Kind != Stall {
		return Event{}, fmt.Errorf("faults: event %q: %s takes no argument", part, ev.Kind)
	}
	return ev, nil
}

// parseRand builds a seeded random schedule of recoverable events.
func parseRand(rest string) (Schedule, error) {
	fields := strings.Split(rest, ":")
	if len(fields) != 3 {
		return Schedule{}, fmt.Errorf("faults: random spec: want rand:seed:count:span")
	}
	seed, err1 := strconv.ParseUint(fields[0], 10, 64)
	count, err2 := strconv.Atoi(fields[1])
	span, err3 := strconv.ParseInt(fields[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || count <= 0 || span <= 0 {
		return Schedule{}, fmt.Errorf("faults: random spec rand:%s: bad field", rest)
	}
	return RandomSchedule(seed, count, span), nil
}

// RandomSchedule draws count recoverable events (read errors, short
// reads, stalls) at pseudorandom offsets in [0, span). The same seed
// always yields the same schedule, so soak runs are reproducible.
func RandomSchedule(seed uint64, count int, span int64) Schedule {
	rng := xorshift(seed | 1)
	var s Schedule
	for i := 0; i < count; i++ {
		ev := Event{Index: int64(rng.next() % uint64(span))}
		switch rng.next() % 3 {
		case 0:
			ev.Kind = ReadError
		case 1:
			ev.Kind = ShortRead
			ev.Cut = int(14 + rng.next()%64)
		default:
			ev.Kind = Stall
			ev.Delay = time.Duration(1+rng.next()%4) * time.Millisecond
		}
		s.Events = append(s.Events, ev)
	}
	return s
}

// Error is the error an injected fault surfaces through Next. It
// implements pcap.SourceFault, so the pipeline's degrade policy
// classifies it without knowing about this package.
type Error struct {
	Kind Kind
	// At is the packet offset as the consumer sees it: the number of
	// packets delivered before the error.
	At int64
	// Lost is the captured bytes dropped (the whole record for ReadError
	// and Torn, the truncated tail for ShortRead).
	Lost int64
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s at packet %d (%d bytes lost)", e.Kind, e.At, e.Lost)
}

// FaultKind implements pcap.SourceFault.
func (e *Error) FaultKind() string { return string(e.Kind) }

// LostBytes implements pcap.SourceFault.
func (e *Error) LostBytes() int64 { return e.Lost }

// Recoverable implements pcap.SourceFault.
func (e *Error) Recoverable() bool { return e.Kind == ReadError || e.Kind == ShortRead }

// Fired is one manifest entry: an event that actually fired, with the
// loss it caused and the consumer-visible packet offset it fired at.
type Fired struct {
	Kind Kind
	// At is the number of packets delivered to the consumer before the
	// event fired — the offset the pipeline's census records.
	At int64
	// Lost is the captured bytes the event dropped (0 for stalls).
	Lost int64
	// Delay is the stall duration (stalls only).
	Delay time.Duration
}

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

// Source wraps an inner packet source and fires a fault schedule
// against it. It implements pcap.PacketSource and pcap.Releaser
// (delegating to the inner source when it pools packets; records the
// injector consumes are released immediately).
type Source struct {
	inner pcap.PacketSource
	rel   pcap.Releaser
	evs   []Event
	si    int   // next schedule entry
	idx   int64 // next underlying record ordinal
	out   int64 // packets delivered to the consumer
	stash *pcap.Packet
	dead  error // terminal state: io.EOF after a terminal fault fired

	fired []Fired
	// sleep is the stall clock, a seam so tests can count stalls
	// without waiting them out.
	sleep func(time.Duration)
}

// Wrap returns a fault-injecting source over inner.
func Wrap(inner pcap.PacketSource, sched Schedule) *Source {
	s := &Source{
		inner: inner,
		evs:   firingOrder(sched.Events, func(e Event) int64 { return e.Index }),
		sleep: time.Sleep,
	}
	if rel, ok := inner.(pcap.Releaser); ok {
		s.rel = rel
	}
	return s
}

// SetSleep replaces the stall clock (tests pass a recorder so schedules
// with stalls replay instantly).
func (s *Source) SetSleep(fn func(time.Duration)) { s.sleep = fn }

// Next implements pcap.PacketSource. Injected errors come from the
// schedule; between events the inner source's packets (and errors) pass
// through unchanged.
func (s *Source) Next() (*pcap.Packet, error) {
	if s.dead != nil {
		return nil, s.dead
	}
	if s.stash != nil {
		p := s.stash
		s.stash = nil
		s.out++
		return p, nil
	}
	for s.si < len(s.evs) && s.evs[s.si].Index <= s.idx {
		ev := s.evs[s.si]
		s.si++
		switch ev.Kind {
		case Stall:
			s.fired = append(s.fired, Fired{Kind: Stall, At: s.out, Delay: ev.Delay})
			s.sleep(ev.Delay)
		case EarlyEOF:
			s.fired = append(s.fired, Fired{Kind: EarlyEOF, At: s.out})
			s.dead = io.EOF
			return nil, &Error{Kind: EarlyEOF, At: s.out}
		case ReadError, ShortRead, Torn:
			// Consuming kinds: the event applies to the next underlying
			// record. If the stream ends first, the event never fires.
			p, err := s.inner.Next()
			if err != nil {
				return nil, err
			}
			s.idx++
			switch ev.Kind {
			case ReadError:
				lost := int64(len(p.Data))
				s.release(p)
				s.fired = append(s.fired, Fired{Kind: ReadError, At: s.out, Lost: lost})
				return nil, &Error{Kind: ReadError, At: s.out, Lost: lost}
			case ShortRead:
				lost := int64(len(p.Data) - ev.Cut)
				if lost <= 0 {
					// Record already at or below the cut: nothing truncated,
					// but the error still fires (a short read was observed).
					lost = 0
				} else {
					p.Data = p.Data[:ev.Cut]
				}
				s.stash = p
				s.fired = append(s.fired, Fired{Kind: ShortRead, At: s.out, Lost: lost})
				return nil, &Error{Kind: ShortRead, At: s.out, Lost: lost}
			default: // Torn
				lost := int64(len(p.Data))
				s.release(p)
				s.fired = append(s.fired, Fired{Kind: Torn, At: s.out, Lost: lost})
				s.dead = io.EOF
				return nil, &Error{Kind: Torn, At: s.out, Lost: lost}
			}
		}
	}
	p, err := s.inner.Next()
	if err != nil {
		return nil, err
	}
	s.idx++
	s.out++
	return p, nil
}

func (s *Source) release(p *pcap.Packet) {
	if s.rel != nil {
		s.rel.Release(p)
	}
}

// Release implements pcap.Releaser, delegating to the inner source.
func (s *Source) Release(p *pcap.Packet) { s.release(p) }

// Manifest returns the events that actually fired, in firing order.
func (s *Source) Manifest() []Fired { return s.fired }

// PacketsDelivered returns how many packets the consumer has read so
// far — the injector's own count of the census offset space.
func (s *Source) PacketsDelivered() int64 { return s.out }

// LimitSource delivers at most n packets from an inner source, then a
// clean EOF. The drain-determinism tests use it to replay exactly the
// prefix of a schedule a graceful stop consumed: a stopped run's report
// must be byte-identical to running the same source through Limit(n)
// to completion.
type LimitSource struct {
	inner pcap.PacketSource
	rel   pcap.Releaser
	left  int64
}

// Limit wraps inner to yield at most n packets.
func Limit(inner pcap.PacketSource, n int64) *LimitSource {
	l := &LimitSource{inner: inner, left: n}
	if rel, ok := inner.(pcap.Releaser); ok {
		l.rel = rel
	}
	return l
}

// Next implements pcap.PacketSource.
func (l *LimitSource) Next() (*pcap.Packet, error) {
	if l.left <= 0 {
		return nil, io.EOF
	}
	p, err := l.inner.Next()
	if err != nil {
		return nil, err
	}
	l.left--
	return p, nil
}

// Release implements pcap.Releaser, delegating to the inner source.
func (l *LimitSource) Release(p *pcap.Packet) {
	if l.rel != nil {
		l.rel.Release(p)
	}
}

// Expected aggregates the manifest into the census a degraded run must
// report. Call it after the run drains the source.
func (s *Source) Expected() Expected {
	exp := Expected{ByKind: make(map[string]int64), FirstIndex: -1, LastIndex: -1}
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
		if f.Kind == Torn || f.Kind == EarlyEOF {
			exp.Terminal = true
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
	exp := Expected{ByKind: make(map[string]int64)}
	for _, s := range in.sources {
		e := s.Expected()
		exp.Errors += e.Errors
		exp.LostBytes += e.LostBytes
		for k, n := range e.ByKind {
			exp.ByKind[k] += n
		}
	}
	if errors != exp.Errors || lostBytes != exp.LostBytes || !maps.Equal(byKind, exp.ByKind) {
		return fmt.Errorf("fault census: report (%d errors, %d bytes lost) does not match injected manifest (%d errors, %d bytes lost)",
			errors, lostBytes, exp.Errors, exp.LostBytes)
	}
	fmt.Fprintf(w, "fault census: report matches injected manifest (%d errors, %d bytes lost)\n", errors, lostBytes)
	return nil
}
