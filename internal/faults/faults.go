// Package faults is the deterministic fault injector for the two seams
// a run can fail at: a packet source and the fleet shipper's wire. One
// vocabulary serves both: an Event is a Kind, the ordinal it fires at
// (packets read, or frames sent — each kind counts one) and an argument.
// A Schedule fires in ordinal order, so it replays the same faults every
// run; one grammar (ParseSpec) and one seeded draw (Random) build it.
//
// A Source wraps any pcap.PacketSource: it is the test and soak harness
// for the pipeline's degrade-and-continue policy (entanalyze and
// entreport -inject drive it), and it records what it actually injected,
// so a run's SourceError census can be checked against the manifest
// exactly. A Wire sits under the shipper and exercises the fleet
// protocol's resend and dedup paths. Events scheduled past the end of
// the stream, or after a terminal fault, never fire and are absent from
// the manifest.
//
// Epoch obligations: none — the injectors sit outside the pipeline and
// hold no report-feeding state.
package faults

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Kind names one injected failure class. The string values are census
// and manifest keys and must stay stable.
type Kind string

// Source kinds count packets read. ReadError and ShortRead are
// recoverable (the stream continues past them); Torn and EarlyEOF are
// terminal; Stall surfaces no error at all (it only delays Next, for
// watermark-stall testing). ReadError, ShortRead and Torn consume the
// record at their ordinal; Stall and EarlyEOF fire just before it is
// read.
const (
	ReadError Kind = "read-error"
	ShortRead Kind = "short-read"
	Stall     Kind = "stall"
	Torn      Kind = "torn-record"
	EarlyEOF  Kind = "early-eof"
)

// Wire kinds count frames sent, resends included (the ordinal is send
// operations, not distinct frames). None of them loses data under the
// fleet protocol: a dropped connection triggers backoff and a resend of
// everything unacknowledged, duplicates and reorders are absorbed by
// per-(site, window) sequence dedup, and stalls only delay delivery.
// Permanent loss comes only from the shipper's queue bound, a capacity
// decision, not an injected fault.
const (
	ConnDrop     Kind = "conn-drop"     // sever the connection instead of sending
	NetStall     Kind = "net-stall"     // delay the send
	DupFrame     Kind = "dup-frame"     // send the frame twice back to back
	ReorderFrame Kind = "reorder-frame" // hold the frame until the next one is sent
)

// Ordinal names what a kind's events count: the seam they fire on.
type Ordinal uint8

const (
	Packets Ordinal = iota // records read from a packet source
	Sends                  // frame sends on the fleet wire
)

func (o Ordinal) String() string { return [...]string{"packets read", "frames sent"}[o] }

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	// At is the ordinal the event fires at: the underlying record index
	// for a source kind, the send ordinal for a wire kind.
	At int64
	// Arg is ShortRead's kept byte count (the record's Data is truncated
	// to at most this many bytes), or a stall's duration in nanoseconds.
	Arg int64
}

// Schedule is a set of events. They fire sorted by At; ties fire in
// insertion order.
type Schedule struct {
	Events []Event
}

// rule is one row of the spec grammar.
type rule struct {
	word string
	kind Kind
	on   Ordinal
	arg  func(string) (int64, error) // nil: the word takes no argument
	def  int64                       // the argument when the spec omits it
	// draw is the row's part in its seam's random form: the argument,
	// drawn from rng when the kind takes one. nil: never drawn.
	draw func(rng *xorshift) int64
}

// grammar lists every kind. A seam's random form picks among its drawn
// rows in table order, so the order is part of every seed's schedule.
var grammar = []rule{
	{"read", ReadError, Packets, nil, 0, drawNone},
	{"short", ShortRead, Packets, parseCut, 32, drawCut},
	{"stall", Stall, Packets, parseDelay, int64(10 * time.Millisecond), drawDelay},
	{"torn", Torn, Packets, nil, 0, nil},
	{"eof", EarlyEOF, Packets, nil, 0, nil},
	{"drop", ConnDrop, Sends, nil, 0, drawNone},
	{"dup", DupFrame, Sends, nil, 0, drawNone},
	{"reorder", ReorderFrame, Sends, nil, 0, drawNone},
	{"netstall", NetStall, Sends, parseDelay, int64(10 * time.Millisecond), drawDelay},
}

// randForm is each seam's random-spec prefix.
var randForm = [...]string{Packets: "rand:", Sends: "netrand:"}

// maxRandom bounds a random spec's count: a flag value must not be able
// to ask for an unbounded allocation.
const maxRandom = 1 << 20

// The argument parsers; parseEvent refuses a negative value.
func parseCut(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

func parseDelay(s string) (int64, error) {
	d, err := time.ParseDuration(s)
	return int64(d), err
}

func drawNone(*xorshift) int64      { return 0 }
func drawCut(rng *xorshift) int64   { return int64(14 + rng.next()%64) }
func drawDelay(rng *xorshift) int64 { return int64(time.Duration(1+rng.next()%4) * time.Millisecond) }

// ParseSpec parses an injection spec for the seam that counts on. Two
// forms:
//
//	word@N[:arg][,word@N[:arg]...]
//	rand:seed:count:span     (packets)
//	netrand:seed:count:span  (sends)
//
// Source words: read@100, short@250:40 (keep 40 bytes; default 32),
// stall@300:50ms (default 10ms), torn@500, eof@800. Wire words: drop@3,
// dup@4, reorder@5, netstall@6:2ms (default 10ms). A word or random form
// of the other seam is an error, not an event that never fires. The
// random form draws count events of the seam's drawn kinds (not the
// terminal ones) at seeded-pseudorandom ordinals in [0, span) — the same
// seed always yields the same schedule.
func ParseSpec(spec string, on Ordinal) (Schedule, error) {
	for o, prefix := range randForm {
		if rest, ok := strings.CutPrefix(spec, prefix); ok {
			if Ordinal(o) != on {
				return Schedule{}, fmt.Errorf("faults: %q draws events on %s, not %s", spec, Ordinal(o), on)
			}
			return parseRand(on, rest)
		}
	}
	var s Schedule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part, on)
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

func parseEvent(part string, on Ordinal) (Event, error) {
	word, rest, ok := strings.Cut(part, "@")
	if !ok {
		return Event{}, fmt.Errorf("faults: event %q: want word@N[:arg]", part)
	}
	atStr, argStr, hasArg := strings.Cut(rest, ":")
	at, err := strconv.ParseInt(atStr, 10, 64)
	if err != nil || at < 0 {
		return Event{}, fmt.Errorf("faults: event %q: bad index %q", part, atStr)
	}
	i := slices.IndexFunc(grammar, func(r rule) bool { return r.word == word })
	if i < 0 {
		var words []string
		for _, r := range grammar {
			if r.on == on {
				words = append(words, r.word)
			}
		}
		return Event{}, fmt.Errorf("faults: event %q: unknown kind %q (want %s)", part, word, strings.Join(words, ", "))
	}
	r := grammar[i]
	if r.on != on {
		return Event{}, fmt.Errorf("faults: event %q: %s counts %s, not %s", part, word, r.on, on)
	}
	ev := Event{Kind: r.kind, At: at, Arg: r.def}
	if hasArg {
		if r.arg == nil {
			return Event{}, fmt.Errorf("faults: event %q: %s takes no argument", part, r.kind)
		}
		if ev.Arg, err = r.arg(argStr); err != nil || ev.Arg < 0 {
			return Event{}, fmt.Errorf("faults: event %q: bad %s argument %q", part, word, argStr)
		}
	}
	return ev, nil
}

func parseRand(on Ordinal, rest string) (Schedule, error) {
	fields := strings.Split(rest, ":")
	if len(fields) != 3 {
		return Schedule{}, fmt.Errorf("faults: random spec: want %sseed:count:span", randForm[on])
	}
	seed, err1 := strconv.ParseUint(fields[0], 10, 64)
	count, err2 := strconv.Atoi(fields[1])
	span, err3 := strconv.ParseInt(fields[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || count <= 0 || count > maxRandom || span <= 0 {
		return Schedule{}, fmt.Errorf("faults: random spec %s%s: bad field (count in [1, %d], span > 0)", randForm[on], rest, maxRandom)
	}
	return Random(on, seed, count, span), nil
}

// Random draws count events of on's drawn kinds at pseudorandom
// ordinals in [0, span). The same seed always yields the same schedule,
// so soak runs are reproducible.
func Random(on Ordinal, seed uint64, count int, span int64) Schedule {
	rows := slices.DeleteFunc(slices.Clone(grammar), func(r rule) bool { return r.on != on || r.draw == nil })
	rng := xorshift(seed | 1)
	var s Schedule
	for range count {
		at := int64(rng.next() % uint64(span))
		r := rows[rng.next()%uint64(len(rows))]
		s.Events = append(s.Events, Event{Kind: r.kind, At: at, Arg: r.draw(&rng)})
	}
	return s
}

// xorshift is the seeded generator behind Random. Seed it with seed|1:
// the state must not start at zero.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// Fired is one manifest entry: an event that actually fired. It is also
// the error the consumer sees. A source kind's is what Next returns, and
// it implements pcap.SourceFault, so the pipeline's degrade policy
// classifies it without knowing about this package. A ConnDrop's is the
// write error Send returns.
type Fired struct {
	Kind Kind
	// At is the ordinal the event fired at as the consumer sees it: the
	// packets delivered before it (the offset the pipeline's census
	// records), or the send ordinal.
	At int64
	// Lost is the captured bytes dropped (the whole record for ReadError
	// and Torn, the truncated tail for ShortRead).
	Lost int64
	// Delay is the stall duration (stalls only).
	Delay time.Duration
}

// Error implements error.
func (f *Fired) Error() string {
	if f.Kind == ConnDrop {
		return fmt.Sprintf("faults: injected connection drop at send %d", f.At)
	}
	return fmt.Sprintf("faults: injected %s at packet %d (%d bytes lost)", f.Kind, f.At, f.Lost)
}

// FaultKind implements pcap.SourceFault.
func (f *Fired) FaultKind() string { return string(f.Kind) }

// LostBytes implements pcap.SourceFault.
func (f *Fired) LostBytes() int64 { return f.Lost }

// Recoverable implements pcap.SourceFault.
func (f *Fired) Recoverable() bool { return f.Kind == ReadError || f.Kind == ShortRead }

// cursor fires a schedule in ordinal order and keeps the manifest and
// the stall clock. Source and Wire embed it.
type cursor struct {
	evs   []Event // sorted by At, stably
	next  int
	fired []Fired
	sleep func(time.Duration)
}

func newCursor(s Schedule) cursor {
	evs := slices.Clone(s.Events)
	slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	return cursor{evs: evs, sleep: time.Sleep}
}

// due pops the next event scheduled at or before ordinal at.
func (c *cursor) due(at int64) (Event, bool) {
	if c.next == len(c.evs) || c.evs[c.next].At > at {
		return Event{}, false
	}
	c.next++
	return c.evs[c.next-1], true
}

// fire records ev in the manifest as fired at ordinal at, sleeps out a
// stall, and returns the entry.
func (c *cursor) fire(ev Event, at, lost int64) *Fired {
	f := Fired{Kind: ev.Kind, At: at, Lost: lost}
	if ev.Kind == Stall || ev.Kind == NetStall {
		f.Delay = time.Duration(ev.Arg)
		c.sleep(f.Delay)
	}
	c.fired = append(c.fired, f)
	return &f
}

// SetSleep replaces the stall clock (tests pass a recorder so schedules
// with stalls replay instantly).
func (c *cursor) SetSleep(fn func(time.Duration)) { c.sleep = fn }

// Manifest returns the events that actually fired, in firing order.
func (c *cursor) Manifest() []Fired { return c.fired }
