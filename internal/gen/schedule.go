// Time-structured workload generation: sessions placed on an explicit
// schedule of ramps, bursts, steady plateaus, and quiet slots, so the
// windowed analysis has traffic whose time-of-day structure is known in
// advance — the paper's observation that the traffic mix varies strongly
// across times of day, made testable end-to-end. (The invitro
// trace-synthesizer exemplar shapes load the same way: per-slot rates
// with deterministic placement.)
package gen

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/pcap"
)

// PhaseKind names one schedule phase's shape.
type PhaseKind string

// Phase kinds.
const (
	PhaseRamp   PhaseKind = "ramp"   // rate interpolates Rate0 → Rate1
	PhaseBurst  PhaseKind = "burst"  // constant high rate
	PhaseSteady PhaseKind = "steady" // constant rate
	PhaseQuiet  PhaseKind = "quiet"  // no sessions at all
)

// Phase is one slot of a Schedule.
type Phase struct {
	Kind PhaseKind
	Dur  time.Duration
	// Rate0 and Rate1 are sessions per minute at the phase's start and
	// end; equal for every kind but ramp, zero for quiet.
	Rate0, Rate1 float64
}

// Schedule is a deterministic session timeline. Unlike the per-category
// workload builders (which draw uniform start times), a schedule pins
// every session start analytically, so a test can assert exactly which
// analysis window each burst lands in.
type Schedule struct {
	Phases []Phase
}

// Duration is the schedule's total length.
func (s Schedule) Duration() time.Duration {
	var d time.Duration
	for _, p := range s.Phases {
		d += p.Dur
	}
	return d
}

// ParseSchedule parses the CLI schedule syntax: "default" for
// DefaultSchedule, or comma-separated phases of the form
// kind:duration[:rate] with rate in sessions/minute —
// "ramp:60s:0-30,burst:30s:120,quiet:60s,steady:90s:20". Ramp rates are
// "start-end"; quiet takes no rate.
func ParseSchedule(spec string) (Schedule, error) {
	if spec == "default" {
		return DefaultSchedule(), nil
	}
	var s Schedule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return Schedule{}, fmt.Errorf("schedule phase %q: want kind:duration[:rate]", part)
		}
		kind := PhaseKind(fields[0])
		dur, err := time.ParseDuration(fields[1])
		if err != nil || dur <= 0 {
			return Schedule{}, fmt.Errorf("schedule phase %q: bad duration", part)
		}
		p := Phase{Kind: kind, Dur: dur}
		switch kind {
		case PhaseQuiet:
			if len(fields) > 2 {
				return Schedule{}, fmt.Errorf("schedule phase %q: quiet takes no rate", part)
			}
		case PhaseRamp:
			if len(fields) != 3 {
				return Schedule{}, fmt.Errorf("schedule phase %q: ramp needs start-end rate", part)
			}
			lo, hi, ok := strings.Cut(fields[2], "-")
			if !ok {
				return Schedule{}, fmt.Errorf("schedule phase %q: ramp rate must be start-end", part)
			}
			if p.Rate0, err = strconv.ParseFloat(lo, 64); err != nil {
				return Schedule{}, fmt.Errorf("schedule phase %q: bad rate %q", part, lo)
			}
			if p.Rate1, err = strconv.ParseFloat(hi, 64); err != nil {
				return Schedule{}, fmt.Errorf("schedule phase %q: bad rate %q", part, hi)
			}
		case PhaseBurst, PhaseSteady:
			if len(fields) != 3 {
				return Schedule{}, fmt.Errorf("schedule phase %q: needs a rate", part)
			}
			r, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("schedule phase %q: bad rate %q", part, fields[2])
			}
			p.Rate0, p.Rate1 = r, r
		default:
			return Schedule{}, fmt.Errorf("schedule phase %q: unknown kind (want ramp|burst|steady|quiet)", part)
		}
		if p.Rate0 < 0 || p.Rate1 < 0 {
			return Schedule{}, fmt.Errorf("schedule phase %q: negative rate", part)
		}
		s.Phases = append(s.Phases, p)
	}
	if len(s.Phases) == 0 {
		return Schedule{}, fmt.Errorf("empty schedule %q", spec)
	}
	return s, nil
}

// DefaultSchedule is a five-minute day-in-miniature: a ramp-up, a hard
// burst, a dead-quiet slot, and a steady plateau — one distinct regime
// per analysis window at -window 60s.
func DefaultSchedule() Schedule {
	return Schedule{Phases: []Phase{
		{Kind: PhaseRamp, Dur: time.Minute, Rate0: 0, Rate1: 30},
		{Kind: PhaseBurst, Dur: time.Minute, Rate0: 90, Rate1: 90},
		{Kind: PhaseQuiet, Dur: time.Minute},
		{Kind: PhaseSteady, Dur: 2 * time.Minute, Rate0: 18, Rate1: 18},
	}}
}

// Repeat tiles the schedule's phases end to end until the total length
// reaches at least d, so a short "shape" schedule can drive an
// arbitrarily long soak run: Repeat never splits a phase, so the result
// may overshoot d by up to one schedule length. A d no longer than the
// schedule itself returns the schedule unchanged.
func (s Schedule) Repeat(d time.Duration) Schedule {
	total := s.Duration()
	if total <= 0 || d <= total {
		return s
	}
	out := Schedule{Phases: append([]Phase(nil), s.Phases...)}
	for sum := total; sum < d; sum += total {
		out.Phases = append(out.Phases, s.Phases...)
	}
	return out
}

// SessionOffsets returns every session's start offset from the schedule
// origin, in order. Placement is fully deterministic: the instantaneous
// rate integrates in fixed 100ms steps and a session fires each time the
// accumulated count crosses one. No randomness is involved, so the k-th
// session of a given schedule starts at the same offset in every run.
func (s Schedule) SessionOffsets() []time.Duration {
	const step = 100 * time.Millisecond
	var out []time.Duration
	var phaseStart time.Duration
	acc := 0.0
	for _, p := range s.Phases {
		steps := int(p.Dur / step)
		for i := 0; i < steps; i++ {
			at := time.Duration(i) * step
			// Instantaneous rate at the middle of the step, in
			// sessions per step.
			frac := (float64(i) + 0.5) / float64(steps)
			perMin := p.Rate0 + (p.Rate1-p.Rate0)*frac
			acc += perMin * step.Minutes()
			for acc >= 1 {
				acc--
				out = append(out, phaseStart+at)
			}
		}
		phaseStart += p.Dur
	}
	return out
}

// scheduleRun is the session engine shared by the materialized and
// streamed scheduled-trace paths. Both construct it identically and emit
// sessions in the same order, so they consume the deterministic RNG in
// exactly the same sequence — which is what makes the streamed frame
// sequence (gen.StreamSource) reproduce GenerateScheduledTrace's output
// byte for byte.
type scheduleRun struct {
	g              *traceGen
	clients        []enterprise.Host
	webSrv, dnsSrv enterprise.Host
}

// newScheduleRun builds the generator state for one scheduled trace and
// emits the anchor frames: window boundaries derive from the first
// packet timestamp, so the opening ARP exchange pins window k exactly to
// phase time [k·w, (k+1)·w) regardless of when the first session fires
// inside the ramp. Frames are built at snaplen, and go to stream when the
// run is a StreamSource's (nil materializes them in the emitter).
func newScheduleRun(net *enterprise.Network, subnet, tap int, sched Schedule, snaplen uint32, stream *StreamSource) *scheduleRun {
	cfg := net.Config()
	// Offset the seed space from GenerateTrace so a scheduled trace
	// never replays an unscheduled trace's content byte-for-byte.
	seed := cfg.Seed*1_000_003 + int64(subnet)*1009 + int64(tap) + 0x5ced
	em := NewEmitter(seed)
	em.snaplen, em.stream = int(snaplen), stream
	g := &traceGen{
		em:      em,
		rng:     em.RNG(),
		net:     net,
		cfg:     cfg,
		subnet:  subnet,
		start:   cfg.Date.Add(time.Duration(tap) * sched.Duration()),
		dur:     sched.Duration(),
		hours:   sched.Duration().Hours() * cfg.Scale,
		nextEph: 32768,
	}
	r := &scheduleRun{
		g:       g,
		clients: g.clients(),
		webSrv:  g.net.Server(enterprise.RoleWeb),
		dnsSrv:  g.net.Server(enterprise.RoleDNS1),
	}
	g.em.ARPExchange(r.clients[0], r.webSrv, g.start)
	return r
}

// emitSession emits the k-th scheduled session, pinned to its offset: a
// rotating mix of internal HTTP, DNS lookups, and WAN browsing. Every
// frame it emits carries a timestamp >= start+off, which is the
// invariant the streaming source's bounded reorder buffer rests on.
func (r *scheduleRun) emitSession(k int, off time.Duration) {
	g := r.g
	g.pinned = g.start.Add(off)
	c := r.clients[k%len(r.clients)]
	switch k % 3 {
	case 0:
		g.httpConn(c, r.webSrv, g.intRTT(), 1+k%2, browserProfileEnt)
	case 1:
		g.dnsLookup(c, r.dnsSrv, g.intRTT()/2, false)
	default:
		g.httpConn(c, g.remote(), g.wanRTT(), 1, browserProfileWAN)
	}
}

// GenerateScheduledTrace produces one monitored-subnet trace whose
// sessions follow the schedule instead of uniform placement, each
// session pinned to its scheduled instant. Packet contents are drawn
// from the usual deterministic per-trace RNG; only the timeline is
// scheduled, and frames are captured at the dataset's snaplen as in
// GenerateTrace. For long schedules prefer NewStreamSource, which yields
// the identical frame sequence without materializing it.
func GenerateScheduledTrace(net *enterprise.Network, subnet, tap int, sched Schedule) []*pcap.Packet {
	r := newScheduleRun(net, subnet, tap, sched, net.Config().Snaplen, nil)
	for k, off := range sched.SessionOffsets() {
		r.emitSession(k, off)
	}
	r.g.pinned = time.Time{}
	return r.g.em.Packets()
}
