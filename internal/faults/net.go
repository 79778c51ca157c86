package faults

import (
	"fmt"
	"time"
)

// NetKind names one injected network failure class for the fleet wire
// layer. The string values are manifest keys and must stay stable.
type NetKind string

// Network fault kinds, all indexed by the shipper's global frame-send
// ordinal (resends count — the index space is "send operations", not
// "distinct frames"). None of them lose data under the fleet protocol:
// a dropped connection triggers backoff + resend of everything
// unacknowledged, duplicates and reorders are absorbed by per-(site,
// window) sequence dedup, and stalls only delay delivery. Permanent
// loss comes only from the shipper's bounded-queue overflow, which is a
// capacity decision, not an injected fault.
const (
	// ConnDrop severs the connection instead of sending frame N.
	ConnDrop NetKind = "conn-drop"
	// NetStall delays frame N's send.
	NetStall NetKind = "net-stall"
	// DupFrame delivers frame N twice back to back.
	DupFrame NetKind = "dup-frame"
	// ReorderFrame holds frame N and releases it after the next frame —
	// adjacent frames arrive swapped.
	ReorderFrame NetKind = "reorder-frame"
)

// NetEvent is one scheduled network fault.
type NetEvent struct {
	Kind  NetKind
	Index int64
	// Delay is NetStall's added latency.
	Delay time.Duration
}

// NetSchedule is a set of network events, fired in Index order (ties in
// insertion order).
type NetSchedule struct {
	Events []NetEvent
}

// RandomNetSchedule draws count network events at pseudorandom send
// ordinals in [0, span), deterministically from seed.
func RandomNetSchedule(seed uint64, count int, span int64) NetSchedule {
	rng := xorshift(seed | 1)
	var s NetSchedule
	for i := 0; i < count; i++ {
		ev := NetEvent{Index: int64(rng.next() % uint64(span))}
		switch rng.next() % 4 {
		case 0:
			ev.Kind = ConnDrop
		case 1:
			ev.Kind = DupFrame
		case 2:
			ev.Kind = ReorderFrame
		default:
			ev.Kind = NetStall
			ev.Delay = time.Duration(1+rng.next()%4) * time.Millisecond
		}
		s.Events = append(s.Events, ev)
	}
	return s
}

// ErrInjectedDrop is the write error a ConnDrop surfaces. The shipper
// treats it like any connection failure: tear down, back off,
// reconnect, resend unacknowledged frames.
type ErrInjectedDrop struct {
	At int64 // send ordinal at which the drop fired
}

func (e *ErrInjectedDrop) Error() string {
	return fmt.Sprintf("faults: injected connection drop at send %d", e.At)
}

// NetFired is one manifest entry for a network event that fired.
type NetFired struct {
	Kind NetKind
	At   int64 // send ordinal
}

// NetInjector applies a NetSchedule to a stream of outgoing frames. It
// sits between the shipper's send loop and the socket: every frame send
// passes through Send, which consults the schedule at the current
// global send ordinal. Not safe for concurrent use — the shipper's
// single send loop owns it.
type NetInjector struct {
	evs   []NetEvent
	si    int
	idx   int64 // next send ordinal
	held  []byte
	fired []NetFired
	sleep func(time.Duration)
}

// NewNetInjector returns an injector for the schedule. A nil receiver
// is valid everywhere and injects nothing, so callers can thread an
// optional injector without branching.
func NewNetInjector(s NetSchedule) *NetInjector {
	return &NetInjector{
		evs:   firingOrder(s.Events, func(e NetEvent) int64 { return e.Index }),
		sleep: time.Sleep,
	}
}

// SetSleep replaces the stall clock (tests pass a recorder so schedules
// with stalls replay instantly).
func (n *NetInjector) SetSleep(fn func(time.Duration)) {
	if n != nil {
		n.sleep = fn
	}
}

// Send transmits raw via send, applying any scheduled fault at the
// current send ordinal. It may call send zero times (drop, reorder
// hold), once (clean, stall), or multiple times (dup, reorder release).
// A ConnDrop returns *ErrInjectedDrop without calling send.
func (n *NetInjector) Send(raw []byte, send func([]byte) error) error {
	if n == nil {
		return send(raw)
	}
	at := n.idx
	n.idx++
	var ev *NetEvent
	if n.si < len(n.evs) && n.evs[n.si].Index <= at {
		ev = &n.evs[n.si]
		n.si++
	}
	if ev != nil {
		n.fired = append(n.fired, NetFired{Kind: ev.Kind, At: at})
		switch ev.Kind {
		case ConnDrop:
			return &ErrInjectedDrop{At: at}
		case NetStall:
			n.sleep(ev.Delay)
		case DupFrame:
			if err := send(raw); err != nil {
				return err
			}
		case ReorderFrame:
			// Hold this frame; the next Send (or Flush) releases it
			// after the following frame — adjacent delivery order swaps.
			n.held = append([]byte(nil), raw...)
			return nil
		}
	}
	if err := send(raw); err != nil {
		return err
	}
	if n.held != nil {
		held := n.held
		n.held = nil
		return send(held)
	}
	return nil
}

// Flush releases a frame held by a ReorderFrame event when no further
// Send follows (end of stream). The shipper calls it once its queue
// drains.
func (n *NetInjector) Flush(send func([]byte) error) error {
	if n == nil || n.held == nil {
		return nil
	}
	held := n.held
	n.held = nil
	return send(held)
}

// ConnReset discards any held frame — the connection it belonged to is
// gone, and the at-least-once resend path owns redelivery now.
func (n *NetInjector) ConnReset() {
	if n != nil {
		n.held = nil
	}
}

// Manifest returns the network events that actually fired, in order.
func (n *NetInjector) Manifest() []NetFired {
	if n == nil {
		return nil
	}
	return n.fired
}
