package faults

import "slices"

// Wire applies a schedule of wire kinds to a stream of outgoing frames.
// It sits between the shipper's send loop and the socket: every frame
// send passes through Send, which fires at most one event per send
// ordinal — a tie on one ordinal slips to the next send. Not safe for
// concurrent use — the shipper's single send loop owns it. A nil *Wire
// is valid for Send, Flush and ConnReset and injects nothing, so callers
// can thread an optional injector without branching.
type Wire struct {
	cursor
	sent int64    // next send ordinal
	held [][]byte // frames reorders hold, oldest first
}

// NewWire returns an injector for the schedule.
func NewWire(s Schedule) *Wire { return &Wire{cursor: newCursor(s)} }

// Send transmits raw via send, applying any event due at the current
// send ordinal. It may call send zero times (drop, reorder hold), once
// (clean, stall), or more (dup, release of held frames). A ConnDrop
// returns its *Fired entry without calling send.
func (w *Wire) Send(raw []byte, send func([]byte) error) error {
	if w == nil {
		return send(raw)
	}
	at := w.sent
	w.sent++
	if ev, ok := w.due(at); ok {
		f := w.fire(ev, at, 0)
		switch ev.Kind {
		case ConnDrop:
			// The shipper treats it like any connection failure: tear
			// down, back off, reconnect, resend what is unacknowledged.
			return f
		case DupFrame:
			if err := send(raw); err != nil {
				return err
			}
		case ReorderFrame:
			// Held until the next frame is sent: adjacent delivery order
			// swaps. Holds queue, so back-to-back reorders lose nothing.
			w.held = append(w.held, slices.Clone(raw))
			return nil
		}
	}
	if err := send(raw); err != nil {
		return err
	}
	return w.Flush(send)
}

// Flush releases the frames reorders hold, oldest first. The shipper
// calls it once its producer has closed, when no later Send may come to
// release them.
func (w *Wire) Flush(send func([]byte) error) error {
	if w == nil {
		return nil
	}
	for len(w.held) > 0 {
		b := w.held[0]
		w.held = w.held[1:]
		if err := send(b); err != nil {
			return err
		}
	}
	return nil
}

// ConnReset discards any held frame — the connection it belonged to is
// gone, and the at-least-once resend path owns redelivery now.
func (w *Wire) ConnReset() {
	if w != nil {
		w.held = nil
	}
}
