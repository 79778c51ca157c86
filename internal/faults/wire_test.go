package faults

import (
	"errors"
	"testing"
	"time"
)

// sendRecorder collects what actually hits the "wire".
type sendRecorder struct {
	sent [][]byte
	errs []error
}

func (r *sendRecorder) send(b []byte) error {
	if len(r.errs) > 0 {
		err := r.errs[0]
		r.errs = r.errs[1:]
		if err != nil {
			return err
		}
	}
	r.sent = append(r.sent, append([]byte(nil), b...))
	return nil
}

func frames(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte{byte(i)}
	}
	return out
}

// wire builds an injector from a spec, with stalls replayed instantly.
func wire(t *testing.T, spec string) *Wire {
	t.Helper()
	s, err := ParseSpec(spec, Sends)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWire(s)
	w.SetSleep(func(time.Duration) {})
	return w
}

// TestWireFiringOrderAndSeed pins the two properties a schedule has
// before an injector runs it: events fire sorted by ordinal whatever
// order they were listed in, and a seed always draws the same events.
func TestWireFiringOrderAndSeed(t *testing.T) {
	in := wire(t, "drop@10,netstall@5:50ms,dup@3,reorder@7")
	wantKinds := []Kind{DupFrame, NetStall, ReorderFrame, ConnDrop}
	for i, k := range wantKinds {
		if in.evs[i].Kind != k {
			t.Errorf("evs[%d] = %s, want %s", i, in.evs[i].Kind, k)
		}
	}
	if d := time.Duration(in.evs[1].Arg); d != 50*time.Millisecond {
		t.Errorf("stall delay %v", d)
	}
	r, r2 := Random(Sends, 7, 5, 100), Random(Sends, 7, 5, 100)
	if len(r.Events) != 5 {
		t.Fatalf("random schedule drew %d events, want 5", len(r.Events))
	}
	for i := range r.Events {
		if r.Events[i] != r2.Events[i] {
			t.Fatal("random schedule not deterministic")
		}
		if r.Events[i].At < 0 || r.Events[i].At >= 100 {
			t.Errorf("event %d at send %d, outside [0, 100)", i, r.Events[i].At)
		}
	}
}

func TestWireDup(t *testing.T) {
	in := wire(t, "dup@1")
	rec := &sendRecorder{}
	for _, f := range frames(3) {
		if err := in.Send(f, rec.send); err != nil {
			t.Fatal(err)
		}
	}
	want := []byte{0, 1, 1, 2}
	if len(rec.sent) != len(want) {
		t.Fatalf("sent %d frames, want %d", len(rec.sent), len(want))
	}
	for i, w := range want {
		if rec.sent[i][0] != w {
			t.Errorf("wire[%d] = %d, want %d", i, rec.sent[i][0], w)
		}
	}
}

func TestWireReorder(t *testing.T) {
	in := wire(t, "reorder@0")
	rec := &sendRecorder{}
	for _, f := range frames(3) {
		if err := in.Send(f, rec.send); err != nil {
			t.Fatal(err)
		}
	}
	want := []byte{1, 0, 2} // frames 0 and 1 swapped on the wire
	for i, w := range want {
		if rec.sent[i][0] != w {
			t.Fatalf("wire order %v, want %v", rec.sent, want)
		}
	}
}

// TestWireBackToBackReorders pins that holds queue: adjacent reorders,
// and two at one ordinal (the second slips to the next send), send
// every frame exactly once, in the order the holds were taken.
func TestWireBackToBackReorders(t *testing.T) {
	for _, spec := range []string{"reorder@0,reorder@1", "reorder@0,reorder@0"} {
		in := wire(t, spec)
		rec := &sendRecorder{}
		for _, f := range frames(4) {
			if err := in.Send(f, rec.send); err != nil {
				t.Fatal(err)
			}
		}
		var got []byte
		for _, b := range rec.sent {
			got = append(got, b[0])
		}
		if want := []byte{2, 0, 1, 3}; string(got) != string(want) {
			t.Errorf("%s: wire order %v, want %v", spec, got, want)
		}
	}
}

func TestWireReorderAtTailFlushes(t *testing.T) {
	in := wire(t, "reorder@2")
	rec := &sendRecorder{}
	for _, f := range frames(3) {
		if err := in.Send(f, rec.send); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.sent) != 2 {
		t.Fatalf("held frame leaked early: %v", rec.sent)
	}
	if err := in.Flush(rec.send); err != nil {
		t.Fatal(err)
	}
	if len(rec.sent) != 3 || rec.sent[2][0] != 2 {
		t.Fatalf("flush did not release held frame: %v", rec.sent)
	}
	if err := in.Flush(rec.send); err != nil || len(rec.sent) != 3 {
		t.Fatal("second flush resent")
	}
}

func TestWireDrop(t *testing.T) {
	in := wire(t, "drop@1")
	rec := &sendRecorder{}
	if err := in.Send(frames(1)[0], rec.send); err != nil {
		t.Fatal(err)
	}
	err := in.Send([]byte{1}, rec.send)
	var drop *Fired
	if !errors.As(err, &drop) || drop.Kind != ConnDrop || drop.At != 1 {
		t.Fatalf("want a fired conn-drop at 1, got %v", err)
	}
	if len(rec.sent) != 1 {
		t.Fatalf("dropped frame reached the wire: %v", rec.sent)
	}
	// After the "reconnect", subsequent sends pass through.
	in.ConnReset()
	if err := in.Send([]byte{1}, rec.send); err != nil {
		t.Fatal(err)
	}
	if len(rec.sent) != 2 {
		t.Fatal("post-drop send missing")
	}
}

func TestWireStallUsesClockSeam(t *testing.T) {
	in := wire(t, "netstall@0:1h")
	var slept time.Duration
	in.SetSleep(func(d time.Duration) { slept += d })
	rec := &sendRecorder{}
	if err := in.Send([]byte{0}, rec.send); err != nil {
		t.Fatal(err)
	}
	if slept != time.Hour {
		t.Fatalf("slept %v, want 1h through the seam", slept)
	}
	if len(rec.sent) != 1 {
		t.Fatal("stalled frame not sent")
	}
}

func TestWireManifestAndNil(t *testing.T) {
	in := wire(t, "dup@0,drop@2")
	rec := &sendRecorder{}
	for i := 0; i < 3; i++ {
		in.Send([]byte{byte(i)}, rec.send)
	}
	m := in.Manifest()
	if len(m) != 2 || m[0].Kind != DupFrame || m[0].At != 0 || m[1].Kind != ConnDrop || m[1].At != 2 {
		t.Fatalf("manifest %v", m)
	}
	// nil injector is a transparent pass-through.
	var nilIn *Wire
	if err := nilIn.Send([]byte{9}, rec.send); err != nil {
		t.Fatal(err)
	}
	if err := nilIn.Flush(rec.send); err != nil {
		t.Fatal(err)
	}
	nilIn.ConnReset()
	if len(rec.sent) != 4 || rec.sent[3][0] != 9 {
		t.Fatalf("nil injector did not pass its frame through: %v", rec.sent)
	}
}
