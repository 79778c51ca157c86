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

// TestNetScheduleFiringOrderAndSeed pins the two properties a schedule
// has before an injector runs it: events fire sorted by index whatever
// order they were listed in, and a seed always draws the same events.
func TestNetScheduleFiringOrderAndSeed(t *testing.T) {
	in := NewNetInjector(NetSchedule{Events: []NetEvent{
		{Kind: ConnDrop, Index: 10},
		{Kind: NetStall, Index: 5, Delay: 50 * time.Millisecond},
		{Kind: DupFrame, Index: 3},
		{Kind: ReorderFrame, Index: 7},
	}})
	wantKinds := []NetKind{DupFrame, NetStall, ReorderFrame, ConnDrop}
	for i, k := range wantKinds {
		if in.evs[i].Kind != k {
			t.Errorf("evs[%d] = %s, want %s", i, in.evs[i].Kind, k)
		}
	}
	if in.evs[1].Delay != 50*time.Millisecond {
		t.Errorf("stall delay %v", in.evs[1].Delay)
	}
	r, r2 := RandomNetSchedule(7, 5, 100), RandomNetSchedule(7, 5, 100)
	if len(r.Events) != 5 {
		t.Fatalf("random schedule drew %d events, want 5", len(r.Events))
	}
	for i := range r.Events {
		if r.Events[i] != r2.Events[i] {
			t.Fatal("random schedule not deterministic")
		}
		if r.Events[i].Index < 0 || r.Events[i].Index >= 100 {
			t.Errorf("event %d at send %d, outside [0, 100)", i, r.Events[i].Index)
		}
	}
}

func TestNetInjectorDup(t *testing.T) {
	in := NewNetInjector(NetSchedule{Events: []NetEvent{{Kind: DupFrame, Index: 1}}})
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

func TestNetInjectorReorder(t *testing.T) {
	in := NewNetInjector(NetSchedule{Events: []NetEvent{{Kind: ReorderFrame, Index: 0}}})
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

func TestNetInjectorReorderAtTailFlushes(t *testing.T) {
	in := NewNetInjector(NetSchedule{Events: []NetEvent{{Kind: ReorderFrame, Index: 2}}})
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

func TestNetInjectorDrop(t *testing.T) {
	in := NewNetInjector(NetSchedule{Events: []NetEvent{{Kind: ConnDrop, Index: 1}}})
	rec := &sendRecorder{}
	if err := in.Send(frames(1)[0], rec.send); err != nil {
		t.Fatal(err)
	}
	err := in.Send([]byte{1}, rec.send)
	var drop *ErrInjectedDrop
	if !errors.As(err, &drop) || drop.At != 1 {
		t.Fatalf("want ErrInjectedDrop at 1, got %v", err)
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

func TestNetInjectorStallUsesClockSeam(t *testing.T) {
	in := NewNetInjector(NetSchedule{Events: []NetEvent{{Kind: NetStall, Index: 0, Delay: time.Hour}}})
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

func TestNetInjectorManifestAndNil(t *testing.T) {
	in := NewNetInjector(NetSchedule{Events: []NetEvent{{Kind: DupFrame, Index: 0}, {Kind: ConnDrop, Index: 2}}})
	rec := &sendRecorder{}
	for i := 0; i < 3; i++ {
		in.Send([]byte{byte(i)}, rec.send)
	}
	m := in.Manifest()
	if len(m) != 2 || m[0].Kind != DupFrame || m[0].At != 0 || m[1].Kind != ConnDrop || m[1].At != 2 {
		t.Fatalf("manifest %v", m)
	}
	// nil injector is a transparent pass-through.
	var nilIn *NetInjector
	if err := nilIn.Send([]byte{9}, rec.send); err != nil {
		t.Fatal(err)
	}
	if err := nilIn.Flush(rec.send); err != nil {
		t.Fatal(err)
	}
	nilIn.ConnReset()
	nilIn.SetSleep(nil)
	if nilIn.Manifest() != nil {
		t.Fatal("nil injector has a manifest")
	}
}
