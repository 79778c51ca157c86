package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "core.ingest", StartNs: 10, EndNs: 60},
		{ID: 3, Parent: 2, Name: "pcap.source", StartNs: 10, EndNs: 25},
		{ID: 4, Parent: 1, Name: "core.report", StartNs: 60, EndNs: 90},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 20, 2: 35, 3: 15, 4: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, self[id], w)
		}
	}
}

// Two sites ship at once: their spans overlap, and the op's self time
// must subtract the union of the two intervals, not their sum.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "fleet.ship", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, Name: "fleet.ship", StartNs: 30, EndNs: 70},
		{ID: 4, Parent: 1, Name: "fleet.ship", StartNs: 35, EndNs: 40},   // inside both
		{ID: 5, Parent: 1, Name: "core.render", StartNs: 90, EndNs: 120}, // runs past its parent
	}
	if got := selfTimes(spans)[1]; got != 100-60-10 {
		t.Errorf("op self time = %d, want 30 (100 minus [10,70) minus [90,100))", got)
	}
}

func TestRecorderParentsAndOps(t *testing.T) {
	r := newSpanRec()
	_, endSetup := r.start("gen.dataset", 0)
	endSetup()
	r.nextOp()
	op, endOp := r.start("op", 0)
	ingest, endIngest := r.start("core.ingest", op)
	r.add("pcap.source", ingest, time.Now(), 5*time.Millisecond)
	endIngest()
	endOp()
	if len(r.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(r.spans))
	}
	if s := r.spans[0]; s.Op != 0 || s.Parent != 0 {
		t.Errorf("set-up span = %+v, want op 0 and no parent", s)
	}
	if s := r.spans[3]; s.Parent != ingest || s.Op != 1 || s.dur() != 5*time.Millisecond {
		t.Errorf("added span = %+v, want parent %d, op 1, 5ms", s, ingest)
	}
	if r.spans[2].Parent != op {
		t.Errorf("core.ingest parent = %d, want %d", r.spans[2].Parent, op)
	}
	if got := r.total("pcap.source", 1); got != 5*time.Millisecond {
		t.Errorf("total = %v, want 5ms", got)
	}
	if got := r.total("pcap.source", 0); got != 0 {
		t.Errorf("total over set-up = %v, want 0", got)
	}
	for _, s := range r.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *spanRec
	r.nextOp()
	id, end := r.start("op", 0)
	end()
	r.add("pcap.source", id, time.Now(), time.Second)
	if id != 0 {
		t.Errorf("nil recorder handed out span id %d", id)
	}
}
