package fleet_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/fleet"
	"enttrace/internal/gen"
)

// snapshotType digs the epoch snapshot type out of core.Analyzer — the
// aggregate a local window slot holds (Analyzer.local.slots[n].agg): the
// type is private to core, and the reference walk is private to this
// package's tests, so this is the one place both can be had.
func snapshotType(t *testing.T) reflect.Type {
	t.Helper()
	fail := func() {
		t.Fatal("core.Analyzer no longer keeps its window aggregates at local.slots[n].agg: point this at the type ExportWindow marshals")
	}
	local, ok := reflect.TypeOf((*core.Analyzer)(nil)).Elem().FieldByName("local")
	if !ok || local.Type.Kind() != reflect.Pointer {
		fail()
	}
	slots, ok := local.Type.Elem().FieldByName("slots")
	if !ok || slots.Type.Kind() != reflect.Map {
		fail()
	}
	f, ok := slots.Type.Elem().FieldByName("agg")
	if !ok || f.Type.Kind() != reflect.Pointer || f.Type.Elem().Kind() != reflect.Struct {
		fail()
	}
	return f.Type.Elem()
}

// TestSnapshotBytesMatchReferenceWalk runs the differential over the
// real thing: every window snapshot a windowed D3 analysis exports
// (encoded by the plans) decodes to the same value through the plans
// and through the reference walk, re-encodes to the exported bytes'
// canonical form through both encoders from either decode, and the
// schema hash in every HELLO is the one the reference walk computes — so
// a site and an aggregator on either side of the plan change
// interoperate. The canonical form is what the reference re-encodes its
// own decode to: a decode folds into a zero value, so a window that
// ships an empty map (window 0 ships five) re-encodes it absent. It is a
// fixed point of the decode.
func TestSnapshotBytesMatchReferenceWalk(t *testing.T) {
	typ := snapshotType(t)
	fresh := func() any { return reflect.New(typ).Interface() }
	if got, want := core.SnapshotSchema(), fleet.RefSchemaOf(fresh()); got != want {
		t.Fatalf("core.SnapshotSchema() = %#x, the reference walk hashes the same type to %#x", got, want)
	}

	cfg := enterprise.D3()
	cfg.Scale = 0.2
	cfg.Monitored = cfg.Monitored[:2]
	ds := gen.GenerateDataset(cfg)
	a := core.NewAnalyzer(core.Options{Dataset: "D3", PayloadAnalysis: true, Window: time.Minute})
	for i, tr := range ds.Traces {
		if err := a.AddTrace(core.TraceInput{Name: string(rune('a' + i)), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			t.Fatal(err)
		}
	}
	exports, err := a.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) < 10 {
		t.Fatalf("only %d windows exported; the run is too small to mean much", len(exports))
	}
	for _, we := range exports {
		plan, ref := fresh(), fresh()
		if err := fleet.Decode(we.Payload, plan); err != nil {
			t.Fatalf("window %d: plan decode: %v", we.Window, err)
		}
		if err := fleet.RefUnmarshal(we.Payload, ref); err != nil {
			t.Fatalf("window %d: reference decode: %v", we.Window, err)
		}
		if !reflect.DeepEqual(plan, ref) {
			t.Fatalf("window %d: plan and reference decode to different snapshots", we.Window)
		}
		canon, err := fleet.RefMarshal(ref)
		if err != nil {
			t.Fatalf("window %d: %v", we.Window, err)
		}
		again := fresh()
		if err := fleet.Decode(canon, again); err != nil {
			t.Fatalf("window %d: the canonical form does not decode: %v", we.Window, err)
		}
		for name, v := range map[string]any{"plan": plan, "reference": ref, "canonical": again} {
			re, err := fleet.Marshal(v)
			if err != nil {
				t.Fatalf("window %d: %v", we.Window, err)
			}
			refRe, err := fleet.RefMarshal(v)
			if err != nil {
				t.Fatalf("window %d: %v", we.Window, err)
			}
			if !bytes.Equal(re, canon) || !bytes.Equal(refRe, canon) {
				t.Fatalf("window %d: the %s decode re-encodes to %d bytes by plan, %d by reference; canonical %d",
					we.Window, name, len(re), len(refRe), len(canon))
			}
		}
	}
}
