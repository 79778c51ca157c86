package gen

import (
	"reflect"
	"testing"
	"time"

	"enttrace/internal/enterprise"
)

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("ramp:60s:0-30,burst:30s:120,quiet:90s,steady:2m:20")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 4 {
		t.Fatalf("want 4 phases, got %d", len(s.Phases))
	}
	if s.Duration() != 60*time.Second+30*time.Second+90*time.Second+2*time.Minute {
		t.Errorf("duration = %s", s.Duration())
	}
	if p := s.Phases[0]; p.Kind != PhaseRamp || p.Rate0 != 0 || p.Rate1 != 30 {
		t.Errorf("ramp parsed as %+v", p)
	}
	if p := s.Phases[2]; p.Kind != PhaseQuiet || p.Rate0 != 0 || p.Rate1 != 0 {
		t.Errorf("quiet parsed as %+v", p)
	}
	for _, bad := range []string{
		"", "ramp:60s", "ramp:60s:5", "quiet:60s:5", "steady:60s",
		"warp:60s:5", "steady:-1s:5", "steady:60s:-5", "ramp:60s:5-x",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q): want error", bad)
		}
	}
	if s, err := ParseSchedule("default"); err != nil || !reflect.DeepEqual(s, DefaultSchedule()) {
		t.Errorf(`ParseSchedule("default") = %+v, %v; want DefaultSchedule()`, s, err)
	}
}

func TestSessionOffsetsDeterministicAndShaped(t *testing.T) {
	s := DefaultSchedule()
	a, b := s.SessionOffsets(), s.SessionOffsets()
	if len(a) == 0 {
		t.Fatal("no sessions")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offsets differ at %d: %s vs %s", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("offsets not monotone at %d", i)
		}
	}
	// Count sessions per schedule minute: ramp < burst, quiet empty,
	// steady near its configured rate.
	perMin := make(map[int]int)
	for _, off := range a {
		perMin[int(off/time.Minute)]++
	}
	if perMin[1] <= perMin[0] {
		t.Errorf("burst minute (%d) should exceed ramp minute (%d)", perMin[1], perMin[0])
	}
	if perMin[2] != 0 {
		t.Errorf("quiet minute has %d sessions", perMin[2])
	}
	if perMin[3] < 15 || perMin[3] > 21 {
		t.Errorf("steady minute = %d sessions, want ~18", perMin[3])
	}
}

func TestGenerateScheduledTraceDeterministic(t *testing.T) {
	cfg := enterprise.D3()
	cfg.Scale = 1
	gen1 := GenerateScheduledTrace(enterprise.NewNetwork(cfg), cfg.Monitored[0], 0, DefaultSchedule())
	gen2 := GenerateScheduledTrace(enterprise.NewNetwork(cfg), cfg.Monitored[0], 0, DefaultSchedule())
	if len(gen1) == 0 {
		t.Fatal("empty scheduled trace")
	}
	if len(gen1) != len(gen2) {
		t.Fatalf("runs differ in packet count: %d vs %d", len(gen1), len(gen2))
	}
	for i := range gen1 {
		if !gen1[i].Timestamp.Equal(gen2[i].Timestamp) || string(gen1[i].Data) != string(gen2[i].Data) {
			t.Fatalf("runs differ at packet %d", i)
		}
	}
	// The first packet anchors the schedule origin exactly.
	if !gen1[0].Timestamp.Equal(cfg.Date) {
		t.Errorf("first packet at %s, want schedule origin %s", gen1[0].Timestamp, cfg.Date)
	}
	// No packet beyond the schedule (sessions near the end still finish
	// with RTT-scale pacing; give a small grace).
	last := gen1[len(gen1)-1].Timestamp
	if last.After(cfg.Date.Add(DefaultSchedule().Duration() + time.Minute)) {
		t.Errorf("last packet at %s, far beyond schedule end", last)
	}
}
