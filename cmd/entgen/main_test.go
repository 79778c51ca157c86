package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
)

// checkPcap reads the pcap run wrote at path back through pcap.Reader
// and holds it, record for record, to the packets the generator returns
// in memory: timestamps at the file's microsecond resolution, wire
// lengths, captured bytes. A buffered writer that was not flushed before
// the close shows here as a short or torn file.
func checkPcap(t *testing.T, path string, want []*pcap.Packet) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := pcap.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	got, err := pcap.ReadAll(rd)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%s holds %d records, the generator produced %d", path, len(got), len(want))
	}
	for i, p := range got {
		w := want[i]
		if ts := w.Timestamp.Truncate(time.Microsecond); !p.Timestamp.Equal(ts) {
			t.Fatalf("%s record %d: timestamp %v, want %v", path, i, p.Timestamp, ts)
		}
		if p.OrigLen != w.OrigLen || !bytes.Equal(p.Data, w.Data) {
			t.Fatalf("%s record %d: %d bytes captured of %d on the wire, want %d of %d",
				path, i, len(p.Data), p.OrigLen, len(w.Data), w.OrigLen)
		}
	}
}

// TestRunWritesWhatTheGeneratorProduces drives run() down each of its
// three output paths into a scratch directory and reads every file back.
func TestRunWritesWhatTheGeneratorProduces(t *testing.T) {
	t.Run("dataset", func(t *testing.T) {
		dir := t.TempDir()
		var stdout bytes.Buffer
		if err := run([]string{"-dataset", "D0", "-scale", "0.1", "-subnets", "2", "-out", dir}, &stdout, io.Discard); err != nil {
			t.Fatal(err)
		}
		cfg := enterprise.D0()
		cfg.Scale = 0.1
		cfg.Monitored = cfg.Monitored[:2]
		ds := gen.GenerateDataset(cfg)
		if len(ds.Traces) != 2 {
			t.Fatalf("reference dataset has %d traces, want 2", len(ds.Traces))
		}
		for _, tr := range ds.Traces {
			path := filepath.Join(dir, fmt.Sprintf("D0-subnet%02d-tap%d.pcap", tr.Subnet, tr.Tap))
			checkPcap(t, path, tr.Packets)
			if line := fmt.Sprintf("%s: %d packets\n", path, len(tr.Packets)); !bytes.Contains(stdout.Bytes(), []byte(line)) {
				t.Errorf("stdout %q lacks %q", stdout.String(), line)
			}
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != len(ds.Traces) {
			t.Errorf("wrote %v, want one file per trace", files)
		}
	})

	// The streamed path, on a header dataset: 68 bytes kept of each
	// frame, against the materialized scheduled trace.
	t.Run("schedule", func(t *testing.T) {
		dir := t.TempDir()
		if err := run([]string{"-dataset", "D1", "-schedule", "default", "-out", dir}, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		cfg := enterprise.D1()
		subnet := cfg.Monitored[0]
		want := gen.GenerateScheduledTrace(enterprise.NewNetwork(cfg), subnet, 0, gen.DefaultSchedule())
		checkPcap(t, filepath.Join(dir, fmt.Sprintf("D1-scheduled-subnet%02d.pcap", subnet)), want)
	})

	t.Run("evasion", func(t *testing.T) {
		dir := t.TempDir()
		if err := run([]string{"-evasion", "gap-maxpending", "-out", dir}, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		sc, ok := gen.EvasionScenarioByName("gap-maxpending")
		if !ok {
			t.Fatal("scenario gap-maxpending is gone")
		}
		checkPcap(t, filepath.Join(dir, "evasion-gap-maxpending.pcap"), sc.Build().Packets)
	})
}

// TestUsageErrors drives run down every bad invocation it can refuse:
// each is a usage error (exit 2) returned before the output directory
// is created, and -h is not an error at all.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // a fragment of the message
	}{
		{"unknown flag", []string{"-on-error", "skip"}, "flag provided but not defined: -on-error"},
		{"flag value", []string{"-scale", "big"}, "invalid value"},
		{"dataset", []string{"-dataset", "D9"}, `unknown dataset "D9"`},
		{"evasion", []string{"-evasion", "no-such-scenario"}, "no-such-scenario"},
		{"schedule", []string{"-schedule", "sprint:10s:5"}, "sprint"},
		{"schedule beside evasion", []string{"-evasion", "all", "-schedule", "sprint:10s:5"}, "sprint"},
		{"duration without schedule", []string{"-duration", "1m"}, "-duration requires -schedule"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			var stdout, stderr bytes.Buffer
			err := run(append(tc.args, "-out", out), &stdout, &stderr)
			var ue *usageError
			if !errors.As(err, &ue) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) = %v, want a usage error mentioning %q", tc.args, err, tc.want)
			}
			if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("run(%q) created -out before failing (%v)", tc.args, err)
			}
			if stdout.Len() != 0 || stderr.Len() != 0 {
				t.Errorf("run(%q) wrote %q to stdout and %q to stderr", tc.args, stdout.String(), stderr.String())
			}
		})
	}
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &stderr); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 7 {
		t.Errorf("-h lists %d flags, want 7:\n%s", n, stderr.String())
	}
}
