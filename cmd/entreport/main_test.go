package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

// TestSelectDatasets pins -datasets: known names resolve in D0..D4
// order whatever order they were given in, and a name that is not a
// dataset is a usage error naming it — it used to select nothing and
// exit 0 with an empty report.
func TestSelectDatasets(t *testing.T) {
	got, err := selectDatasets("D3, D1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "D1" || got[1].Name != "D3" {
		t.Errorf("selected %v, want D1 then D3", got)
	}
	for _, c := range []struct{ spec, unknown string }{
		{"D9", "D9"}, {"D1,D9", "D9"}, {"d1", "d1"}, {"", ""}, {"D1,", ""},
	} {
		_, err := selectDatasets(c.spec)
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Errorf("-datasets %q: got %v, want a usage error", c.spec, err)
		} else if !strings.Contains(err.Error(), `"`+c.unknown+`"`) {
			t.Errorf("-datasets %q: error %q does not name %q", c.spec, err, c.unknown)
		}
	}
}

// TestUsageErrors drives run down every bad invocation it can refuse:
// each is a usage error (exit 2) returned before any dataset is
// generated or anything is written, and -h is not an error at all.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // a fragment of the message
	}{
		{"unknown flag", []string{"-gen", "default"}, "flag provided but not defined: -gen"},
		{"flag value", []string{"-scale", "big"}, "invalid value"},
		{"format", []string{"-format", "xml"}, "unknown -format"},
		{"dataset", []string{"-datasets", "D1,D9"}, `unknown dataset "D9"`},
		{"on-error", []string{"-on-error", "retry"}, "unknown -on-error"},
		{"inject", []string{"-inject", "melt@3"}, "melt"},
		{"inject wire kind", []string{"-inject", "drop@3"}, "drop counts frames sent, not packets read"},
		{"inject wire random", []string{"-inject", "netrand:1:5:20"}, "frames sent"},
		{"schedule", []string{"-schedule", "sprint:10s:5"}, "sprint"},
		{"duration without schedule", []string{"-duration", "1m"}, "-duration requires -schedule"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			var ue *usageError
			if !errors.As(err, &ue) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) = %v, want a usage error mentioning %q", tc.args, err, tc.want)
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
	if n := strings.Count(stderr.String(), "\n  -"); n != 12 {
		t.Errorf("-h lists %d flags, want 12:\n%s", n, stderr.String())
	}
}

// TestReportMatchesLibrary holds run's JSON for one small dataset to an
// Analyzer fed the same generated traces, and its stderr to the timing
// line alone: -format json keeps stdout one document.
func TestReportMatchesLibrary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-datasets", "D0", "-scale", "0.05", "-subnets", "2", "-window", "60s", "-format", "json"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	cfg := enterprise.D0()
	cfg.Scale, cfg.Monitored = 0.05, cfg.Monitored[:2]
	a := core.NewAnalyzer(core.Options{
		Dataset:         cfg.Name,
		KnownScanners:   enterprise.KnownScanners(),
		PayloadAnalysis: true,
		Window:          time.Minute,
	})
	for _, tr := range gen.GenerateDataset(cfg).Traces {
		if err := a.AddTrace(core.TraceInput{Name: fmt.Sprintf("D0/subnet%d/tap%d", tr.Subnet, tr.Tap), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if err := core.WriteRunJSON(&want, a.WindowReports(), a.Report()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Errorf("run wrote %d bytes of JSON, the library %d, and they differ", stdout.Len(), want.Len())
	}
	if !strings.HasPrefix(stderr.String(), "[D0: generated ") || strings.Count(stderr.String(), "\n") != 2 {
		t.Errorf("stderr = %q, want the timing line alone", stderr.String())
	}
}
