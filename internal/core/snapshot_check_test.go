package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
)

// memberWindows returns the n largest window snapshots of one fleet
// member's run: a D3 subnet analysed in 60 s windows, as a site ships
// them.
func memberWindows(tb testing.TB, n int) [][]byte {
	cfg := enterprise.D3()
	cfg.Scale = 0.05
	cfg.Monitored = cfg.Monitored[:1]
	a := NewAnalyzer(Options{Dataset: "member", PayloadAnalysis: true, Window: time.Minute})
	for i, tr := range gen.GenerateDataset(cfg).Traces {
		if err := a.AddTrace(TraceInput{Name: traceName(i), Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			tb.Fatal(err)
		}
	}
	exports, err := a.ExportAll()
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, we := range exports {
		out = append(out, we.Payload)
	}
	slices.SortStableFunc(out, func(a, b []byte) int { return cmp.Compare(len(b), len(a)) })
	if len(out) < n {
		tb.Fatalf("the member run exported %d windows, want %d", len(out), n)
	}
	return out[:n]
}

// checkMatchesDecode fails unless CheckSnapshot refuses b exactly when
// decodeEpoch does, with the same error.
func checkMatchesDecode(t testing.TB, b []byte, what string) {
	t.Helper()
	_, err := decodeEpoch(b)
	if checkErr := CheckSnapshot(b); fmt.Sprint(checkErr) != fmt.Sprint(err) {
		t.Fatalf("%s: Check and the decode disagree\n Check: %v\ndecode: %v", what, checkErr, err)
	}
}

// TestCheckSnapshotMatchesUnmarshal holds the check program to the fold
// it restates, exhaustively over real snapshots: every truncation of a
// member's largest windows, and every one of six byte substitutions at
// every offset — the bytes that end a varint or a flag, or start a
// longer one, and the byte one above what was there.
func TestCheckSnapshotMatchesUnmarshal(t *testing.T) {
	for w, payload := range memberWindows(t, 3) {
		checkMatchesDecode(t, payload, fmt.Sprintf("window %d", w))
		if err := CheckSnapshot(payload); err != nil {
			t.Fatalf("window %d: an exported snapshot is refused: %v", w, err)
		}
		for cut := range len(payload) {
			checkMatchesDecode(t, payload[:cut], fmt.Sprintf("window %d cut at %d", w, cut))
		}
		b := bytes.Clone(payload)
		for at, was := range payload {
			for _, sub := range []byte{0x00, 0x01, 0x7f, 0x80, 0xff, was + 1} {
				b[at] = sub
				checkMatchesDecode(t, b, fmt.Sprintf("window %d byte %d %#x→%#x", w, at, was, sub))
			}
			b[at] = was
		}
	}
}

// FuzzCheckSnapshot is the same oracle under the fuzzer, seeded with a
// member's windows: whatever the bytes, CheckSnapshot and the decode
// accept together or refuse with the same error.
func FuzzCheckSnapshot(f *testing.F) {
	for _, p := range memberWindows(f, 3) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkMatchesDecode(t, b, "fuzzed snapshot")
	})
}
