package core

import (
	"math/rand"
	"testing"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/pcap"
)

// TestCorruptedTraceRobustness injects random corruption into a generated
// trace — flipped bytes, truncated frames, duplicated and dropped
// packets — and verifies the full pipeline neither panics nor produces
// degenerate output. Real captures contain exactly this kind of damage
// (the paper observed receivers ACKing data absent from the trace).
func TestCorruptedTraceRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end analysis in -short mode")
	}
	cfg := enterprise.D3()
	cfg.Scale = 0.15
	cfg.Monitored = []int{5, 6}
	ds := gen.GenerateDataset(cfg)
	rng := rand.New(rand.NewSource(99))

	for _, tr := range ds.Traces {
		var mangled []*pcap.Packet
		for _, pk := range tr.Packets {
			r := rng.Float64()
			switch {
			case r < 0.02: // drop
				continue
			case r < 0.04: // duplicate
				mangled = append(mangled, pk, pk)
			case r < 0.08: // flip a byte
				cp := make([]byte, len(pk.Data))
				copy(cp, pk.Data)
				if len(cp) > 0 {
					cp[rng.Intn(len(cp))] ^= 0xFF
				}
				mangled = append(mangled, &pcap.Packet{Timestamp: pk.Timestamp, Data: cp, OrigLen: pk.OrigLen})
			case r < 0.12: // truncate mid-frame
				n := 1 + rng.Intn(len(pk.Data))
				mangled = append(mangled, &pcap.Packet{Timestamp: pk.Timestamp, Data: pk.Data[:n], OrigLen: pk.OrigLen})
			default:
				mangled = append(mangled, pk)
			}
		}
		tr.Packets = mangled
	}

	a := NewAnalyzer(Options{Dataset: "corrupt", KnownScanners: enterprise.KnownScanners(), PayloadAnalysis: true})
	for _, tr := range ds.Traces {
		if err := a.AddTrace(TraceInput{Name: "m", Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
			t.Fatal(err)
		}
	}
	r := a.Report()
	if r.Table1.Packets == 0 || r.Table3.TotalConns == 0 {
		t.Fatal("corrupted trace produced no output")
	}
	// The broad shapes survive 10% corruption.
	if r.Table2["IP"] < 0.8 {
		t.Errorf("IP fraction collapsed to %v", r.Table2["IP"])
	}
	if r.Table3.ConnsFrac["UDP"] < 0.4 {
		t.Errorf("UDP conn share collapsed to %v", r.Table3.ConnsFrac["UDP"])
	}
}

// TestEmptyAndTinyTraces exercises degenerate inputs.
func TestEmptyAndTinyTraces(t *testing.T) {
	a := NewAnalyzer(Options{Dataset: "tiny"})
	if err := a.AddTrace(TraceInput{Name: "empty", Monitored: enterprise.SubnetPrefix(1)}); err != nil {
		t.Fatal(err)
	}
	r := a.Report()
	if r.Table1.Packets != 0 || r.Scan.RemovedFraction != 0 {
		t.Errorf("empty trace: %+v", r.Table1)
	}
	if len(r.Findings) != 0 {
		t.Errorf("findings from nothing: %v", r.Findings)
	}
}
