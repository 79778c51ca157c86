package dns

import (
	"net/netip"
	"testing"
	"time"

	"enttrace/internal/fleet"
)

// TestCutPairsAcrossCut pins the epoch contract's key property: a query
// observed before a cut pairs with its response after it, the latency
// banks into the epoch where the pairing completed, and merging the
// cuts reproduces the statistics of the analyzer that was never cut
// (including the cross-operation dedup).
func TestCutPairsAcrossCut(t *testing.T) {
	client := netip.MustParseAddr("10.0.0.1")
	server := netip.MustParseAddr("10.0.0.53")
	t0 := time.Date(2005, 1, 6, 0, 0, 0, 0, time.UTC)

	run := func(cutMid bool) *Analyzer {
		a := NewAnalyzer()
		var cuts []*Analyzer
		a.Message(t0, client, server, &Message{ID: 1, QName: "a.example", QType: TypeA})
		if cutMid {
			cuts = append(cuts, fleet.Cut(a))
			if a.Types.Total() != 0 || a.Latency.N() != 0 {
				t.Fatal("cut left banked stats")
			}
			if fleet.Cut(a) != nil {
				t.Fatal("second cut with nothing banked is not nil")
			}
		}
		// Response pairs across the cut; a retry of the same operation
		// afterwards must still dedup against seenOp.
		a.Message(t0.Add(5*time.Millisecond), server, client, &Message{ID: 1, Response: true, Rcode: RcodeNoError, QName: "a.example", QType: TypeA})
		a.Message(t0.Add(time.Second), client, server, &Message{ID: 2, QName: "a.example", QType: TypeA})
		a.Message(t0.Add(time.Second+4*time.Millisecond), server, client, &Message{ID: 2, Response: true, Rcode: RcodeNoError, QName: "a.example", QType: TypeA})
		if !cutMid {
			return a
		}
		cuts = append(cuts, fleet.Cut(a))
		// A cut shares no mutable state with its source: what the source
		// banks afterwards must not leak into it.
		a.Message(t0.Add(2*time.Second), client, server, &Message{ID: 3, QName: "b.example", QType: TypeA})
		merged := NewAnalyzer()
		for _, c := range cuts {
			fleet.Merge(merged, c)
		}
		return merged
	}

	whole, cut := run(false), run(true)
	if got, want := cut.Latency.N(), whole.Latency.N(); got != want {
		t.Errorf("latency samples across cut: %d, want %d", got, want)
	}
	if got, want := cut.Rcodes.Total(), whole.Rcodes.Total(); got != want {
		t.Errorf("deduped rcode count across cut: %d, want %d (retries must not double-count)", got, want)
	}
	if got, want := cut.Types.Total(), whole.Types.Total(); got != want {
		t.Errorf("type counts: %d, want %d", got, want)
	}
}
