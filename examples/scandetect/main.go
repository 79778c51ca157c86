// Scandetect demonstrates the §3 scanner-removal machinery in isolation:
// it generates one trace, runs connection tracking, applies the paper's
// heuristic (>50 distinct hosts, ≥45 contacted in address order), and
// shows what was caught — including the threshold-sensitivity sweep that
// DESIGN.md calls out as an ablation.
package main

import (
	"fmt"
	"log"

	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
	"enttrace/internal/scan"
	"enttrace/internal/stats"
)

func main() {
	cfg := enterprise.D0()
	cfg.Scale = 0.5
	net := enterprise.NewNetwork(cfg)
	pkts := gen.GenerateTrace(net, 5, 0)
	fmt.Printf("trace: %d packets\n", len(pkts))

	tbl := flows.NewTable(flows.Config{})
	var p layers.Packet
	for _, pk := range pkts {
		if err := layers.Decode(pk.Data, pk.OrigLen, &p); err != nil {
			log.Fatal(err)
		}
		tbl.Packet(pk.Timestamp, &p, pk.OrigLen)
	}
	tbl.Flush()
	// The table lists connections in creation order, which is start
	// order: the first-contact order the detector keys on.
	conns := tbl.Conns()
	fmt.Printf("connections: %d\n\n", len(conns))

	res := scan.TakeCensus(conns, enterprise.KnownScanners())
	fmt.Printf("paper heuristic (>%d hosts, ≥%d ordered): %d scanners, %s of connections removed\n",
		scan.DefaultHostThreshold, scan.DefaultOrderedThreshold,
		len(res.Scanners), stats.Pct(float64(res.RemovedConns)/float64(len(conns))))
	for _, s := range res.Scanners {
		fmt.Printf("  scanner: %s\n", s)
	}

	// Threshold sensitivity: how does the removal fraction respond?
	fmt.Println("\nthreshold sensitivity (hosts / ordered → removed fraction):")
	for _, hosts := range []int{20, 50, 100} {
		for _, ordered := range []int{20, 45, 80} {
			d := scan.NewDetector()
			d.HostThreshold, d.OrderedThreshold = hosts, ordered
			d.ObserveConns(conns)
			removed := 0
			for _, c := range conns {
				if d.IsScanner(c.Key.Src) {
					removed++
				}
			}
			fmt.Printf("  >%3d hosts, ≥%2d ordered: %s\n",
				hosts, ordered, stats.Pct(float64(removed)/float64(len(conns))))
		}
	}
}
