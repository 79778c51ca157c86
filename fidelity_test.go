package enttrace_test

import (
	"math"
	"testing"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/stats"
)

// fidelityBand is one headline row of EXPERIMENTS as a tolerance band:
// what the paper reports, and the interval the reproduction's measure
// must fall in on every dataset and seed. A header row reads only what
// packet headers show, so it must fall in the band on the 68-byte
// datasets (D1, D2) too; a payload row must measure NaN there, since
// they carry no payload, as in the paper.
type fidelityBand struct {
	row, claim string
	header     bool
	measure    func(*core.Report) float64
	lo, hi     float64
}

// fidelityBands is the table the reproduction is held to. §3's scanner
// removal has no row: at this volume it removes 18–23 % of connections
// (52 % on D0), outside the paper's 4–18 % (EXPERIMENTS "Fidelity bands").
// Nor has §5.2.1's "RPC pipes carry more than half of CIFS requests":
// D3 and D4 measure 0.526–0.558, but D0 0.479–0.538.
var fidelityBands = []fidelityBand{
	{
		row:     "Table 3 transport mix",
		claim:   "TCP carries most bytes and UDP most connections",
		header:  true,
		measure: func(r *core.Report) float64 { return min(r.Table3.BytesFrac["TCP"], r.Table3.ConnsFrac["UDP"]) },
		// The smaller of the two shares: measured 0.855–0.896 over D0–D4
		// × seeds 1–3 at scale 0.1.
		lo: 0.75, hi: 0.95,
	},
	{
		row:    "§6 Figure 9 peak utilisation",
		claim:  "apparent peaks shrink as the averaging window grows from 1 s to 10 s to 60 s",
		header: true,
		measure: func(r *core.Report) float64 {
			peak := func(f func(core.TraceLoad) float64) float64 {
				return traceMedian(r, func(t core.TraceLoad) (float64, bool) { return f(t), true })
			}
			p1 := peak(func(t core.TraceLoad) float64 { return t.Peak1s })
			p10 := peak(func(t core.TraceLoad) float64 { return t.Peak10s })
			p60 := peak(func(t core.TraceLoad) float64 { return t.Peak60s })
			return max(p10/p1, p60/p10)
		},
		// The larger step ratio of the median trace's peaks: measured
		// 0.167–0.222.
		lo: 0.05, hi: 0.5,
	},
	{
		row:    "§6 Figure 10 retransmission",
		claim:  "retransmission stays under 1%, internal and WAN",
		header: true,
		measure: func(r *core.Report) float64 {
			// The median trace of each locality, over the traces with at
			// least 1000 data packets in it (those the paper plots); the
			// higher of the two.
			worst := math.NaN()
			for _, rate := range []func(core.TraceLoad) (float64, bool){
				func(t core.TraceLoad) (float64, bool) { return t.RetransEnt, t.EntDataPkts >= 1000 },
				func(t core.TraceLoad) (float64, bool) { return t.RetransWan, t.WanDataPkts >= 1000 },
			} {
				if m := traceMedian(r, rate); !math.IsNaN(m) && !(m <= worst) {
					worst = m
				}
			}
			return worst
		},
		// Measured 0–0.0081 (D0 seed 2's median trace retransmits
		// nothing). The worst single trace is not under 1%: one D4 trace
		// retransmits ≈7% of its internal data packets.
		lo: 0, hi: 0.01,
	},
	{
		row:   "§5.1.3 NBNS failure ≫ DNS NXDOMAIN",
		claim: "Netbios/NS queries fail ≈43% of the time, DNS far less often",
		measure: func(r *core.Report) float64 {
			nx := r.Names.DNSRcodes["NXDOMAIN"]
			if nx == 0 {
				return math.NaN()
			}
			return r.Names.NBNSFailureRate / nx
		},
		// Measured 2.25–3.19 over D0, D3, D4 × seeds 1–3 at scale 0.1.
		lo: 2, hi: 5,
	},
	{
		row:   "§5.2.2 NCP keep-alives",
		claim: "about half of NCP connections carry nothing but keep-alives",
		measure: func(r *core.Report) float64 {
			if r.FileSvc.NCPRequests == 0 {
				return math.NaN()
			}
			return r.FileSvc.NCPKeepAliveOnlyFrac
		},
		// Measured 0.286–0.710 over D0, D3, D4 × seeds 1–3 at scale 0.1.
		// D0 carries a handful of NCP connections at this scale (2 of 7 on
		// seed 2), so the band is wide; it still fails a census that
		// counts every NCP connection, or none, as keep-alive only.
		lo: 0.25, hi: 0.75,
	},
}

// TestFidelityBands holds every row of the band table on D0–D4, seeds
// 1–3, at a tenth of the paper's volume: a refactor that drifts what the
// analyzer concludes fails here, not in a hand-typed table.
func TestFidelityBands(t *testing.T) {
	if testing.Short() {
		t.Skip("fifteen dataset runs in -short mode")
	}
	for _, base := range enterprise.AllDatasets() {
		payload := base.Snaplen >= 1500
		for seed := int64(1); seed <= 3; seed++ {
			cfg := base
			cfg.Scale = 0.1
			cfg.Seed += seed
			a := core.NewAnalyzer(core.Options{Dataset: cfg.Name, KnownScanners: enterprise.KnownScanners(), PayloadAnalysis: payload})
			for _, tr := range gen.GenerateDataset(cfg).Traces {
				if err := a.AddTrace(core.TraceInput{Name: cfg.Name, Monitored: tr.Prefix, Packets: tr.Packets}); err != nil {
					t.Fatal(err)
				}
			}
			r := a.Report()
			for _, b := range fidelityBands {
				v, banded := b.measure(r), payload || b.header
				switch {
				case !banded && !math.IsNaN(v):
					t.Errorf("%s seed %d: %s measured %.3g on a header-only dataset", cfg.Name, seed, b.row, v)
				case banded && !(v >= b.lo && v <= b.hi):
					t.Errorf("%s seed %d: %s = %.3g, outside [%g, %g] (paper: %s)", cfg.Name, seed, b.row, v, b.lo, b.hi, b.claim)
				case banded:
					t.Logf("%s seed %d: %s = %.3g", cfg.Name, seed, b.row, v)
				}
			}
		}
	}
}

// traceMedian is the median over r's traces of the values f accepts, NaN
// when it accepts none.
func traceMedian(r *core.Report, f func(core.TraceLoad) (float64, bool)) float64 {
	d, n := stats.NewDist(), 0
	for _, t := range r.Load.Traces {
		if v, ok := f(t); ok {
			d.Observe(v)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return d.Median()
}
