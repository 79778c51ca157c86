package enttrace_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"enttrace/internal/core"
	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/stats"
)

// fidelityBand is one headline row of EXPERIMENTS as a tolerance band:
// what the paper reports, and the interval the reproduction's measure
// must fall in on every seed of each dataset the row holds on. A header
// row reads only what packet headers show, so it must fall in the band
// on the 68-byte datasets (D1, D2) too; a payload row must measure NaN
// there, since they carry no payload, as in the paper.
type fidelityBand struct {
	row, claim string
	header     bool
	// datasets names the datasets the row holds on; nil is all five. A
	// payload row still measures NaN on a header-only dataset it omits.
	datasets []string
	measure  func(*core.Report) float64
	lo, hi   float64
}

// fidelityBands is the table the reproduction is held to. Each band is
// the range measured over D0–D4 × seeds 1–3 at scale 0.1, widened by the
// margin its comment shows, never so far that the paper's claim stops
// holding inside it.
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
	{
		row:     "Table 2 network layer",
		claim:   "IP carries nearly every packet",
		header:  true,
		measure: func(r *core.Report) float64 { return r.Table2["IP"] },
		// Measured 0.984–0.992; the band reaches 1.4 points below.
		lo: 0.97, hi: 1,
	},
	{
		row:      "§3 scanner removal",
		claim:    "scanners are found and removed (the paper's 4–18% share is not reproduced)",
		header:   true,
		datasets: []string{"D1", "D2", "D3", "D4"},
		measure:  func(r *core.Report) float64 { return r.Scan.RemovedFraction },
		// Measured 0.184–0.230 on D1–D4. D0 reads 0.506–0.520: the sweeps
		// are a fixed count a trace whatever the volume, and D0's traces
		// are the lightest (ROADMAP item 19). The floor sits above the
		// 0.120–0.157 the two known scanners remove alone, so a heuristic
		// that finds nothing fails too.
		lo: 0.17, hi: 0.25,
	},
	{
		row:     "Figure 1 name-service connections",
		claim:   "name services carry the most connections",
		header:  true,
		measure: func(r *core.Report) float64 { return category(r, "name").ConnsTotal() },
		// Measured 0.377–0.496; the next category peaks at 0.078.
		lo: 0.35, hi: 0.55,
	},
	{
		row:     "Figure 1 name-service bytes",
		claim:   "name services carry almost no bytes",
		header:  true,
		measure: func(r *core.Report) float64 { return category(r, "name").BytesTotal() },
		// Measured 0.0050–0.0139.
		lo: 0, hi: 0.02,
	},
	{
		row:     "§4 origins",
		claim:   "most traffic is enterprise-internal",
		header:  true,
		measure: func(r *core.Report) float64 { return r.Origins["ent-ent"] },
		// ent-ent's share of flows: measured 0.540–0.647.
		lo: 0.5, hi: 0.7,
	},
	{
		row:   "Table 6 automated HTTP",
		claim: "automated clients carry a large share of internal HTTP bytes",
		measure: func(r *core.Report) float64 {
			if r.HTTP.InternalBytes == 0 {
				return math.NaN()
			}
			var auto float64
			for _, s := range r.HTTP.Automated {
				auto += s.ByteFrac
			}
			return auto
		},
		// Measured 0.797–0.998 over D0, D3, D4.
		lo: 0.75, hi: 1,
	},
	{
		row:      "§5.1.1 conditional GETs",
		claim:    "internal requests are conditional more often than WAN ones",
		datasets: []string{"D3", "D4"},
		measure:  func(r *core.Report) float64 { return ratio(r.HTTP.CondEnt, r.HTTP.CondWan) },
		// Internal over WAN conditional share: measured 1.09–3.40. D0's
		// one to four internal web clients read 0–4.5.
		lo: 1.05, hi: 4,
	},
	{
		row:      "§5.1.3 DNS latency",
		claim:    "internal DNS answers far faster than WAN DNS",
		datasets: []string{"D3", "D4"},
		measure: func(r *core.Report) float64 {
			return ratio(r.Names.DNSMedianLatencyEntMs, r.Names.DNSMedianLatencyWanMs)
		},
		// Internal over WAN median latency: measured 0.0040–0.0061; the
		// band's top is two orders of magnitude. D0's vantages see no WAN
		// DNS exchange.
		lo: 0.002, hi: 0.01,
	},
	{
		row:    "Table 9 Windows outcomes",
		claim:  "CIFS sees mass rejection from parallel 139/445 dialing, Netbios/SSN almost none",
		header: true,
		measure: func(r *core.Report) float64 {
			return r.Windows.Table9["CIFS"].Rejected - r.Windows.Table9["Netbios/SSN"].Rejected
		},
		// CIFS's rejected share of host pairs less Netbios/SSN's: measured
		// 0.143–0.366.
		lo: 0.1, hi: 0.4,
	},
	{
		row:      "Table 10 CIFS mix",
		claim:    "RPC pipes carry more than half of CIFS requests",
		datasets: []string{"D3", "D4"},
		measure: func(r *core.Report) float64 {
			if r.Windows.CIFSTotalRequests == 0 {
				return math.NaN()
			}
			return r.Windows.CIFSRequests["RPC Pipes"]
		},
		// Measured 0.526–0.558; D0 reads 0.479–0.538 and is not
		// reproduced.
		lo: 0.5, hi: 0.6,
	},
	{
		row:      "Table 11 DCE/RPC at the print vantage",
		claim:    "at the print-server vantage Spoolss/WritePrinter dominates DCE/RPC requests",
		datasets: []string{"D3", "D4"},
		measure: func(r *core.Report) float64 {
			if r.Windows.RPCTotalRequests == 0 {
				return math.NaN()
			}
			return r.Windows.RPCRequests["Spoolss/WritePrinter"]
		},
		// Measured 0.622–0.698. The paper's D0 half, NetLogon and LsaRPC
		// leading, is not reproduced at this scale: D0's vantages include
		// the print subnet and WritePrinter reads 0.405–0.485 there
		// (examples/vantage shows the flip on a mail/auth vantage).
		lo: 0.55, hi: 0.75,
	},
	{
		row:   "Table 13 NFS requests",
		claim: "read, write and getattr make up most NFS requests",
		measure: func(r *core.Report) float64 {
			if r.FileSvc.NFSRequests == 0 {
				return math.NaN()
			}
			mix := r.FileSvc.NFSRequestMix
			return mix["Read"] + mix["Write"] + mix["GetAttr"]
		},
		// Measured 0.786–0.840.
		lo: 0.7, hi: 0.9,
	},
	{
		row:   "§5.2.2 NFS transport",
		claim: "most NFS host pairs talk over UDP",
		measure: func(r *core.Report) float64 {
			if r.FileSvc.NFSRequests == 0 {
				return math.NaN()
			}
			f := r.FileSvc
			return float64(f.NFSUDPPairs) / float64(f.NFSUDPPairs+f.NFSTCPPairs)
		},
		// UDP's share of NFS host pairs: measured 0.636–0.917.
		lo: 0.6, hi: 0.95,
	},
	{
		row:   "Figure 7 heavy hitters",
		claim: "a few host pairs carry most file-service requests",
		measure: func(r *core.Report) float64 {
			if r.FileSvc.NFSRequests == 0 || r.FileSvc.NCPRequests == 0 {
				return math.NaN()
			}
			return min(r.FileSvc.NFSTop3Share, r.FileSvc.NCPTop3Share)
		},
		// The smaller of NFS's and NCP's top-3 pair shares: measured
		// 0.815–0.898.
		lo: 0.75, hi: 0.95,
	},
	{
		row:      "Table 15 backup",
		claim:    "Dantz moves data both ways (Veritas's one-way data is not measured)",
		header:   true,
		datasets: []string{"D3", "D4"},
		measure: func(r *core.Report) float64 {
			if r.Backup.Conns["DANTZ"] == 0 {
				return math.NaN()
			}
			return r.Backup.DantzBidirFrac
		},
		// Measured 1 on every D3 and D4 run. D1 and D2 hold one to six Dantz
		// connections and read 0–1. The report does not measure Veritas's
		// direction (the generator emits it one-way), so the row holds the
		// Dantz half only.
		lo: 0.9, hi: 1,
	},
	{
		row:    "§6 load",
		claim:  "the network runs far from saturation",
		header: true,
		measure: func(r *core.Report) float64 {
			return traceMedian(r, func(t core.TraceLoad) (float64, bool) { return t.Peak1s, true })
		},
		// The median trace's busiest second, in Mb/s on 100 Mb/s links:
		// measured 0.295–11.1 (D0 0.295–0.774).
		lo: 0.25, hi: 12,
	},
	{
		row:      "Figure 5 IMAP/S durations",
		claim:    "internal IMAP/S connections last orders of magnitude longer than WAN ones",
		header:   true,
		datasets: []string{"D1", "D2"},
		measure:  func(r *core.Report) float64 { return ratio(r.Email.MedianIMAPSDurEnt, r.Email.MedianIMAPSDurWan) },
		// Internal over WAN median duration: measured 2 120–6 320 on D1
		// and D2, the datasets whose vantages see WAN IMAP/S; the band is
		// three to four orders of magnitude.
		lo: 1e3, hi: 1e4,
	},
	{
		row:      "§5 SSH",
		claim:    "SSH is a login facility that sometimes moves bulk data",
		header:   true,
		datasets: []string{"D1", "D2", "D3", "D4"},
		measure: func(r *core.Report) float64 {
			if r.Interactive.SSHConns == 0 {
				return math.NaN()
			}
			return r.Interactive.SSHBulkFrac
		},
		// SSH connections moving ≥ 200 KB: measured 0.045–0.105 on D1–D4.
		// D0's 6–14 SSH connections read 0–0.167.
		lo: 0.03, hi: 0.15,
	},
}

// TestFidelityBands holds every row of the band table on D0–D4, seeds
// 1–3, at a tenth of the paper's volume: a refactor that drifts what the
// analyzer concludes fails here, not in a hand-typed table. Under -v it
// logs the table as EXPERIMENTS' headline comparison prints it: per row,
// the paper's claim, the band and each dataset's min–max over the seeds.
func TestFidelityBands(t *testing.T) {
	if testing.Short() {
		t.Skip("fifteen dataset runs in -short mode")
	}
	datasets := enterprise.AllDatasets()
	// seen[i][d] is row i's measured range on dataset d.
	seen := make([][][2]float64, len(fidelityBands))
	for i := range seen {
		seen[i] = make([][2]float64, len(datasets))
		for d := range seen[i] {
			seen[i][d] = [2]float64{math.Inf(1), math.Inf(-1)}
		}
	}
	for d, base := range datasets {
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
			for i, b := range fidelityBands {
				v, banded := b.measure(r), payload || b.header
				switch {
				case !banded && !math.IsNaN(v):
					t.Errorf("%s seed %d: %s measured %.3g on a header-only dataset", cfg.Name, seed, b.row, v)
				case banded && b.holdsOn(cfg.Name) && !(v >= b.lo && v <= b.hi):
					t.Errorf("%s seed %d: %s = %.3g, outside [%g, %g] (paper: %s)", cfg.Name, seed, b.row, v, b.lo, b.hi, b.claim)
				}
				if s := &seen[i][d]; !math.IsNaN(v) {
					s[0], s[1] = min(s[0], v), max(s[1], v)
				}
			}
		}
	}
	for i, b := range fidelityBands {
		line := fmt.Sprintf("| %s | %s | [%g, %g] |", b.row, b.claim, b.lo, b.hi)
		for d, s := range seen[i] {
			switch {
			case s[0] > s[1]:
				line += " — |"
			case b.holdsOn(datasets[d].Name):
				line += fmt.Sprintf(" %.3g–%.3g |", s[0], s[1])
			default:
				line += fmt.Sprintf(" (%.3g–%.3g) |", s[0], s[1])
			}
		}
		t.Log(line)
	}
}

// holdsOn reports whether the row is held to its band on the named
// dataset.
func (b fidelityBand) holdsOn(name string) bool {
	return b.datasets == nil || slices.Contains(b.datasets, name)
}

// category is r's Figure 1 row for the named category.
func category(r *core.Report, name string) core.CategoryRow {
	for _, row := range r.Figure1 {
		if row.Category == name {
			return row
		}
	}
	return core.CategoryRow{}
}

// ratio is a/b, NaN when b is zero (the report's zero for "not seen").
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
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
