package core

import (
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/stats"
)

// traceLoad bins one trace's wire bytes per second.
type traceLoad struct {
	name string
	bins []int64
}

// mergedTraceLoad rebuilds a trace's per-second byte series from the
// pipeline shards' bins. Every shard bins against the same base (the
// trace's first packet), so the merge is an element-wise integer sum —
// exact, and independent of shard count and order.
func mergedTraceLoad(name string, shardBins [][]int64) *traceLoad {
	t := &traceLoad{name: name}
	for _, bins := range shardBins {
		for len(t.bins) < len(bins) {
			t.bins = append(t.bins, 0)
		}
		for i, v := range bins {
			t.bins[i] += v
		}
	}
	return t
}

// TraceLoad is one trace's Figure 9 / Figure 10 numbers.
type TraceLoad struct {
	Name string
	// Peak utilization (Mbps) over 1, 10 and 60-second windows.
	Peak1s, Peak10s, Peak60s float64
	// Per-second utilization summary (Mbps).
	Min, P25, Median, P75, Max, Avg float64
	// Retransmission rates (retransmitted data packets over data
	// packets), split by locality; keep-alives excluded per §6.
	RetransEnt, RetransWan float64
	// Data-packet counts backing the rates (the paper only plots traces
	// with ≥ 1000 packets in a category).
	EntDataPkts, WanDataPkts int64
	// Seconds at or above 90% of capacity (saturation dwell).
	SaturatedSeconds int
	// Hurst is the variance-time Hurst estimate over the per-second
	// byte series (self-similarity extension; HurstOK false when the
	// trace is too short to estimate).
	Hurst   float64
	HurstOK bool

	// ord is the trace's global ordinal (TraceBase-offset). Fleet folds
	// append rows window-major rather than trace-major; report building
	// re-sorts by ordinal so both orders render identically. Unexported:
	// absent from JSON, carried by the fleet snapshot codec.
	ord int
}

// loadAgg accumulates per-trace load stats for a dataset.
type loadAgg struct {
	traces []TraceLoad
}

func newLoadAgg() *loadAgg { return &loadAgg{} }

func windowPeak(bins []int64, w int) float64 {
	var best int64
	var sum int64
	for i, v := range bins {
		sum += v
		if i >= w {
			sum -= bins[i-w]
		}
		if sum > best {
			best = sum
		}
	}
	return float64(best) / float64(w)
}

// linkCapacityMbps is the monitored subnets' link speed, the figure
// utilization is judged against: the paper's networks were 100 Mbps.
const linkCapacityMbps = 100

// traceSeries is a trace's load row as far as its per-second bins give
// it — the Figure 9 peaks, the utilization summary and the Hurst
// estimate — for the trace with ordinal ord. retrans adds the rest.
func traceSeries(t *traceLoad, ord int) TraceLoad {
	tl := TraceLoad{Name: t.name, ord: ord}
	if len(t.bins) == 0 {
		return tl
	}
	toMbps := func(bytesPerSec float64) float64 { return bytesPerSec * 8 / 1e6 }
	tl.Peak1s = toMbps(windowPeak(t.bins, 1))
	tl.Peak10s = toMbps(windowPeak(t.bins, 10))
	tl.Peak60s = toMbps(windowPeak(t.bins, 60))
	d := stats.NewDist()
	for _, v := range t.bins {
		d.Observe(toMbps(float64(v)))
		if toMbps(float64(v)) >= 0.9*linkCapacityMbps {
			tl.SaturatedSeconds++
		}
	}
	series := make([]float64, len(t.bins))
	for i, v := range t.bins {
		series[i] = float64(v)
	}
	tl.Hurst, tl.HurstOK = stats.HurstVT(series)
	tl.Min, tl.Max = d.Min(), d.Max()
	tl.P25, tl.Median, tl.P75 = d.Quantile(0.25), d.Median(), d.Quantile(0.75)
	tl.Avg = d.Mean()
	return tl
}

// retrans sets the row's Figure 10 retransmission rates, over the TCP
// conns whose kept entry is set.
func (tl *TraceLoad) retrans(conns []*flows.Conn, kept []bool) {
	var entData, entRetrans, wanData, wanRetrans int64
	for i, c := range conns {
		if !kept[i] || c.Proto != layers.ProtoTCP {
			continue
		}
		if connWAN(c) {
			wanData += c.DataPkts - c.KeepAliveRetrans
			wanRetrans += c.Retrans
		} else {
			entData += c.DataPkts - c.KeepAliveRetrans
			entRetrans += c.Retrans
		}
	}
	tl.EntDataPkts, tl.WanDataPkts = entData, wanData
	if entData > 0 {
		tl.RetransEnt = float64(entRetrans) / float64(entData)
	}
	if wanData > 0 {
		tl.RetransWan = float64(wanRetrans) / float64(wanData)
	}
}
