package ncp

import (
	"net/netip"

	"enttrace/internal/fleet"
	"enttrace/internal/layers"
	"enttrace/internal/stats"
)

// Analyzer accumulates Table 14's request/byte mix, Figure 7's requests
// per host pair, Figure 8's size distributions, and the request success
// rate from completion codes. It merges and cuts by its fields
// (fleet.Merge, fleet.Cut). It pairs nothing: a reply carries its own
// function code, so each message is counted alone.
type Analyzer struct {
	Requests             *stats.Counter
	Bytes                *stats.Counter
	ReqSizes, ReplySizes *stats.Dist
	PerPair              fleet.Map[layers.HostPair, int64]
	OK, Failed           int64
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		Requests:   stats.NewCounter(),
		Bytes:      stats.NewCounter(),
		ReqSizes:   stats.NewDist(),
		ReplySizes: stats.NewDist(),
		PerPair:    make(map[layers.HostPair]int64),
	}
}

// Stream consumes one direction of an NCP connection's reassembled bytes.
// It is a one-chunk feed of StreamParser.
func (a *Analyzer) Stream(src, dst netip.Addr, data []byte) {
	var p StreamParser
	p.Init(0)
	p.Data(data)
	a.Records(src, dst, p.Records())
}

// Records folds one direction's parsed messages, traveling src → dst.
func (a *Analyzer) Records(src, dst netip.Addr, recs []Record) {
	for _, m := range recs {
		a.message(src, dst, m)
	}
}

func (a *Analyzer) message(src, dst netip.Addr, m Record) {
	name := FnName(m.Function)
	size := float64(hdrLen + int(m.PayloadLen))
	if m.Request {
		a.Requests.Inc(name)
		a.ReqSizes.Observe(size)
		a.PerPair[layers.NewHostPair(src, dst)]++
		if m.Function == FnWriteFile {
			a.Bytes.Add(name, int64(m.PayloadLen))
		}
		return
	}
	a.ReplySizes.Observe(size)
	if m.Completion == 0 {
		a.OK++
		if m.Function == FnReadFile {
			a.Bytes.Add(name, int64(m.PayloadLen))
		}
	} else {
		a.Failed++
	}
}

// SuccessRate is successful replies over all replies.
func (a *Analyzer) SuccessRate() float64 {
	total := a.OK + a.Failed
	if total == 0 {
		return 0
	}
	return float64(a.OK) / float64(total)
}
