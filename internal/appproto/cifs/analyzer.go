package cifs

import (
	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/stats"
)

// Analyzer accumulates the Table 10 command/byte breakdown from SMB
// streams and hands embedded DCE/RPC pipe payloads to an optional sink.
type Analyzer struct {
	// Requests counts request messages per category; Bytes counts
	// message data bytes (header-claimed) per category.
	Requests *stats.Counter
	Bytes    *stats.Counter
	// PipeSink, when non-nil, receives the DCE/RPC PDUs of each pipe
	// transaction that carries any (both directions) for function-level
	// analysis.
	PipeSink func(fromClient bool, pipe string, pdus []dcerpc.Summary)
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{Requests: stats.NewCounter(), Bytes: stats.NewCounter()}
}

// Merge folds other's command/byte counters into a (commutative, so the
// merged Table 10 is identical for any sharding of the input streams).
func (a *Analyzer) Merge(other *Analyzer) {
	a.Requests.Merge(other.Requests)
	a.Bytes.Merge(other.Bytes)
}

// Cut moves the command/byte counters banked since the last cut into
// the returned analyzer and installs fresh empties (nil when nothing was
// banked). This analyzer keeps no cross-message pairing state, so the
// cut is a pure counter move.
func (a *Analyzer) Cut() *Analyzer {
	if a.Requests.Total() == 0 && a.Bytes.Total() == 0 {
		return nil
	}
	s := &Analyzer{Requests: a.Requests, Bytes: a.Bytes}
	a.Requests, a.Bytes = stats.NewCounter(), stats.NewCounter()
	return s
}

// Stream consumes one reassembled direction of a CIFS connection handed
// over whole. netbiosFramed selects TCP-139-style session framing (each
// SMB wrapped in a NetBIOS session frame) versus raw port-445 framing,
// which this codec treats as back-to-back SMB messages. It is a one-chunk
// feed of StreamParser.
func (a *Analyzer) Stream(fromClient bool, netbiosFramed bool, stream []byte) {
	var p StreamParser
	p.Init(netbiosFramed, 0)
	p.Data(stream)
	p.End()
	a.Records(fromClient, &p)
}

// Records folds one direction's parsed messages; p's stream has ended.
func (a *Analyzer) Records(fromClient bool, p *StreamParser) {
	pdus := p.PDUs()
	for _, m := range p.Records() {
		cat := category(m.Command, m.Pipe)
		if !m.Response {
			a.Requests.Inc(cat)
		}
		a.Bytes.Add(cat, int64(m.DataLen))
		if m.PDUs > 0 && a.PipeSink != nil {
			a.PipeSink(fromClient, m.Pipe, pdus[:m.PDUs])
		}
		pdus = pdus[m.PDUs:]
	}
}
