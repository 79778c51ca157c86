package cifs

import (
	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/stats"
)

// Analyzer accumulates the Table 10 command/byte breakdown from SMB
// streams and hands embedded DCE/RPC pipe payloads to its caller. It
// keeps no cross-message pairing state: it merges and cuts as its two
// counters (fleet.Merge, fleet.Cut).
type Analyzer struct {
	// Requests counts request messages per category; Bytes counts
	// message data bytes (header-claimed) per category.
	Requests *stats.Counter
	Bytes    *stats.Counter
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{Requests: stats.NewCounter(), Bytes: stats.NewCounter()}
}

// Records folds one direction's parsed messages; p's stream has ended.
// pipes, when non-nil, receives the DCE/RPC PDUs of each pipe
// transaction that carries any, for function-level analysis.
func (a *Analyzer) Records(p *StreamParser, pipes func(pipe string, pdus []dcerpc.Summary)) {
	pdus := p.PDUs()
	for _, m := range p.Records() {
		cat := category(m.Command, m.Pipe)
		if !m.Response {
			a.Requests.Inc(cat)
		}
		a.Bytes.Add(cat, int64(m.DataLen))
		if m.PDUs > 0 && pipes != nil {
			pipes(m.Pipe, pdus[:m.PDUs])
		}
		pdus = pdus[m.PDUs:]
	}
}
