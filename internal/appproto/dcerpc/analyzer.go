package dcerpc

import (
	"enttrace/internal/fleet"
	"enttrace/internal/stats"
)

// ChanKey identifies one replay channel without allocating: the trace
// ordinal (connection first-packet indices restart at zero every trace),
// the connection's first-packet index, which side of the conversation
// the channel carries, and — for a named pipe inside a CIFS connection —
// the pipe. A channel is scoped to its connection in its trace: no two
// connections share bind state, whatever their addresses and ports.
type ChanKey struct {
	// Trace is the analyzer-lifetime trace ordinal.
	Trace int
	// Conn is the connection's global first-packet index within the trace.
	Conn int64
	// Side distinguishes per-direction channels (Endpoint Mapper replay
	// walks each direction as its own channel) from whole-connection
	// channels.
	Side uint8
	// Pipe is the named pipe a CIFS connection's transaction carried the
	// channel over ("" for a stand-alone TCP channel).
	Pipe string
}

// ChanKey sides.
const (
	SideBoth   uint8 = iota // one channel carries both directions
	SideClient              // client→server half
	SideServer              // server→client half
)

// Analyzer accumulates the Table 11 function breakdown. Per-channel bind
// state is keyed by the caller's ChanKey; it is pairing state, which
// stays with the analyzer that saw it when the function counters are
// merged or cut (fleet.Merge, fleet.Cut): a request PDU arriving after a
// cut still resolves against the bind its channel saw before it.
type Analyzer struct {
	// Requests counts request PDUs per function name; Bytes sums stub
	// bytes (claimed lengths) per function name.
	Requests *stats.Counter
	Bytes    *stats.Counter

	binds fleet.Map[ChanKey, UUID] `agg:"pairing"`
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		Requests: stats.NewCounter(),
		Bytes:    stats.NewCounter(),
		binds:    make(map[ChanKey]UUID),
	}
}

// Stream consumes one DCE/RPC channel handed over whole (a named pipe's
// payload bytes or a stand-alone TCP stream, either direction). It is a
// one-chunk feed of StreamParser.
func (a *Analyzer) Stream(key ChanKey, data []byte) {
	var p StreamParser
	p.Data(data)
	p.End()
	a.Summaries(key, p.PDUs())
}

// Summaries consumes PDUs already parsed out of the channel, in stream
// order.
func (a *Analyzer) Summaries(key ChanKey, pdus []Summary) {
	for _, s := range pdus {
		switch s.Type {
		case PTBind:
			a.binds[key] = s.Iface
		case PTBindAck:
			// Bind-acks on stand-alone channels also reveal the interface.
			if _, known := a.binds[key]; !known {
				a.binds[key] = s.Iface
			}
		case PTRequest:
			fn := FunctionName(a.binds[key], s.Opnum)
			a.Requests.Inc(fn)
			a.Bytes.Add(fn, int64(s.StubLen))
		case PTResponse:
			a.Bytes.Add(FunctionName(a.binds[key], 0), int64(s.StubLen))
		}
	}
}
