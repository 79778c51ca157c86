package dcerpc

import (
	"enttrace/internal/stats"
)

// ChanKey identifies one replay channel without allocating: the trace
// ordinal (connection first-packet indices restart at zero every trace),
// the connection's first-packet index, and which side of the
// conversation the channel carries. It replaces the fmt.Sprintf string
// keys the replay used to build per connection.
type ChanKey struct {
	// Trace is the analyzer-lifetime trace ordinal.
	Trace int
	// Conn is the connection's global first-packet index within the trace.
	Conn int64
	// Side distinguishes per-direction channels (Endpoint Mapper replay
	// walks each direction as its own channel) from whole-connection
	// channels.
	Side uint8
}

// ChanKey sides.
const (
	SideBoth   uint8 = iota // one channel carries both directions
	SideClient              // client→server half
	SideServer              // server→client half
)

// Analyzer accumulates the Table 11 function breakdown. One Analyzer
// serves a whole trace; per-channel bind state is keyed by an opaque
// channel identifier supplied by the caller — either a string (a
// connection/pipe key) or an allocation-free ChanKey.
type Analyzer struct {
	// Requests counts request PDUs per function name; Bytes sums stub
	// bytes (claimed lengths) per function name.
	Requests *stats.Counter
	Bytes    *stats.Counter
	// MappedPorts collects (port → interface) from EPM responses, for
	// dynamic service-port registration.
	MappedPorts map[uint16]UUID

	binds  map[string]UUID
	bindsK map[ChanKey]UUID
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		Requests:    stats.NewCounter(),
		Bytes:       stats.NewCounter(),
		MappedPorts: make(map[uint16]UUID),
		binds:       make(map[string]UUID),
		bindsK:      make(map[ChanKey]UUID),
	}
}

// Merge folds other's accumulated state into a. The function counters
// are commutative; bind state unions correctly because channel keys are
// connection-scoped, so two sources never carry fragments of the same
// channel (the parallel replay assigns each connection to exactly one
// shard).
func (a *Analyzer) Merge(other *Analyzer) {
	a.Requests.Merge(other.Requests)
	a.Bytes.Merge(other.Bytes)
	for port, iface := range other.MappedPorts {
		a.MappedPorts[port] = iface
	}
	for ch, iface := range other.binds {
		a.binds[ch] = iface
	}
	for ch, iface := range other.bindsK {
		a.bindsK[ch] = iface
	}
}

// Cut moves the function counters and endpoint mappings banked since
// the last cut into the returned analyzer and installs fresh empties
// (nil when nothing was banked). Per-channel bind state stays behind —
// the epoch contract: a request PDU arriving after the cut still
// resolves against the bind its channel saw before it.
func (a *Analyzer) Cut() *Analyzer {
	if a.Requests.Total() == 0 && a.Bytes.Total() == 0 && len(a.MappedPorts) == 0 {
		return nil
	}
	s := &Analyzer{Requests: a.Requests, Bytes: a.Bytes, MappedPorts: a.MappedPorts}
	a.Requests, a.Bytes = stats.NewCounter(), stats.NewCounter()
	a.MappedPorts = make(map[uint16]UUID)
	return s
}

// Stream consumes one direction of a DCE/RPC channel handed over whole (a
// named pipe's payload bytes or a stand-alone TCP stream). channel
// identifies the conversation so binds pair with later requests;
// fromClient marks the request direction. It is a one-chunk feed of
// StreamParser.
func (a *Analyzer) Stream(channel string, fromClient bool, data []byte) {
	a.Summaries(channel, parseWhole(data))
}

// StreamKey is Stream with an allocation-free channel key.
func (a *Analyzer) StreamKey(key ChanKey, fromClient bool, data []byte) {
	a.SummariesKey(key, parseWhole(data))
}

func parseWhole(data []byte) []Summary {
	var p StreamParser
	p.Data(data)
	p.End()
	return p.PDUs()
}

// Summaries consumes PDUs already parsed out of channel, in stream order.
func (a *Analyzer) Summaries(channel string, pdus []Summary) {
	for _, s := range pdus {
		fold(a, a.binds, channel, s)
	}
}

// SummariesKey is Summaries with an allocation-free channel key.
func (a *Analyzer) SummariesKey(key ChanKey, pdus []Summary) {
	for _, s := range pdus {
		fold(a, a.bindsK, key, s)
	}
}

// fold takes one PDU of channel ch, whose bind state lives in binds.
func fold[K comparable](a *Analyzer, binds map[K]UUID, ch K, s Summary) {
	switch s.Type {
	case PTBind:
		binds[ch] = s.Iface
	case PTBindAck:
		// Bind-acks on stand-alone channels also reveal the interface.
		if _, known := binds[ch]; !known {
			binds[ch] = s.Iface
		}
	default:
		a.accumulate(binds[ch], s)
	}
}

// accumulate records a non-bind PDU against the channel's bound
// interface.
func (a *Analyzer) accumulate(iface UUID, s Summary) {
	switch s.Type {
	case PTRequest:
		fn := FunctionName(iface, s.Opnum)
		a.Requests.Inc(fn)
		a.Bytes.Add(fn, int64(s.StubLen))
	case PTResponse:
		if s.Mapped && InterfaceName(iface) == "EPM" {
			a.MappedPorts[s.Port] = s.Iface
		}
		a.Bytes.Add(FunctionName(iface, 0), int64(s.StubLen))
	}
}

// BoundInterface reports the interface bound on a string channel, if any.
func (a *Analyzer) BoundInterface(channel string) (UUID, bool) {
	u, ok := a.binds[channel]
	return u, ok
}
