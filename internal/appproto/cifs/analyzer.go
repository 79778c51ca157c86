package cifs

import (
	"enttrace/internal/appproto/netbios"
	"enttrace/internal/stats"
)

// Analyzer accumulates the Table 10 command/byte breakdown from SMB
// streams and hands embedded DCE/RPC pipe payloads to an optional sink.
type Analyzer struct {
	// Requests counts request messages per category; Bytes counts
	// message data bytes (header-claimed) per category.
	Requests *stats.Counter
	Bytes    *stats.Counter
	// PipeSink, when non-nil, receives the DCE/RPC payload of each pipe
	// transaction (both directions) for function-level analysis.
	PipeSink func(fromClient bool, pipe string, payload []byte)
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

// Stream consumes one reassembled direction of a CIFS connection.
// netbiosFramed selects TCP-139-style session framing (each SMB wrapped in
// a NetBIOS session frame) versus raw port-445 framing, which this codec
// treats as back-to-back SMB messages.
func (a *Analyzer) Stream(fromClient bool, netbiosFramed bool, stream []byte) {
	for len(stream) > 0 {
		var smb []byte
		if netbiosFramed {
			h, err := netbios.DecodeSSNHeader(stream)
			if err != nil {
				return
			}
			if h.Type != netbios.SSNMessage {
				// Session-request/response frames carry no SMB.
				adv := 4 + h.Length
				if adv > len(stream) {
					return
				}
				stream = stream[adv:]
				continue
			}
			end := 4 + h.Length
			if end > len(stream) {
				end = len(stream)
			}
			smb = stream[4:end]
			stream = stream[end:]
		} else {
			smb = stream
			stream = nil
		}
		a.consumeSMB(fromClient, smb)
	}
}

// consumeSMB walks back-to-back SMB messages in a buffer, reusing one
// Message across iterations (DecodeInto overwrites it).
func (a *Analyzer) consumeSMB(fromClient bool, buf []byte) {
	var msg Message
	for len(buf) > 0 {
		m := &msg
		n, err := DecodeInto(buf, m)
		if err != nil || n == 0 {
			return
		}
		cat := Category(m)
		if !m.Response {
			a.Requests.Inc(cat)
		}
		a.Bytes.Add(cat, int64(m.DataLen))
		if m.Command == CmdTrans && a.PipeSink != nil && len(m.Payload) > 0 {
			a.PipeSink(fromClient, m.PipeName, m.Payload)
		}
		buf = buf[n:]
	}
}
