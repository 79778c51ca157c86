package dcerpc

import "encoding/binary"

// Summary is what the analysis reads of one PDU.
type Summary struct {
	Type uint8
	// Mapped reports a response whose stub holds an endpoint-map entry:
	// Iface is then reachable at Host, TCP port Port.
	Mapped bool
	// Opnum is set for request PDUs.
	Opnum uint16
	Port  uint16
	// StubLen is the stub length a request or response claims.
	StubLen uint32
	// Iface is the abstract syntax of a bind or bind-ack (see Mapped).
	Iface UUID
	Host  [4]byte
}

// summarize reduces a decoded PDU to its Summary.
func summarize(p *PDU) Summary {
	s := Summary{Type: p.Type, Opnum: p.Opnum, StubLen: uint32(p.StubLen), Iface: p.Iface}
	if iface, host, port, ok := ParseEpmMapResponse(p); ok {
		s.Mapped, s.Iface, s.Host, s.Port = true, iface, host.As4(), port
	}
	return s
}

// prefixLen is how far into a PDU the fields of its Summary reach: the
// header, the eight bytes that open a request or response body, and an
// endpoint-map entry's worth of stub (a bind's interface ends sooner).
const prefixLen = hdrLen + 8 + epmStubLen

// StreamParser parses the back-to-back PDUs of one payload (a named-pipe
// transaction's data, or a stand-alone stream) from the chunks it arrives
// in, keeping one Summary per PDU and no payload byte: of each PDU it
// gathers the first prefixLen bytes and passes over the rest by count. A
// PDU that is not version 5 ends the payload's parse, as it ends a walk
// of the buffered payload. End closes a payload: a PDU cut short by it
// decodes from the bytes that did arrive, and the parser is ready for the
// next payload; without End, only whole PDUs are reported. The summaries
// of all payloads accumulate in order.
//
// The zero value is ready to use.
type StreamParser struct {
	dead bool
	// sized reports that the current PDU's header is whole: want and skip
	// are then the prefix bytes to gather and the bytes to pass over
	// after them.
	sized      bool
	have, want int
	skip       int
	pre        [prefixLen]byte
	pdus       []Summary
}

// PDUs returns the PDUs parsed so far, in stream order.
func (p *StreamParser) PDUs() []Summary { return p.pdus }

// Data consumes the payload's next bytes.
func (p *StreamParser) Data(b []byte) {
	for len(b) > 0 && !p.dead {
		if p.have == p.want && p.sized {
			n := min(p.skip, len(b))
			p.skip -= n
			b = b[n:]
			if p.skip == 0 {
				p.emit()
			}
			continue
		}
		want := p.want
		if !p.sized {
			want = hdrLen
		}
		n := copy(p.pre[p.have:want], b)
		p.have += n
		b = b[n:]
		if p.have < want {
			return
		}
		if !p.sized {
			if p.pre[0] != 5 {
				p.dead = true
				return
			}
			frag := max(int(binary.LittleEndian.Uint16(p.pre[8:10])), hdrLen)
			p.sized, p.want = true, min(frag, prefixLen)
			p.skip = frag - p.want
		}
		if p.have == p.want && p.skip == 0 {
			p.emit()
		}
	}
}

// End closes the current payload.
func (p *StreamParser) End() {
	if p.sized {
		p.emit()
	}
	p.dead, p.have = false, 0
}

// emit decodes the gathered prefix and readies the parser for the next
// PDU's header.
func (p *StreamParser) emit() {
	var pdu PDU
	decodeInto(p.pre[:p.have], &pdu)
	p.pdus = append(p.pdus, summarize(&pdu))
	p.sized, p.have, p.want, p.skip = false, 0, 0, 0
}
