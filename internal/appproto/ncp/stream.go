package ncp

import (
	"encoding/binary"
	"math"
)

// Record is what the analysis reads of one NCP message: the header
// fields, with the payload as the length the header claims.
type Record struct {
	Request    bool
	Sequence   uint8
	Function   uint8
	Completion uint8
	PayloadLen uint32
}

// decodeHeader parses the fixed header; ok is false for an unknown frame
// signature. h holds at least hdrLen bytes.
func decodeHeader(h []byte) (r Record, ok bool) {
	typ := binary.BigEndian.Uint16(h[0:2])
	if typ != TypeRequest && typ != TypeReply {
		return r, false
	}
	return Record{
		Request:    typ == TypeRequest,
		Sequence:   h[2],
		Function:   h[3],
		Completion: h[4],
		PayloadLen: binary.BigEndian.Uint32(h[5:9]),
	}, true
}

// StreamParser parses one direction of an NCP connection as TCP
// reassembly delivers it, keeping one Record per message: it implements
// reassembly.Consumer, so a Stream can feed it directly and no stream
// byte is stored on the way. A header that lies whole inside a delivered
// chunk is parsed where it is; one split across chunks is carried (at
// most hdrLen-1 bytes); payloads are skipped by count. An unknown frame
// signature ends the parse for good, as it ends a walk of the buffered
// stream.
//
// The records are those a single walk of the concatenated chunks would
// find: gaps are not marked in the stream, bytes past the limit are
// ignored, and a message counts from the moment its header is whole,
// however much of its payload follows.
//
// The zero value is not ready to use; call Init.
type StreamParser struct {
	dead bool
	// room is how many more stream bytes are examined; the rest are past
	// the limit.
	room int
	// body is how many payload bytes of the last message are still to
	// come; zero means the parser is in a header.
	body uint32
	// hdr[:have] is the partial header carried between chunks.
	have int
	hdr  [hdrLen]byte
	recs []Record
}

// Init readies p, in place, ignoring everything past the stream's first
// limit bytes (zero: no limit).
func (p *StreamParser) Init(limit int) {
	if limit == 0 {
		limit = math.MaxInt
	}
	*p = StreamParser{room: limit}
}

// Records returns the messages parsed so far, in stream order.
func (p *StreamParser) Records() []Record { return p.recs }

// Gap implements reassembly.Consumer. Skipped bytes are not marked in the
// stream: the chunks on either side parse as if adjacent.
func (p *StreamParser) Gap(n int) {}

// Data implements reassembly.Consumer.
func (p *StreamParser) Data(b []byte) {
	if len(b) > p.room {
		b = b[:p.room]
	}
	p.room -= len(b)
	for len(b) > 0 && !p.dead {
		if p.body > 0 {
			n := uint32(min(uint64(p.body), uint64(len(b))))
			p.body -= n
			b = b[n:]
			continue
		}
		h := b
		if p.have > 0 || len(b) < hdrLen {
			n := copy(p.hdr[p.have:], b)
			p.have += n
			b = b[n:]
			if p.have < hdrLen {
				return
			}
			h, p.have = p.hdr[:], 0
		} else {
			b = b[hdrLen:]
		}
		rec, ok := decodeHeader(h)
		if !ok {
			p.dead = true
			return
		}
		p.recs = append(p.recs, rec)
		p.body = rec.PayloadLen
	}
}
