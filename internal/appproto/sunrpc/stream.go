package sunrpc

import (
	"encoding/binary"
	"math"
)

// Record is what the analysis reads of one RPC message.
type Record struct {
	// Len is the message's length in bytes.
	Len  uint32
	XID  uint32
	Type uint32
	// Prog, Vers and Proc are set for calls.
	Prog, Vers, Proc uint32
	// Status is a reply's NFS status.
	Status uint32
	// Count is the byte count a READ or WRITE call names and, in a
	// successful reply, the word after the status (a READ result's
	// count); zero when the message ends before it.
	Count uint32
}

// msgScan reads the fields of one RPC message out of the chunks it
// arrives in. Each step passes over skip bytes, gathers the next field
// into buf and moves to the next stage; a message that ends early leaves
// the later fields zero, which is how a truncated capture decodes.
type msgScan struct {
	rec   Record
	stage uint8
	// valid reports that the message is long enough to decode at all: 24
	// bytes of a call, 28 of a reply.
	valid      bool
	have, want uint8
	skip       uint64
	buf        [12]byte
}

const (
	scanHead     = iota // xid, type
	scanCall            // prog, vers, proc (past the RPC version)
	scanCred            // credential flavor and length
	scanVerf            // verifier flavor and length
	scanCount           // READ/WRITE count (past the handle and offset)
	scanStatus          // reply: NFS status (past reply_stat, verifier, accept_stat)
	scanReplyLen        // reply: the word after the status
	scanDone
)

// begin readies s for a message of n bytes.
func (s *msgScan) begin(n uint32) {
	*s = msgScan{rec: Record{Len: n}, want: 8}
}

// feed consumes the message's next bytes.
func (s *msgScan) feed(b []byte) {
	for len(b) > 0 && s.stage != scanDone {
		if s.skip > 0 {
			n := min(s.skip, uint64(len(b)))
			s.skip -= n
			b = b[n:]
			continue
		}
		n := copy(s.buf[s.have:s.want], b)
		s.have += uint8(n)
		b = b[n:]
		if s.have == s.want {
			s.step()
		}
	}
}

// step takes the gathered field and sets up the next one.
func (s *msgScan) step() {
	get32 := func(off int) uint32 { return binary.BigEndian.Uint32(s.buf[off:]) }
	// opaque is the length of a flavor+length header's body, padded.
	opaque := func() uint64 {
		l := uint64(get32(4))
		return l + uint64(pad4(int(l%4)))
	}
	s.have = 0
	switch s.stage {
	case scanHead:
		s.rec.XID, s.rec.Type = get32(0), get32(4)
		if s.rec.Type == MsgCall {
			s.stage, s.skip, s.want = scanCall, 4, 12
		} else {
			s.stage, s.skip, s.want = scanStatus, 16, 4
		}
	case scanCall:
		s.rec.Prog, s.rec.Vers, s.rec.Proc = get32(0), get32(4), get32(8)
		s.valid = true
		s.stage, s.want = scanCred, 8
	case scanCred:
		s.stage, s.skip, s.want = scanVerf, opaque(), 8
	case scanVerf:
		s.stage = scanDone
		if s.rec.Proc == ProcWrite || s.rec.Proc == ProcRead {
			// File handle, then the 64-bit offset, then the count.
			s.stage, s.skip, s.want = scanCount, opaque()+fhSize+8, 4
		}
	case scanCount:
		s.rec.Count = get32(0)
		s.stage = scanDone
	case scanStatus:
		s.rec.Status = get32(0)
		s.valid = true
		s.stage = scanDone
		if s.rec.Status == NFSOK {
			s.stage, s.want = scanReplyLen, 4
		}
	case scanReplyLen:
		s.rec.Count = get32(0)
		s.stage = scanDone
	}
}

// StreamParser parses one direction of an RPC-over-TCP connection as TCP
// reassembly delivers it, keeping one Record per complete record-marked
// message: it implements reassembly.Consumer, so a Stream can feed it
// directly and no stream byte is stored on the way. Between chunks it
// carries at most a partial record mark or message field; message bodies
// are passed over by count. A zero-length record ends the parse for good,
// as it ends a walk of the buffered stream.
//
// The records are those a single walk of the concatenated chunks would
// find: gaps are not marked in the stream, bytes past the limit are
// ignored, a record still incomplete when the stream ends is not
// reported, and neither is one too short to decode.
//
// The zero value is not ready to use; call Init.
type StreamParser struct {
	dead bool
	// room is how many more stream bytes are examined; the rest are past
	// the limit.
	room int
	// left is how many bytes of the current record are still to come;
	// zero means the parser is in a record mark.
	left uint32
	// mark[:have] is the partial record mark carried between chunks.
	have int
	mark [4]byte
	scan msgScan
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

// Records returns the complete messages parsed so far, in stream order.
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
		if p.left > 0 {
			n := uint32(min(uint64(p.left), uint64(len(b))))
			p.scan.feed(b[:n])
			p.left -= n
			b = b[n:]
			if p.left == 0 && p.scan.valid {
				p.recs = append(p.recs, p.scan.rec)
			}
			continue
		}
		n := copy(p.mark[p.have:], b)
		p.have += n
		b = b[n:]
		if p.have < len(p.mark) {
			return
		}
		p.have = 0
		p.left = binary.BigEndian.Uint32(p.mark[:]) & 0x7fffffff
		if p.left == 0 {
			p.dead = true
			return
		}
		p.scan.begin(p.left)
	}
}

// SplitRecords walks a record-marked TCP stream handed over whole and
// returns its complete messages. Incomplete trailing data is ignored
// (truncated trace). It is a one-chunk feed of StreamParser.
func SplitRecords(stream []byte) []Record {
	var p StreamParser
	p.Init(0)
	p.Data(stream)
	return p.Records()
}
