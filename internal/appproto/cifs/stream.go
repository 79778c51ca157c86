package cifs

import (
	"math"

	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/appproto/netbios"
)

// Record is what the analysis reads of one SMB message.
type Record struct {
	Command  uint8
	Response bool
	// DataLen is the header-claimed payload length.
	DataLen uint16
	// PDUs counts the DCE/RPC PDUs found in a pipe transaction's
	// payload; they are the parser's next PDUs, in order.
	PDUs uint16
	// Pipe is set for CmdTrans.
	Pipe string
}

// StreamParser parses one direction of a CIFS connection as TCP
// reassembly delivers it, keeping one Record per SMB message, the PDU
// summaries of pipe transactions and — on a NetBIOS-framed stream — the
// session-service frame types: it implements reassembly.Consumer, so a
// Stream can feed it directly and no stream byte is stored on the way.
// Between chunks it carries at most a partial frame header, a partial SMB
// header with its parameter block, or a pipe name; payloads are passed
// over by count, a pipe transaction's through a dcerpc.StreamParser.
//
// A raw (port-445) stream is one run of back-to-back SMB messages; on a
// framed (port-139) stream every session-message frame holds its own run.
// Bytes that do not open with the SMB magic end their run, as they end a
// walk of the buffered run, and a run's last message may be cut short:
// by the end of its frame, by the limit or by the end of the stream. End
// closes the stream, so call it before reading the results.
//
// The records are those a single walk of the concatenated chunks would
// find: gaps are not marked in the stream and bytes past the limit are
// ignored.
//
// The zero value is not ready to use; call Init.
type StreamParser struct {
	framed bool
	// room is how many more stream bytes are examined; the rest are past
	// the limit.
	room int

	// Session framing. fhdr[:fhave] is the partial frame header carried
	// between chunks; frame is how many bytes of the current frame are
	// still to come, and inMsg whether they are a session message's.
	fhave  int
	fhdr   [4]byte
	frame  int
	inMsg  bool
	frames []uint8

	// The current run. dead reports that it stopped being SMB; otherwise
	// the message being read is in phase, with hdr[:have] its header and
	// parameter block so far, cur what is known of it, and nameLeft and
	// dataLeft the name and payload bytes still to come.
	dead               bool
	phase              uint8
	have               int
	hdr                [hdrLen + paramLen]byte
	cur                Record
	nameLeft, dataLeft int
	// name gathers a pipe transaction's name; lastPipe is the last one
	// gathered, so a repeat shares its string.
	name     []byte
	lastPipe string
	// rpc parses pipe payloads; npdu is its PDU count before cur's.
	rpc  dcerpc.StreamParser
	npdu int
	recs []Record
}

const (
	inHeader = iota
	inName
	inPayload
)

// Init readies p, in place, for a raw stream or one in NetBIOS session
// framing, ignoring everything past the stream's first limit bytes (zero:
// no limit).
func (p *StreamParser) Init(netbiosFramed bool, limit int) {
	if limit == 0 {
		limit = math.MaxInt
	}
	*p = StreamParser{framed: netbiosFramed, room: limit}
}

// Records returns the messages parsed so far, in stream order.
func (p *StreamParser) Records() []Record { return p.recs }

// PDUs returns the DCE/RPC PDUs of every pipe transaction parsed so far,
// in stream order; Record.PDUs says how many are each message's.
func (p *StreamParser) PDUs() []dcerpc.Summary { return p.rpc.PDUs() }

// SSNFrames returns the type of every session-service frame whose header
// a framed stream has delivered, in stream order.
func (p *StreamParser) SSNFrames() []uint8 { return p.frames }

// Gap implements reassembly.Consumer. Skipped bytes are not marked in the
// stream: the chunks on either side parse as if adjacent.
func (p *StreamParser) Gap(n int) {}

// Data implements reassembly.Consumer.
func (p *StreamParser) Data(b []byte) {
	if len(b) > p.room {
		b = b[:p.room]
	}
	p.room -= len(b)
	if !p.framed {
		p.smb(b)
		return
	}
	for len(b) > 0 {
		if p.frame > 0 {
			n := min(p.frame, len(b))
			if p.inMsg {
				p.smb(b[:n])
			}
			p.frame -= n
			b = b[n:]
			if p.frame == 0 && p.inMsg {
				p.endRun()
			}
			continue
		}
		n := copy(p.fhdr[p.fhave:], b)
		p.fhave += n
		b = b[n:]
		if p.fhave < len(p.fhdr) {
			return
		}
		p.fhave = 0
		h, _ := netbios.DecodeSSNHeader(p.fhdr[:])
		p.frames = append(p.frames, h.Type)
		p.frame, p.inMsg = h.Length, h.Type == netbios.SSNMessage
	}
}

// End closes the stream: a message still being read is cut short here.
func (p *StreamParser) End() {
	if !p.framed || p.frame > 0 && p.inMsg {
		p.endRun()
	}
}

// smb consumes the current run's next bytes.
func (p *StreamParser) smb(b []byte) {
	for len(b) > 0 && !p.dead {
		switch p.phase {
		case inHeader:
			n := copy(p.hdr[p.have:], b)
			p.have += n
			b = b[n:]
			if p.have < len(p.hdr) {
				return
			}
			var m Message
			if !decodeHeader(p.hdr[:], &m) {
				p.dead = true
				return
			}
			p.dataLeft, p.nameLeft = decodeParams(p.hdr[hdrLen:])
			p.cur = Record{Command: m.Command, Response: m.Response, DataLen: uint16(p.dataLeft)}
			p.phase, p.name, p.npdu = inName, p.name[:0], len(p.rpc.PDUs())
		case inName:
			n := min(p.nameLeft, len(b))
			if p.cur.Command == CmdTrans {
				p.name = append(p.name, b[:n]...)
			}
			p.nameLeft -= n
			b = b[n:]
		case inPayload:
			n := min(p.dataLeft, len(b))
			if p.cur.Command == CmdTrans {
				p.rpc.Data(b[:n])
			}
			p.dataLeft -= n
			b = b[n:]
		}
		if p.phase == inName && p.nameLeft == 0 {
			p.phase = inPayload
		}
		if p.phase == inPayload && p.dataLeft == 0 {
			p.emit()
		}
	}
}

// endRun closes the current run — its last message counts as far as it
// came, header-only if the parameter block is not whole — and readies the
// parser for the next.
func (p *StreamParser) endRun() {
	if !p.dead {
		var m Message
		switch {
		case p.phase != inHeader:
			p.emit()
		case p.have >= hdrLen && decodeHeader(p.hdr[:], &m):
			p.recs = append(p.recs, Record{Command: m.Command, Response: m.Response})
		}
	}
	p.dead, p.phase, p.have = false, inHeader, 0
}

// emit records the message being read and readies the parser for the
// next header.
func (p *StreamParser) emit() {
	if p.cur.Command == CmdTrans {
		p.rpc.End()
		p.cur.PDUs = uint16(len(p.rpc.PDUs()) - p.npdu)
		p.cur.Pipe = p.pipe()
	}
	p.recs = append(p.recs, p.cur)
	p.phase, p.have = inHeader, 0
}

// maxKeptName bounds the name scratch a parser keeps between messages;
// real pipe names are a dozen bytes, the field allows 64 KiB.
const maxKeptName = 256

// pipe returns the gathered pipe name as a string, shared with the
// well-known names and with the previous message's where it can be.
func (p *StreamParser) pipe() string {
	if b := trimNULs(p.name); string(b) != p.lastPipe {
		p.lastPipe = internPipe(b)
	}
	if cap(p.name) > maxKeptName {
		p.name = nil
	}
	return p.lastPipe
}
