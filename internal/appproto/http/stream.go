package http

import (
	"bytes"
	"math"
)

// StreamParser parses one direction of an HTTP/1.x connection as TCP
// reassembly delivers it, keeping only the parsed messages: it implements
// reassembly.Consumer, so a Stream can feed it directly and no stream byte
// is stored on the way. It is always in one of three states:
//
//   - head: looking for the CRLFCRLF that ends the next message head. A
//     head that lies whole inside one delivered chunk is parsed where it
//     is; only a head split across chunks is accumulated, in a scratch
//     that holds that one partial head.
//   - body: skipping the Content-Length bytes that follow a head, by
//     count. Body bytes are never read.
//   - dead: a malformed head ends the parse for good, as it does for a
//     buffered stream. The first line is judged while it accumulates — a
//     status line by its first five bytes, a request line by the five
//     after its second space, either when its CRLF arrives — so a stream
//     that is not HTTP stops accumulating about there, not at a CRLFCRLF
//     that may never come.
//
// The messages are those a single parse of the concatenated chunks would
// find: gaps are not marked in the stream, bytes past the limit are
// ignored, and a body cut short by capture, limit or end of stream
// reports the bytes that did arrive. Chunks are borrowed for the duration
// of Data; every parsed field is an owned copy.
//
// The zero value is not ready to use; call InitRequests or InitResponses.
type StreamParser struct {
	responses bool
	dead      bool
	// lineOK records that the partial head's first line is whole and
	// well-formed; until then lookedAt is the length the partial head had
	// when its unfinished first line was last examined.
	lineOK   bool
	lookedAt int
	// room is how many more stream bytes are examined; the rest are past
	// the limit.
	room int
	// body is how many bytes of the last message's body are still to
	// come; zero means the parser is in a head.
	body int
	// head is the partial head carried between chunks. It never contains
	// a CRLFCRLF.
	head  []byte
	reqs  []Request
	resps []Response
}

// InitRequests readies p, in place, to parse a client→server stream,
// ignoring everything past its first limit bytes (zero: no limit).
func (p *StreamParser) InitRequests(limit int) { p.init(limit, false) }

// InitResponses is InitRequests for a server→client stream.
func (p *StreamParser) InitResponses(limit int) { p.init(limit, true) }

func (p *StreamParser) init(limit int, responses bool) {
	if limit == 0 {
		limit = math.MaxInt
	}
	*p = StreamParser{room: limit, responses: responses}
}

// Requests returns the requests parsed so far, in stream order. The
// last one's BodyLen counts the body bytes delivered up to now.
func (p *StreamParser) Requests() []Request { return p.reqs }

// Responses returns the responses parsed so far; see Requests.
func (p *StreamParser) Responses() []Response { return p.resps }

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
			n := min(p.body, len(b))
			p.body -= n
			if p.responses {
				p.resps[len(p.resps)-1].BodyLen += n
			} else {
				p.reqs[len(p.reqs)-1].BodyLen += n
			}
			b = b[n:]
			continue
		}
		end := headEnd(p.head, b)
		if end < 0 {
			p.carry(b)
			return
		}
		if len(p.head) == 0 {
			p.message(b[:end-len(crlfcrlf)])
		} else {
			p.head = append(p.head, b[:end]...)
			p.message(p.head[:len(p.head)-len(crlfcrlf)])
			p.head, p.lineOK, p.lookedAt = p.head[:0], false, 0
		}
		b = b[end:]
	}
}

// message parses one complete head (its CRLFCRLF cut off) and enters its
// body, or kills the parser.
func (p *StreamParser) message(head []byte) {
	var cl int
	var ok bool
	if p.responses {
		var r Response
		if r, cl, ok = parseResponseHead(head); ok {
			p.resps = append(p.resps, r)
		}
	} else {
		var r Request
		if r, cl, ok = parseRequestHead(head); ok {
			p.reqs = append(p.reqs, r)
		}
	}
	if !ok {
		p.kill()
		return
	}
	p.body = cl
}

// carry appends a chunk that does not complete the head to the scratch,
// and kills the parser once the first line is known to be malformed.
func (p *StreamParser) carry(b []byte) {
	from := max(0, len(p.head)-1) // a CR may end what is already there
	p.head = append(p.head, b...)
	if p.lineOK {
		return
	}
	if i := bytes.Index(p.head[from:], crlf); i >= 0 {
		first := p.head[:from+i]
		if p.responses {
			_, p.lineOK = parseStatusLine(first)
		} else {
			_, _, p.lineOK = parseRequestLine(first)
		}
		if !p.lineOK {
			p.kill()
		}
		return
	}
	// Still inside the first line: look at what there is of it whenever
	// it has doubled, so the looks cost O(length) in all and a stream
	// that cannot be HTTP is dropped within twice the bytes it takes to
	// tell.
	if len(p.head) >= 2*p.lookedAt {
		p.lookedAt = len(p.head)
		if !firstLineAlive(p.head, p.responses) {
			p.kill()
		}
	}
}

// firstLineAlive reports whether a first line that starts with partial
// (which holds no CRLF) can still turn out well-formed: a status line
// opens with "HTTP/", and so does whatever follows a request line's
// second space.
func firstLineAlive(partial []byte, response bool) bool {
	version := partial
	if !response {
		_, after, ok1 := cutByte(partial, ' ')
		_, v, ok2 := cutByte(after, ' ')
		if !ok1 || !ok2 {
			return true
		}
		version = v
	}
	n := min(len(version), len("HTTP/"))
	return string(version[:n]) == "HTTP/"[:n]
}

func (p *StreamParser) kill() {
	p.dead = true
	p.head = nil
}

var (
	crlf     = []byte("\r\n")
	crlfcrlf = []byte("\r\n\r\n")
)

// headEnd returns the offset in b just past the first CRLFCRLF of the
// stream prev+b, or -1 if there is none. prev holds no CRLFCRLF of its
// own, so only its last three bytes can take part in one.
func headEnd(prev, b []byte) int {
	if len(prev) > 0 {
		var join [2 * 3]byte
		np := copy(join[:], prev[max(0, len(prev)-3):])
		n := np + copy(join[np:], b)
		if i := bytes.Index(join[:n], crlfcrlf); i >= 0 {
			return i + len(crlfcrlf) - np
		}
	}
	if i := bytes.Index(b, crlfcrlf); i >= 0 {
		return i + len(crlfcrlf)
	}
	return -1
}
