package smtp

import (
	"bytes"
	"math"
)

var (
	dataCommand = []byte("DATA\r\n")
	dataEnd     = []byte("\r\n.\r\n")
)

// StreamParser parses one direction of an SMTP connection as TCP
// reassembly delivers it, keeping only the outcome: it implements
// reassembly.Consumer, so a Stream can feed it directly and no stream
// byte is stored on the way.
//
// A client→server parser looks for the first DATA command and counts the
// message bytes that follow it, up to the dot terminator; between chunks
// it carries the last few bytes, where a DATA line or a terminator may
// have begun. A server→client parser reads the reply code that opens each
// CRLF-terminated line (carrying a line's first three bytes and its
// length) and folds the codes into the accepted/rejected verdicts.
//
// The outcome is the one a single parse of the concatenated chunks would
// give: gaps are not marked in the stream, bytes past the limit are
// ignored, a message cut short by capture, limit or end of stream
// reports the bytes that did arrive, and so does an unterminated last
// reply line.
//
// The zero value is not ready to use; call InitClient or InitServer.
type StreamParser struct {
	server bool
	// room is how many more stream bytes are examined; the rest are past
	// the limit.
	room int

	// Client side. state walks seeking → inMessage → done; tail holds the
	// stream's last bytes in the current state, fewer than the pattern
	// being looked for; msgBytes counts the message bytes seen.
	state    uint8
	ntail    int
	tail     [5]byte
	msgBytes int

	// Server side. The line being read has lineLen bytes so far, the
	// first of them in first; lastCR reports that its last byte is a CR.
	lineLen int
	first   [3]byte
	lastCR  bool
	verdict verdict
}

// verdict is what the reply codes seen so far say of the session.
type verdict struct {
	sawData, accepted, rejected bool
}

const (
	seeking = iota
	inMessage
	done
)

// InitClient readies p, in place, to parse a client→server stream,
// ignoring everything past its first limit bytes (zero: no limit).
func (p *StreamParser) InitClient(limit int) { p.init(limit, false) }

// InitServer is InitClient for a server→client stream.
func (p *StreamParser) InitServer(limit int) { p.init(limit, true) }

func (p *StreamParser) init(limit int, server bool) {
	if limit == 0 {
		limit = math.MaxInt
	}
	*p = StreamParser{room: limit, server: server}
}

// ResultOf summarizes a session from its two directions' parsers, as far
// as the streams have come.
func ResultOf(cli, srv *StreamParser) Result {
	v := srv.verdict
	if srv.lineLen >= len(srv.first) {
		// The stream's last line has no CRLF yet; it counts as it stands.
		v.reply(srv.first)
	}
	return Result{Accepted: v.accepted, Rejected: v.rejected, MessageBytes: cli.msgBytes}
}

// Gap implements reassembly.Consumer. Skipped bytes are not marked in the
// stream: the chunks on either side parse as if adjacent.
func (p *StreamParser) Gap(n int) {}

// Data implements reassembly.Consumer.
func (p *StreamParser) Data(b []byte) {
	if len(b) > p.room {
		b = b[:p.room]
	}
	p.room -= len(b)
	if p.server {
		p.replies(b)
		return
	}
	if p.state == seeking {
		end := p.endOf(dataCommand, b)
		if end < 0 {
			return
		}
		b = b[end:]
		p.state, p.ntail = inMessage, 0
	}
	if p.state == inMessage {
		if end := p.endOf(dataEnd, b); end >= 0 {
			// The terminator may have begun in an earlier chunk, whose
			// bytes were counted as message: end is then short of it.
			p.msgBytes += end - len(dataEnd)
			p.state = done
			return
		}
		p.msgBytes += len(b)
	}
}

// endOf returns the offset in b just past the first occurrence of pat in
// the stream tail+b, or -1 after moving the tail up to the end of b. The
// tail is shorter than pat, so it holds no occurrence of its own.
func (p *StreamParser) endOf(pat, b []byte) int {
	if p.ntail > 0 {
		var join [2 * len(p.tail)]byte
		n := copy(join[:], p.tail[:p.ntail])
		n += copy(join[n:n+len(pat)-1], b)
		if i := bytes.Index(join[:n], pat); i >= 0 {
			return i + len(pat) - p.ntail
		}
	}
	if i := bytes.Index(b, pat); i >= 0 {
		return i + len(pat)
	}
	// Keep the last len(pat)-1 bytes of tail+b.
	keep := len(pat) - 1
	if len(b) >= keep {
		p.ntail = copy(p.tail[:], b[len(b)-keep:])
	} else {
		old := min(p.ntail, keep-len(b))
		copy(p.tail[:], p.tail[p.ntail-old:p.ntail])
		p.ntail = old + copy(p.tail[old:], b)
	}
	return -1
}

// replies reads reply lines out of a server→client chunk.
func (p *StreamParser) replies(b []byte) {
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			p.line(b)
			return
		}
		p.line(b[:i])
		if p.lastCR {
			// CRLF: the line is whole, its CR not part of it.
			p.lineLen--
			if p.lineLen >= len(p.first) {
				p.verdict.reply(p.first)
			}
			p.lineLen, p.lastCR = 0, false
		} else {
			p.line(b[i : i+1]) // a bare LF is one more byte of the line
		}
		b = b[i+1:]
	}
}

// line appends b to the line being read.
func (p *StreamParser) line(b []byte) {
	if len(b) == 0 {
		return
	}
	if p.lineLen < len(p.first) {
		copy(p.first[p.lineLen:], b)
	}
	p.lineLen += len(b)
	p.lastCR = b[len(b)-1] == '\r'
}

// reply folds the reply code that opens a line of at least three bytes
// into v: 354 opens the message; a 250 after that accepts it; any 5xx is
// a rejection.
func (v *verdict) reply(first [3]byte) {
	code, ok := replyCode(first)
	switch {
	case !ok:
	case code == 354:
		v.sawData = true
	case code == 250 && v.sawData:
		v.accepted = true
	case code >= 500:
		v.rejected = true
	}
}

// replyCode reads three bytes as a decimal integer the way strconv.Atoi
// does: digits, with an optional leading sign.
func replyCode(s [3]byte) (code int, ok bool) {
	digits := s[:]
	if s[0] == '+' || s[0] == '-' {
		digits = s[1:]
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		code = code*10 + int(c-'0')
	}
	if s[0] == '-' {
		code = -code
	}
	return code, true
}
