// Package ncp implements the Netware Core Protocol messages the paper's
// §5.2.2 analysis reports on: request/reply framing over TCP 524 with the
// classic 0x2222/0x3333 type signatures, the function mix of Table 14
// (read, write, file/dir info, open/close, size, search, directory
// service), and the characteristic message sizes of Figure 8 — 14-byte
// read requests, 2-byte completion-code-only replies, 10-byte
// GetFileCurrentSize replies, and 260-byte read-data replies.
//
// NCP is, as the paper puts it, "a veritable kitchen-sink protocol
// supporting hundreds of message types"; this codec carries the function
// code and sized payload, which is the granularity of every reported
// statistic.
package ncp

import (
	"encoding/binary"
	"errors"

	"enttrace/internal/appproto/filler"
)

// Frame type signatures.
const (
	TypeRequest uint16 = 0x2222
	TypeReply   uint16 = 0x3333
)

// Function codes (classic NCP function numbers where they exist).
const (
	FnReadFile    uint8 = 72
	FnWriteFile   uint8 = 73
	FnFileDirInfo uint8 = 87
	FnOpenFile    uint8 = 76
	FnCloseFile   uint8 = 66
	FnGetFileSize uint8 = 71
	FnSearchFile  uint8 = 63
	FnDirService  uint8 = 104 // NDS verbs
	FnOther       uint8 = 255
)

// FnName maps a function to the paper's Table 14 row names.
func FnName(fn uint8) string {
	switch fn {
	case FnReadFile:
		return "Read"
	case FnWriteFile:
		return "Write"
	case FnFileDirInfo:
		return "FileDirInfo"
	case FnOpenFile, FnCloseFile:
		return "File Open/Close"
	case FnGetFileSize:
		return "File Size"
	case FnSearchFile:
		return "File Search"
	case FnDirService:
		return "Directory Service"
	default:
		return "Other"
	}
}

// Msg is one NCP message.
type Msg struct {
	Request  bool
	Sequence uint8
	Function uint8
	// Completion is the reply completion code (0 = success).
	Completion uint8
	// Payload carries file data (write requests, read replies) or
	// structured results.
	Payload []byte
	// PayloadLen is the header-claimed payload length (robust to
	// truncated captures).
	PayloadLen int
}

// ErrShort reports a buffer below the fixed header size.
var ErrShort = errors.New("ncp: truncated message")

// ErrBadType reports an unknown frame signature.
var ErrBadType = errors.New("ncp: bad frame type")

// header: type(2) seq(1) fn(1) completion(1) payloadLen(4)
const hdrLen = 9

// Encode serializes the message.
func Encode(m *Msg) []byte {
	out := make([]byte, hdrLen+len(m.Payload))
	typ := TypeReply
	if m.Request {
		typ = TypeRequest
	}
	binary.BigEndian.PutUint16(out[0:2], typ)
	out[2] = m.Sequence
	out[3] = m.Function
	out[4] = m.Completion
	binary.BigEndian.PutUint32(out[5:9], uint32(len(m.Payload)))
	copy(out[hdrLen:], m.Payload)
	return out
}

// Decode parses one message from data, returning it and bytes consumed.
func Decode(data []byte) (*Msg, int, error) {
	if len(data) < hdrLen {
		return nil, 0, ErrShort
	}
	r, ok := decodeHeader(data)
	if !ok {
		return nil, 0, ErrBadType
	}
	m := &Msg{
		Request:    r.Request,
		Sequence:   r.Sequence,
		Function:   r.Function,
		Completion: r.Completion,
		PayloadLen: int(r.PayloadLen),
	}
	consumed := min(hdrLen+m.PayloadLen, len(data))
	m.Payload = data[hdrLen:consumed]
	return m, consumed, nil
}

// RequestFor builds the canonical request for a function with the sizes
// the paper's Figure 8 shows (14-byte read requests; write requests carry
// the data).
func RequestFor(seq uint8, fn uint8, dataLen int) *Msg {
	m := &Msg{Request: true, Sequence: seq, Function: fn}
	switch fn {
	case FnReadFile:
		m.Payload = make([]byte, 5) // header(9) + 5 = 14 bytes on the wire
	case FnWriteFile:
		m.Payload = fill(dataLen)
	case FnSearchFile:
		m.Payload = make([]byte, 23)
	case FnFileDirInfo, FnOpenFile, FnCloseFile, FnGetFileSize:
		m.Payload = make([]byte, 11)
	case FnDirService:
		m.Payload = make([]byte, 40)
	}
	return m
}

// ReplyFor builds the canonical reply: completion-only for writes,
// data-bearing for reads, 10-byte (1-byte body) size replies.
func ReplyFor(req *Msg, dataLen int) *Msg {
	m := &Msg{Sequence: req.Sequence, Function: req.Function}
	switch req.Function {
	case FnReadFile:
		m.Payload = fill(dataLen)
	case FnGetFileSize:
		m.Payload = make([]byte, 1) // 10 bytes on the wire
	case FnFileDirInfo:
		m.Payload = make([]byte, 60)
	case FnSearchFile:
		m.Payload = make([]byte, 32)
	case FnDirService:
		m.Payload = make([]byte, 80)
	}
	return m
}

func fill(n int) []byte { return filler.Bytes(n, "nopqrstuvwxyz") }
