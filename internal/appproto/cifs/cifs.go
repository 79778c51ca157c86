// Package cifs implements an SMB1/CIFS message codec and command
// accounting for the paper's §5.2.1 Windows-services analysis. The 32-byte
// SMB header is wire-accurate (protocol magic, command codes, status,
// response flag, TID/PID/UID/MID); command bodies use a simplified but
// self-consistent parameter layout carrying the fields the analysis
// needs — data lengths, pipe names, and embedded DCE/RPC payloads. CIFS
// travels either over TCP 445 directly or inside NetBIOS session frames on
// TCP 139; hosts use the two interchangeably, which is itself one of the
// paper's findings.
package cifs

import (
	"encoding/binary"
	"errors"
	"strings"
)

// SMB1 command codes used in the traces.
const (
	CmdClose            uint8 = 0x04
	CmdTrans            uint8 = 0x25 // named-pipe transactions (DCE/RPC, LANMAN)
	CmdEcho             uint8 = 0x2B
	CmdReadAndX         uint8 = 0x2E
	CmdWriteAndX        uint8 = 0x2F
	CmdTrans2           uint8 = 0x32 // QUERY_FILE_INFO and friends
	CmdTreeDisconnect   uint8 = 0x71
	CmdNegotiate        uint8 = 0x72
	CmdSessionSetupAndX uint8 = 0x73
	CmdLogoffAndX       uint8 = 0x74
	CmdTreeConnectAndX  uint8 = 0x75
	CmdNTCreateAndX     uint8 = 0xA2 // file/pipe open
)

// Table 10 command categories.
const (
	CatBasic  = "SMB Basic"
	CatPipes  = "RPC Pipes"
	CatFile   = "Windows File Sharing"
	CatLanman = "LANMAN"
	CatOther  = "Other"
)

// LanmanPipe is the management named pipe the paper calls out.
const LanmanPipe = `\PIPE\LANMAN`

// Message is one SMB message.
type Message struct {
	Command  uint8
	Status   uint32
	Response bool
	TreeID   uint16
	MID      uint16
	// PipeName is set for CmdTrans (e.g. `\PIPE\spoolss`, `\PIPE\LANMAN`).
	PipeName string
	// Payload carries file data for Read/Write and the DCE/RPC PDU for
	// pipe transactions.
	Payload []byte
	// DataLen is the header-claimed payload length (survives truncated
	// captures where len(Payload) is smaller).
	DataLen int
}

var smbMagic = [4]byte{0xFF, 'S', 'M', 'B'}

// ErrNotSMB reports a buffer that does not start with the SMB magic.
var ErrNotSMB = errors.New("cifs: not an SMB message")

// Encode serializes the message: 32-byte header, then a parameter block
// (word count, data length, pipe-name z-string for Trans) and the payload.
func Encode(m *Message) []byte {
	nameLen := 0
	if m.Command == CmdTrans {
		nameLen = len(m.PipeName) + 1
	}
	body := make([]byte, 1+2+2+2+nameLen+len(m.Payload))
	i := 0
	body[i] = 2 // word count (two 16-bit words follow)
	i++
	binary.LittleEndian.PutUint16(body[i:], uint16(len(m.Payload)))
	i += 2
	binary.LittleEndian.PutUint16(body[i:], uint16(nameLen))
	i += 2
	binary.LittleEndian.PutUint16(body[i:], uint16(nameLen+len(m.Payload))) // byte count
	i += 2
	if nameLen > 0 {
		copy(body[i:], m.PipeName)
		i += nameLen // includes the NUL already zeroed
	}
	copy(body[i:], m.Payload)

	out := make([]byte, 32+len(body))
	copy(out[0:4], smbMagic[:])
	out[4] = m.Command
	binary.LittleEndian.PutUint32(out[5:9], m.Status)
	if m.Response {
		out[9] = 0x80 // FLAGS reply bit
	}
	// flags2, PIDHigh, signature, reserved left zero.
	binary.LittleEndian.PutUint16(out[24:26], m.TreeID)
	binary.LittleEndian.PutUint16(out[26:28], 0xFEFF) // PID
	binary.LittleEndian.PutUint16(out[28:30], 0x0800) // UID
	binary.LittleEndian.PutUint16(out[30:32], m.MID)
	copy(out[32:], body)
	return out
}

// Decode parses one SMB message from data, returning the message and the
// number of bytes consumed. Truncated payloads are tolerated: DataLen
// holds the claimed size, Payload whatever was captured.
func Decode(data []byte) (*Message, int, error) {
	m := &Message{}
	n, err := DecodeInto(data, m)
	if err != nil {
		return nil, 0, err
	}
	return m, n, nil
}

// hdrLen is the SMB header; paramLen the parameter block this codec
// writes after it: word count, data length, name length, byte count.
const (
	hdrLen   = 32
	paramLen = 7
)

// DecodeInto parses one SMB message into a caller-owned Message, the
// allocation-light variant of Decode. m is overwritten; Payload borrows
// data.
func DecodeInto(data []byte, m *Message) (int, error) {
	if len(data) < hdrLen || !decodeHeader(data, m) {
		return 0, ErrNotSMB
	}
	body := data[hdrLen:]
	if len(body) < paramLen {
		return len(data), nil // header-only capture
	}
	dataLen, nameLen := decodeParams(body)
	rest := body[paramLen:]
	if nameLen > 0 {
		n := min(nameLen, len(rest))
		m.PipeName = internPipe(trimNULs(rest[:n]))
		rest = rest[n:]
	}
	m.DataLen = dataLen
	m.Payload = rest[:min(dataLen, len(rest))]
	return min(hdrLen+paramLen+nameLen+dataLen, len(data)), nil
}

// decodeHeader parses the header that opens h (at least hdrLen bytes)
// into m, overwriting it; it reports whether h starts with the SMB magic.
func decodeHeader(h []byte, m *Message) bool {
	if [4]byte(h) != smbMagic {
		return false
	}
	*m = Message{
		Command:  h[4],
		Status:   binary.LittleEndian.Uint32(h[5:9]),
		Response: h[9]&0x80 != 0,
		TreeID:   binary.LittleEndian.Uint16(h[24:26]),
		MID:      binary.LittleEndian.Uint16(h[30:32]),
	}
	return true
}

// decodeParams reads the claimed payload and name lengths out of the
// parameter block that opens params.
func decodeParams(params []byte) (dataLen, nameLen int) {
	return int(binary.LittleEndian.Uint16(params[1:3])), int(binary.LittleEndian.Uint16(params[3:5]))
}

func trimNULs(name []byte) []byte {
	for len(name) > 0 && name[len(name)-1] == 0 {
		name = name[:len(name)-1]
	}
	return name
}

// wellKnownPipes are the pipe names seen in the traces; interning them
// makes pipe-transaction decoding allocation-free for the common case.
var wellKnownPipes = []string{
	LanmanPipe, `\PIPE\spoolss`, `\PIPE\srvsvc`, `\PIPE\wkssvc`,
	`\PIPE\NETLOGON`, `\PIPE\lsarpc`, `\PIPE\samr`, `\PIPE\epmapper`,
}

func internPipe(b []byte) string {
	for _, p := range wellKnownPipes {
		if len(b) == len(p) && string(b) == p {
			return p
		}
	}
	return string(b)
}

// category buckets a message per Table 10.
func category(command uint8, pipe string) string {
	switch command {
	case CmdNegotiate, CmdSessionSetupAndX, CmdLogoffAndX,
		CmdTreeConnectAndX, CmdTreeDisconnect, CmdNTCreateAndX, CmdClose:
		return CatBasic
	case CmdTrans:
		if strings.EqualFold(pipe, LanmanPipe) {
			return CatLanman
		}
		if len(pipe) >= 6 && strings.EqualFold(pipe[:6], `\PIPE\`) {
			return CatPipes
		}
		return CatOther
	case CmdReadAndX, CmdWriteAndX, CmdTrans2:
		return CatFile
	default:
		return CatOther
	}
}

// StatusOK is NT_STATUS success.
const StatusOK uint32 = 0

// StatusAccessDenied is a representative failure status.
const StatusAccessDenied uint32 = 0xC0000022
