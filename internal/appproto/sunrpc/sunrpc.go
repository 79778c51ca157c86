// Package sunrpc implements the ONC RPC (RFC 1831) message format and the
// NFSv3 procedures the paper's §5.2.2 analysis reports: GETATTR, LOOKUP,
// ACCESS, READ and WRITE, over both UDP datagrams and TCP with 4-byte
// record marking. The paper found — against expectation — that most NFS
// host pairs still used UDP in 2004-05, so both transports are first-class
// here.
package sunrpc

import (
	"encoding/binary"
	"errors"

	"enttrace/internal/appproto/filler"
)

// RPC message types.
const (
	MsgCall  uint32 = 0
	MsgReply uint32 = 1
)

// ProgNFS is the NFS program number.
const ProgNFS uint32 = 100003

// NFSv3 procedure numbers.
const (
	ProcNull    uint32 = 0
	ProcGetAttr uint32 = 1
	ProcLookup  uint32 = 3
	ProcAccess  uint32 = 4
	ProcRead    uint32 = 6
	ProcWrite   uint32 = 7
	ProcReadDir uint32 = 16
)

// NFSv3 status codes the analysis distinguishes.
const (
	NFSOK       uint32 = 0
	NFSErrNoEnt uint32 = 2
	NFSErrIO    uint32 = 5
)

// ProcName maps a procedure to the paper's Table 13 row names.
func ProcName(proc uint32) string {
	switch proc {
	case ProcRead:
		return "Read"
	case ProcWrite:
		return "Write"
	case ProcGetAttr:
		return "GetAttr"
	case ProcLookup:
		return "LookUp"
	case ProcAccess:
		return "Access"
	default:
		return "Other"
	}
}

// Msg is one RPC call or reply with the NFS fields the analysis uses.
type Msg struct {
	XID  uint32
	Type uint32 // MsgCall or MsgReply
	// Call fields.
	Prog, Vers, Proc uint32
	// Reply fields.
	Status uint32 // NFS status from the result body
	// DataLen is file payload carried (WRITE call args, READ reply data).
	DataLen int
}

// Errors.
var (
	ErrShort = errors.New("sunrpc: truncated message")
)

const fhSize = 32 // NFSv3 file handles in these workloads

// Encode serializes a message (without TCP record marking; see MarkRecord).
// Calls carry AUTH_UNIX-shaped credentials; WRITE calls and READ replies
// carry DataLen bytes of file payload.
func Encode(m *Msg) []byte {
	b := make([]byte, 0, 64+m.DataLen)
	put32 := func(v uint32) { b = binary.BigEndian.AppendUint32(b, v) }
	put32(m.XID)
	put32(m.Type)
	if m.Type == MsgCall {
		put32(2) // RPC version
		put32(m.Prog)
		put32(m.Vers)
		put32(m.Proc)
		// Credential: AUTH_UNIX, 16 opaque bytes; verifier: AUTH_NONE.
		put32(1)
		put32(16)
		b = append(b, make([]byte, 16)...)
		put32(0)
		put32(0)
		// Arguments: file handle for all procs.
		b = append(b, make([]byte, fhSize)...)
		switch m.Proc {
		case ProcWrite:
			put32(0) // offset hi
			put32(0) // offset lo
			put32(uint32(m.DataLen))
			b = append(b, fill(m.DataLen)...)
		case ProcRead:
			put32(0)
			put32(0)
			put32(uint32(m.DataLen)) // requested count
		case ProcLookup:
			name := "somefile.dat"
			put32(uint32(len(name)))
			b = append(b, name...)
			b = append(b, make([]byte, pad4(len(name)))...)
		}
	} else {
		put32(0) // reply_stat accepted
		put32(0) // verifier flavor
		put32(0) // verifier length
		put32(0) // accept_stat success
		put32(m.Status)
		if m.Status == NFSOK {
			switch m.Proc {
			case ProcRead:
				put32(uint32(m.DataLen))
				b = append(b, fill(m.DataLen)...)
			case ProcGetAttr, ProcLookup:
				b = append(b, make([]byte, 84)...) // fattr3
			case ProcWrite:
				put32(uint32(m.DataLen)) // committed count
			}
		}
	}
	return b
}

func pad4(n int) int { return (4 - n%4) % 4 }

func fill(n int) []byte { return filler.Bytes(n, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") }

// Decode parses a message handed over whole. For replies, proc must be
// supplied by the caller (from the matched call), since RPC replies do
// not repeat it. A capture cut short inside a call's arguments still
// yields the header facts.
func Decode(data []byte, replyProc uint32) (*Msg, error) {
	r, ok := scanMessage(data)
	if !ok {
		return nil, ErrShort
	}
	m := &Msg{XID: r.XID, Type: r.Type}
	if m.Type == MsgCall {
		m.Prog, m.Vers, m.Proc = r.Prog, r.Vers, r.Proc
		m.DataLen = int(r.Count)
		return m, nil
	}
	m.Proc = replyProc
	m.Status = r.Status
	if m.Status == NFSOK && replyProc == ProcRead {
		m.DataLen = int(r.Count)
	}
	return m, nil
}

// scanMessage reads one whole message's fields; ok is false when it is
// too short to decode.
func scanMessage(raw []byte) (Record, bool) {
	var s msgScan
	s.begin(uint32(len(raw)))
	s.feed(raw)
	return s.rec, s.valid
}

// MarkRecord prepends the TCP record-marking header (last-fragment bit set).
func MarkRecord(msg []byte) []byte {
	out := make([]byte, 4+len(msg))
	binary.BigEndian.PutUint32(out, uint32(len(msg))|0x80000000)
	copy(out[4:], msg)
	return out
}
