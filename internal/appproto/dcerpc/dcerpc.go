// Package dcerpc implements the DCE/RPC connection-oriented PDU format to
// the depth of the paper's §5.2.1 function breakdown (Table 11): bind PDUs
// carrying the abstract-syntax interface UUID, request PDUs carrying the
// operation number, and Endpoint Mapper map responses that reveal the
// ephemeral ports of services running over stand-alone TCP — which is how
// the paper's analysis discovers non-pipe DCE/RPC traffic.
//
// The 16-byte PDU header is wire-accurate (RFC-style C706 layout with
// little-endian data representation); bind and request bodies carry the
// fields the analysis consumes. The EPM map response uses a simplified
// 18-byte tower (port + interface UUID) rather than full C706 tower
// encoding — the analyzer and generator agree, which is the property the
// reproduction needs.
package dcerpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// PDU types.
const (
	PTRequest  uint8 = 0
	PTResponse uint8 = 2
	PTBind     uint8 = 11
	PTBindAck  uint8 = 12
)

// UUID is a DCE interface identifier.
type UUID [16]byte

// Well-known interfaces from the paper's traces. Values are the real
// interface UUIDs (netlogon, lsarpc, spoolss, and the endpoint mapper).
var (
	IfNetLogon = mustUUID("12345678-1234-abcd-ef00-01234567cffb")
	IfLsaRPC   = mustUUID("12345778-1234-abcd-ef00-0123456789ab")
	IfSpoolss  = mustUUID("12345678-1234-abcd-ef00-0123456789ab")
	IfEPM      = mustUUID("e1af8308-5d1f-11c9-91a4-08002b14a0fa")
)

func mustUUID(s string) UUID {
	var u UUID
	hex := func(c byte) byte {
		switch {
		case c >= '0' && c <= '9':
			return c - '0'
		case c >= 'a' && c <= 'f':
			return c - 'a' + 10
		case c >= 'A' && c <= 'F':
			return c - 'A' + 10
		}
		panic("dcerpc: bad uuid literal")
	}
	j := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '-' {
			continue
		}
		u[j/2] |= hex(s[i]) << (4 * uint(1-j%2))
		j++
	}
	if j != 32 {
		panic("dcerpc: bad uuid length")
	}
	return u
}

// String renders the UUID in canonical form.
func (u UUID) String() string {
	return fmt.Sprintf("%x-%x-%x-%x-%x", u[0:4], u[4:6], u[6:8], u[8:10], u[10:16])
}

// InterfaceName names a bound interface for reporting.
func InterfaceName(u UUID) string {
	switch u {
	case IfNetLogon:
		return "NetLogon"
	case IfLsaRPC:
		return "LsaRPC"
	case IfSpoolss:
		return "Spoolss"
	case IfEPM:
		return "EPM"
	default:
		return "unknown"
	}
}

// Spoolss operation numbers the paper's Table 11 separates.
const (
	OpSpoolssWritePrinter uint16 = 19
	OpSpoolssOpenPrinter  uint16 = 1
	OpSpoolssEnumPrinters uint16 = 0
	OpSpoolssClosePrinter uint16 = 29
)

// NetLogon / LsaRPC representative opnums.
const (
	OpNetrLogonSamLogon uint16 = 2
	OpLsarLookupNames   uint16 = 14
	OpEpmMap            uint16 = 3
)

// FunctionName maps (interface, opnum) to the paper's Table 11 rows.
func FunctionName(iface UUID, opnum uint16) string {
	switch iface {
	case IfSpoolss:
		if opnum == OpSpoolssWritePrinter {
			return "Spoolss/WritePrinter"
		}
		return "Spoolss/other"
	case IfNetLogon:
		return "NetLogon"
	case IfLsaRPC:
		return "LsaRPC"
	case IfEPM:
		return "EPM"
	default:
		return "Other"
	}
}

// PDU is one connection-oriented DCE/RPC PDU.
type PDU struct {
	Type   uint8
	CallID uint32
	// Iface is set for bind/bind-ack PDUs.
	Iface UUID
	// Opnum is set for request PDUs.
	Opnum uint16
	// StubLen is the stub data length (request/response payload).
	StubLen int
	// Stub is the captured stub data.
	Stub []byte
}

// ErrShort reports a buffer too small for the fixed header.
var ErrShort = errors.New("dcerpc: truncated PDU")

// ErrBadVersion reports a PDU with the wrong RPC version.
var ErrBadVersion = errors.New("dcerpc: not a version-5 PDU")

const hdrLen = 16

// epmStubLen is the size of an endpoint-map entry: port, interface UUID,
// IPv4 host.
const epmStubLen = 22

// Encode serializes the PDU.
func Encode(p *PDU) []byte {
	var body []byte
	switch p.Type {
	case PTBind, PTBindAck:
		body = make([]byte, 4+16)
		// max xmit/recv frag sizes
		binary.LittleEndian.PutUint16(body[0:2], 4280)
		binary.LittleEndian.PutUint16(body[2:4], 4280)
		copy(body[4:20], p.Iface[:])
	case PTRequest:
		body = make([]byte, 8+len(p.Stub))
		binary.LittleEndian.PutUint32(body[0:4], uint32(len(p.Stub))) // alloc hint
		// context id at 4:6 stays 0
		binary.LittleEndian.PutUint16(body[6:8], p.Opnum)
		copy(body[8:], p.Stub)
	case PTResponse:
		body = make([]byte, 8+len(p.Stub))
		binary.LittleEndian.PutUint32(body[0:4], uint32(len(p.Stub)))
		copy(body[8:], p.Stub)
	}
	out := make([]byte, hdrLen+len(body))
	out[0] = 5 // RPC major version
	out[2] = p.Type
	out[3] = 0x03 // first+last fragment
	out[4] = 0x10 // little-endian data representation
	binary.LittleEndian.PutUint16(out[8:10], uint16(len(out)))
	binary.LittleEndian.PutUint32(out[12:16], p.CallID)
	copy(out[hdrLen:], body)
	return out
}

// Decode parses one PDU from data, returning it and the bytes consumed
// (the header-declared fragment length, clamped to the buffer).
func Decode(data []byte) (*PDU, int, error) {
	if len(data) < hdrLen {
		return nil, 0, ErrShort
	}
	if data[0] != 5 {
		return nil, 0, ErrBadVersion
	}
	p := &PDU{}
	return p, decodeInto(data, p), nil
}

// decodeInto parses the version-5 PDU that opens data, at least hdrLen
// bytes, into p and returns the bytes consumed. Stub borrows data.
func decodeInto(data []byte, p *PDU) int {
	*p = PDU{
		Type:   data[2],
		CallID: binary.LittleEndian.Uint32(data[12:16]),
	}
	fragLen := max(int(binary.LittleEndian.Uint16(data[8:10])), hdrLen)
	consumed := min(fragLen, len(data))
	body := data[hdrLen:consumed]
	switch p.Type {
	case PTBind, PTBindAck:
		if len(body) >= 20 {
			copy(p.Iface[:], body[4:20])
		}
	case PTRequest:
		if len(body) >= 8 {
			p.StubLen = int(binary.LittleEndian.Uint32(body[0:4]))
			p.Opnum = binary.LittleEndian.Uint16(body[6:8])
			p.Stub = body[8:]
		}
	case PTResponse:
		if len(body) >= 8 {
			p.StubLen = int(binary.LittleEndian.Uint32(body[0:4]))
			p.Stub = body[8:]
		}
	}
	return consumed
}

// EncodeEpmMapResponse builds an EPM ept_map response PDU whose stub
// reveals that iface is reachable at the given host and TCP port. Real
// C706 towers carry an ip_addr floor alongside the port floor for the
// same reason: the mapped endpoint may live on a different host than
// the endpoint mapper itself.
func EncodeEpmMapResponse(callID uint32, iface UUID, host netip.Addr, port uint16) []byte {
	stub := make([]byte, epmStubLen)
	binary.BigEndian.PutUint16(stub[0:2], port)
	copy(stub[2:18], iface[:])
	a4 := host.As4()
	copy(stub[18:22], a4[:])
	return Encode(&PDU{Type: PTResponse, CallID: callID, Stub: stub})
}

// ParseEpmMapResponse extracts (iface, host, port) from an EPM map
// response stub. ok is false when the stub is too short.
func ParseEpmMapResponse(p *PDU) (iface UUID, host netip.Addr, port uint16, ok bool) {
	if p.Type != PTResponse || len(p.Stub) < epmStubLen {
		return UUID{}, netip.Addr{}, 0, false
	}
	port = binary.BigEndian.Uint16(p.Stub[0:2])
	copy(iface[:], p.Stub[2:18])
	host = netip.AddrFrom4([4]byte(p.Stub[18:epmStubLen]))
	return iface, host, port, true
}
