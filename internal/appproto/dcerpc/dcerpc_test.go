package dcerpc

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestUUIDParseAndString(t *testing.T) {
	if got := IfEPM.String(); got != "e1af8308-5d1f-11c9-91a4-08002b14a0fa" {
		t.Errorf("EPM uuid = %s", got)
	}
	if IfNetLogon == IfLsaRPC || IfNetLogon == IfSpoolss {
		t.Error("interface UUIDs must be distinct")
	}
}

func TestInterfaceNames(t *testing.T) {
	cases := map[string]UUID{
		"NetLogon": IfNetLogon,
		"LsaRPC":   IfLsaRPC,
		"Spoolss":  IfSpoolss,
		"EPM":      IfEPM,
	}
	for want, u := range cases {
		if got := InterfaceName(u); got != want {
			t.Errorf("InterfaceName(%s) = %q", u, got)
		}
	}
	if InterfaceName(UUID{1, 2, 3}) != "unknown" {
		t.Error("unknown uuid should be unknown")
	}
}

func TestBindRoundTrip(t *testing.T) {
	p := &PDU{Type: PTBind, CallID: 9, Iface: IfSpoolss}
	got, n, err := Decode(Encode(p))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(Encode(p)) {
		t.Errorf("consumed %d", n)
	}
	if got.Type != PTBind || got.CallID != 9 || got.Iface != IfSpoolss {
		t.Errorf("got %+v", got)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	stub := bytes.Repeat([]byte{0xAB}, 1024)
	p := &PDU{Type: PTRequest, CallID: 3, Opnum: OpSpoolssWritePrinter, Stub: stub}
	got, _, err := Decode(Encode(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Opnum != OpSpoolssWritePrinter || got.StubLen != 1024 || !bytes.Equal(got.Stub, stub) {
		t.Errorf("got opnum=%d stublen=%d", got.Opnum, got.StubLen)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{5, 0}); err != ErrShort {
		t.Errorf("short: %v", err)
	}
	bad := Encode(&PDU{Type: PTRequest})
	bad[0] = 4
	if _, _, err := Decode(bad); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
}

func TestFunctionNames(t *testing.T) {
	cases := []struct {
		iface UUID
		op    uint16
		want  string
	}{
		{IfSpoolss, OpSpoolssWritePrinter, "Spoolss/WritePrinter"},
		{IfSpoolss, OpSpoolssOpenPrinter, "Spoolss/other"},
		{IfNetLogon, OpNetrLogonSamLogon, "NetLogon"},
		{IfLsaRPC, OpLsarLookupNames, "LsaRPC"},
		{IfEPM, OpEpmMap, "EPM"},
		{UUID{9}, 5, "Other"},
	}
	for _, c := range cases {
		if got := FunctionName(c.iface, c.op); got != c.want {
			t.Errorf("FunctionName(%s, %d) = %q, want %q", c.iface, c.op, got, c.want)
		}
	}
}

func TestEpmMapResponse(t *testing.T) {
	data := EncodeEpmMapResponse(5, IfSpoolss, netip.AddrFrom4([4]byte{128, 3, 7, 5}), 1891)
	p, _, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	iface, host, port, ok := ParseEpmMapResponse(p)
	if !ok || iface != IfSpoolss || port != 1891 || host != netip.AddrFrom4([4]byte{128, 3, 7, 5}) {
		t.Errorf("parsed %v %v %d %v", iface, host, port, ok)
	}
}

func TestAnalyzerBindThenRequests(t *testing.T) {
	a := NewAnalyzer()
	var stream []byte
	stream = append(stream, Encode(&PDU{Type: PTBind, CallID: 1, Iface: IfSpoolss})...)
	for i := 0; i < 10; i++ {
		stream = append(stream, Encode(&PDU{Type: PTRequest, CallID: uint32(2 + i), Opnum: OpSpoolssWritePrinter, Stub: make([]byte, 4096)})...)
	}
	stream = append(stream, Encode(&PDU{Type: PTRequest, CallID: 99, Opnum: OpSpoolssOpenPrinter, Stub: make([]byte, 64)})...)
	a.Stream(ChanKey{Pipe: "pipe1"}, stream)
	if got := a.Requests.Get("Spoolss/WritePrinter"); got != 10 {
		t.Errorf("WritePrinter = %d", got)
	}
	if got := a.Bytes.Get("Spoolss/WritePrinter"); got != 40960 {
		t.Errorf("WritePrinter bytes = %d", got)
	}
	if got := a.Requests.Get("Spoolss/other"); got != 1 {
		t.Errorf("Spoolss/other = %d", got)
	}
	if u, ok := a.binds[ChanKey{Pipe: "pipe1"}]; !ok || u != IfSpoolss {
		t.Error("bind not recorded")
	}
}

func TestAnalyzerChannelsIndependent(t *testing.T) {
	a := NewAnalyzer()
	auth, spool := ChanKey{Conn: 1, Pipe: `\PIPE\netlogon`}, ChanKey{Conn: 1, Pipe: `\PIPE\spoolss`}
	a.Stream(auth, Encode(&PDU{Type: PTBind, CallID: 1, Iface: IfNetLogon}))
	a.Stream(spool, Encode(&PDU{Type: PTBind, CallID: 1, Iface: IfSpoolss}))
	a.Stream(auth, Encode(&PDU{Type: PTRequest, CallID: 2, Opnum: OpNetrLogonSamLogon, Stub: make([]byte, 100)}))
	a.Stream(spool, Encode(&PDU{Type: PTRequest, CallID: 2, Opnum: OpSpoolssWritePrinter, Stub: make([]byte, 100)}))
	if a.Requests.Get("NetLogon") != 1 || a.Requests.Get("Spoolss/WritePrinter") != 1 {
		t.Errorf("cross-channel contamination: %v", a.Requests.Entries())
	}
}

// TestEpmResponseSummaryCarriesMapping pins what replay registers an
// endpoint-mapped port from: the parsed response's Summary.
func TestEpmResponseSummaryCarriesMapping(t *testing.T) {
	var p StreamParser
	p.Data(EncodeEpmMapResponse(2, IfSpoolss, netip.AddrFrom4([4]byte{128, 3, 7, 5}), 2101))
	p.End()
	if pdus := p.PDUs(); len(pdus) != 1 || !pdus[0].Mapped || pdus[0].Port != 2101 || pdus[0].Iface != IfSpoolss ||
		pdus[0].Host != [4]byte{128, 3, 7, 5} {
		t.Errorf("summaries = %+v", pdus)
	}
}

func TestAnalyzerUnboundRequestIsOther(t *testing.T) {
	a := NewAnalyzer()
	a.Stream(ChanKey{}, Encode(&PDU{Type: PTRequest, CallID: 1, Opnum: 7, Stub: make([]byte, 10)}))
	if a.Requests.Get("Other") != 1 {
		t.Errorf("requests: %v", a.Requests.Entries())
	}
}

// Property: round-trip of arbitrary request PDUs.
func TestRoundTripProperty(t *testing.T) {
	f := func(callID uint32, opnum uint16, stub []byte) bool {
		if len(stub) > 4000 {
			stub = stub[:4000]
		}
		p := &PDU{Type: PTRequest, CallID: callID, Opnum: opnum, Stub: stub}
		got, n, err := Decode(Encode(p))
		if err != nil {
			return false
		}
		return n == len(Encode(p)) && got.CallID == callID && got.Opnum == opnum && bytes.Equal(got.Stub, stub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: decoder and analyzer survive arbitrary bytes.
func TestFuzzProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _, _ = Decode(data)
		a := NewAnalyzer()
		a.Stream(ChanKey{}, data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAnalyzerStream(b *testing.B) {
	var stream []byte
	stream = append(stream, Encode(&PDU{Type: PTBind, CallID: 1, Iface: IfSpoolss})...)
	for i := 0; i < 20; i++ {
		stream = append(stream, Encode(&PDU{Type: PTRequest, CallID: uint32(i), Opnum: OpSpoolssWritePrinter, Stub: make([]byte, 1024)})...)
	}
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAnalyzer()
		a.Stream(ChanKey{}, stream)
	}
}
