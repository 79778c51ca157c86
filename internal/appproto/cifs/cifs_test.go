package cifs

import (
	"bytes"
	"testing"
	"testing/quick"

	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/appproto/netbios"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Message{
		Command: CmdWriteAndX,
		TreeID:  3,
		MID:     41,
		Payload: bytes.Repeat([]byte{0x5a}, 8192),
	}
	data := Encode(m)
	got, n, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Errorf("consumed %d of %d", n, len(data))
	}
	if got.Command != CmdWriteAndX || got.TreeID != 3 || got.MID != 41 {
		t.Errorf("got %+v", got)
	}
	if got.DataLen != 8192 || !bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("payload len = %d claimed %d", len(got.Payload), got.DataLen)
	}
}

func TestPipeNameRoundTrip(t *testing.T) {
	m := &Message{Command: CmdTrans, PipeName: `\PIPE\spoolss`, Payload: []byte("rpc pdu")}
	got, _, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.PipeName != `\PIPE\spoolss` {
		t.Errorf("pipe = %q", got.PipeName)
	}
	if string(got.Payload) != "rpc pdu" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestResponseFlagAndStatus(t *testing.T) {
	m := &Message{Command: CmdNTCreateAndX, Response: true, Status: StatusAccessDenied}
	got, _, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || got.Status != StatusAccessDenied {
		t.Errorf("got %+v", got)
	}
}

func TestDecodeNotSMB(t *testing.T) {
	if _, _, err := Decode([]byte("GET / HTTP/1.1\r\n\r\n padding padding padding")); err != ErrNotSMB {
		t.Errorf("err = %v", err)
	}
	if _, _, err := Decode([]byte{0xFF, 'S', 'M'}); err != ErrNotSMB {
		t.Errorf("short err = %v", err)
	}
}

func TestTruncatedPayloadTolerated(t *testing.T) {
	m := &Message{Command: CmdReadAndX, Response: true, Payload: make([]byte, 4096)}
	full := Encode(m)
	got, n, err := Decode(full[:100]) // 68-byte-snaplen-ish truncation
	if err != nil {
		t.Fatal(err)
	}
	if got.DataLen != 4096 {
		t.Errorf("claimed len = %d, want 4096", got.DataLen)
	}
	if len(got.Payload) >= 4096 {
		t.Errorf("captured = %d", len(got.Payload))
	}
	if n != 100 {
		t.Errorf("consumed = %d", n)
	}
}

func TestCategories(t *testing.T) {
	cases := []struct {
		m    Message
		want string
	}{
		{Message{Command: CmdNegotiate}, CatBasic},
		{Message{Command: CmdSessionSetupAndX}, CatBasic},
		{Message{Command: CmdTreeConnectAndX}, CatBasic},
		{Message{Command: CmdNTCreateAndX}, CatBasic},
		{Message{Command: CmdClose}, CatBasic},
		{Message{Command: CmdReadAndX}, CatFile},
		{Message{Command: CmdWriteAndX}, CatFile},
		{Message{Command: CmdTrans2}, CatFile},
		{Message{Command: CmdTrans, PipeName: `\PIPE\spoolss`}, CatPipes},
		{Message{Command: CmdTrans, PipeName: `\PIPE\lsarpc`}, CatPipes},
		{Message{Command: CmdTrans, PipeName: `\PIPE\LANMAN`}, CatLanman},
		{Message{Command: CmdTrans, PipeName: `\pipe\lanman`}, CatLanman},
		{Message{Command: CmdTrans, PipeName: "weird"}, CatOther},
		{Message{Command: 0xEE}, CatOther},
	}
	for _, c := range cases {
		if got := category(c.m.Command, c.m.PipeName); got != c.want {
			t.Errorf("category(cmd=%#x pipe=%q) = %q, want %q", c.m.Command, c.m.PipeName, got, c.want)
		}
	}
}

func TestAnalyzerRaw445Stream(t *testing.T) {
	var stream []byte
	msgs := []*Message{
		{Command: CmdNegotiate},
		{Command: CmdSessionSetupAndX},
		{Command: CmdNTCreateAndX},
		{Command: CmdTrans, PipeName: `\PIPE\spoolss`, Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, Opnum: dcerpc.OpSpoolssWritePrinter, Stub: make([]byte, 400)})},
		{Command: CmdWriteAndX, Payload: make([]byte, 8192)},
	}
	for _, m := range msgs {
		stream = append(stream, Encode(m)...)
	}
	a := NewAnalyzer()
	var pipeStubs uint32
	feed(a, false, stream, func(pipe string, pdus []dcerpc.Summary) {
		if pipe == `\PIPE\spoolss` {
			for _, pdu := range pdus {
				pipeStubs += pdu.StubLen
			}
		}
	})
	if a.Requests.Get(CatBasic) != 3 {
		t.Errorf("basic = %d", a.Requests.Get(CatBasic))
	}
	if a.Requests.Get(CatPipes) != 1 || a.Requests.Get(CatFile) != 1 {
		t.Errorf("pipes=%d file=%d", a.Requests.Get(CatPipes), a.Requests.Get(CatFile))
	}
	if a.Bytes.Get(CatFile) != 8192 {
		t.Errorf("file bytes = %d", a.Bytes.Get(CatFile))
	}
	if pipeStubs != 400 {
		t.Errorf("pipe sink got %d stub bytes", pipeStubs)
	}
}

// feed folds one reassembled direction handed over whole — a one-chunk
// feed of StreamParser. netbiosFramed selects TCP-139-style session
// framing (each SMB wrapped in a NetBIOS session frame) versus raw
// port-445 framing.
func feed(a *Analyzer, netbiosFramed bool, stream []byte, pipes func(string, []dcerpc.Summary)) {
	var p StreamParser
	p.Init(netbiosFramed, 0)
	p.Data(stream)
	p.End()
	a.Records(&p, pipes)
}

func TestAnalyzerNetbiosFramedStream(t *testing.T) {
	// TCP 139: session request first, then SMBs inside session messages.
	var stream []byte
	stream = append(stream, netbios.EncodeSSN(netbios.SSNRequest, make([]byte, 68))...)
	for _, m := range []*Message{
		{Command: CmdNegotiate},
		{Command: CmdTrans, PipeName: `\PIPE\LANMAN`, Payload: make([]byte, 60)},
	} {
		stream = append(stream, netbios.EncodeSSN(netbios.SSNMessage, Encode(m))...)
	}
	a := NewAnalyzer()
	feed(a, true, stream, nil)
	if a.Requests.Get(CatBasic) != 1 || a.Requests.Get(CatLanman) != 1 {
		t.Errorf("basic=%d lanman=%d", a.Requests.Get(CatBasic), a.Requests.Get(CatLanman))
	}
}

func TestAnalyzerResponsesNotCountedAsRequests(t *testing.T) {
	var stream []byte
	stream = append(stream, Encode(&Message{Command: CmdReadAndX, Response: true, Payload: make([]byte, 100)})...)
	a := NewAnalyzer()
	feed(a, false, stream, nil)
	if a.Requests.Total() != 0 {
		t.Error("response counted as request")
	}
	if a.Bytes.Get(CatFile) != 100 {
		t.Errorf("response bytes = %d", a.Bytes.Get(CatFile))
	}
}

// Property: encode/decode round-trips command, response flag, pipe name,
// and payload for arbitrary content.
func TestRoundTripProperty(t *testing.T) {
	f := func(cmdSel uint8, resp bool, mid uint16, payload []byte) bool {
		cmds := []uint8{CmdNegotiate, CmdTrans, CmdReadAndX, CmdWriteAndX, CmdNTCreateAndX, CmdTrans2}
		m := &Message{Command: cmds[int(cmdSel)%len(cmds)], Response: resp, MID: mid}
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		m.Payload = payload
		if m.Command == CmdTrans {
			m.PipeName = `\PIPE\netlogon`
		}
		got, n, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		return n == len(Encode(m)) && got.Command == m.Command && got.Response == resp &&
			got.MID == mid && bytes.Equal(got.Payload, payload) && got.PipeName == m.PipeName
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: analyzer never panics on arbitrary streams.
func TestAnalyzerFuzz(t *testing.T) {
	f := func(data []byte, framed bool) bool {
		a := NewAnalyzer()
		feed(a, framed, data, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDecodeSMB(b *testing.B) {
	data := Encode(&Message{Command: CmdWriteAndX, Payload: make([]byte, 8192)})
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
