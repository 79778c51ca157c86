package ncp

import (
	"net/netip"
	"testing"
	"testing/quick"

	"enttrace/internal/layers"
)

func TestFnNames(t *testing.T) {
	cases := map[uint8]string{
		FnReadFile:    "Read",
		FnWriteFile:   "Write",
		FnFileDirInfo: "FileDirInfo",
		FnOpenFile:    "File Open/Close",
		FnCloseFile:   "File Open/Close",
		FnGetFileSize: "File Size",
		FnSearchFile:  "File Search",
		FnDirService:  "Directory Service",
		7:             "Other",
	}
	for fn, want := range cases {
		if got := FnName(fn); got != want {
			t.Errorf("FnName(%d) = %q, want %q", fn, got, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	m := &Msg{Request: true, Sequence: 9, Function: FnWriteFile, Payload: make([]byte, 8000)}
	got, n, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if n != hdrLen+8000 {
		t.Errorf("consumed %d", n)
	}
	if !got.Request || got.Sequence != 9 || got.Function != FnWriteFile || got.PayloadLen != 8000 {
		t.Errorf("got %+v", got)
	}
}

func TestBadType(t *testing.T) {
	if _, _, err := Decode([]byte{0x11, 0x11, 0, 0, 0, 0, 0, 0, 0}); err != ErrBadType {
		t.Errorf("err = %v", err)
	}
	if _, _, err := Decode([]byte{0x22}); err != ErrShort {
		t.Errorf("short err = %v", err)
	}
}

func TestCanonicalSizes(t *testing.T) {
	// Figure 8's modes: 14-byte read request, 2-byte completion-only write
	// reply... our framing carries a 9-byte header, so "2-byte reply"
	// means header-only (payload 0) and the read request is header+5=14.
	readReq := RequestFor(1, FnReadFile, 0)
	if got := len(Encode(readReq)); got != 14 {
		t.Errorf("read request = %d bytes, want 14", got)
	}
	writeReply := ReplyFor(&Msg{Function: FnWriteFile, Sequence: 1}, 0)
	if got := len(Encode(writeReply)); got != hdrLen {
		t.Errorf("write reply = %d bytes, want header-only %d", got, hdrLen)
	}
	sizeReply := ReplyFor(&Msg{Function: FnGetFileSize, Sequence: 1}, 0)
	if got := len(Encode(sizeReply)); got != 10 {
		t.Errorf("file-size reply = %d bytes, want 10", got)
	}
	readReply := ReplyFor(&Msg{Function: FnReadFile, Sequence: 1}, 260)
	if got := len(Encode(readReply)); got != hdrLen+260 {
		t.Errorf("read reply = %d", got)
	}
}

func TestTruncatedPayload(t *testing.T) {
	m := &Msg{Request: true, Function: FnWriteFile, Payload: make([]byte, 5000)}
	raw := Encode(m)[:100]
	got, n, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.PayloadLen != 5000 {
		t.Errorf("claimed = %d", got.PayloadLen)
	}
	if n != 100 {
		t.Errorf("consumed = %d", n)
	}
}

var (
	cli = netip.MustParseAddr("10.2.2.2")
	srv = netip.MustParseAddr("10.0.0.24")
)

func TestAnalyzerRequestReply(t *testing.T) {
	a := NewAnalyzer()
	req := RequestFor(3, FnReadFile, 0)
	a.Stream(cli, srv, Encode(req))
	a.Stream(srv, cli, Encode(ReplyFor(req, 8000)))
	if a.Requests.Get("Read") != 1 {
		t.Errorf("read reqs = %d", a.Requests.Get("Read"))
	}
	if a.Bytes.Get("Read") != 8000 {
		t.Errorf("read bytes = %d", a.Bytes.Get("Read"))
	}
	if a.OK != 1 {
		t.Errorf("ok = %d", a.OK)
	}
	if a.PerPair[layers.NewHostPair(cli, srv)] != 1 {
		t.Error("per-pair")
	}
}

func TestAnalyzerWriteBytesOnRequest(t *testing.T) {
	a := NewAnalyzer()
	a.Stream(cli, srv, Encode(RequestFor(1, FnWriteFile, 4096)))
	if a.Bytes.Get("Write") != 4096 {
		t.Errorf("write bytes = %d", a.Bytes.Get("Write"))
	}
}

func TestAnalyzerFailedRequests(t *testing.T) {
	a := NewAnalyzer()
	// "failures dominated by File/Dir Info requests"
	req := RequestFor(2, FnFileDirInfo, 0)
	a.Stream(cli, srv, Encode(req))
	reply := ReplyFor(req, 0)
	reply.Completion = 0x89 // access denied
	reply.Payload = nil
	a.Stream(srv, cli, Encode(reply))
	if a.Failed != 1 || a.OK != 0 {
		t.Errorf("ok=%d failed=%d", a.OK, a.Failed)
	}
	if a.SuccessRate() != 0 {
		t.Errorf("rate = %v", a.SuccessRate())
	}
}

func TestAnalyzerBackToBackMessages(t *testing.T) {
	a := NewAnalyzer()
	var stream []byte
	for i := 0; i < 50; i++ {
		stream = append(stream, Encode(RequestFor(uint8(i), FnReadFile, 0))...)
	}
	a.Stream(cli, srv, stream)
	if a.Requests.Get("Read") != 50 {
		t.Errorf("reads = %d", a.Requests.Get("Read"))
	}
	if a.ReqSizes.N() != 50 || a.ReqSizes.Median() != 14 {
		t.Errorf("req sizes: n=%d median=%v", a.ReqSizes.N(), a.ReqSizes.Median())
	}
}

// Property: round-trip for arbitrary function/sequence/payload.
func TestRoundTripProperty(t *testing.T) {
	f := func(req bool, seq, fn uint8, payload []byte) bool {
		if len(payload) > 3000 {
			payload = payload[:3000]
		}
		m := &Msg{Request: req, Sequence: seq, Function: fn, Payload: payload}
		got, _, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		return got.Request == req && got.Sequence == seq && got.Function == fn && got.PayloadLen == len(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFuzz(t *testing.T) {
	f := func(data []byte) bool {
		a := NewAnalyzer()
		a.Stream(cli, srv, data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
