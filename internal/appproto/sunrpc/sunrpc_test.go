package sunrpc

import (
	"net/netip"
	"testing"
	"testing/quick"

	"enttrace/internal/layers"
)

func TestProcNames(t *testing.T) {
	cases := map[uint32]string{
		ProcRead:    "Read",
		ProcWrite:   "Write",
		ProcGetAttr: "GetAttr",
		ProcLookup:  "LookUp",
		ProcAccess:  "Access",
		ProcReadDir: "Other",
		ProcNull:    "Other",
	}
	for proc, want := range cases {
		if got := ProcName(proc); got != want {
			t.Errorf("ProcName(%d) = %q", proc, got)
		}
	}
}

func TestWriteCallRoundTrip(t *testing.T) {
	m := &Msg{XID: 77, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcWrite, DataLen: 8192}
	raw := Encode(m)
	got, err := Decode(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.XID != 77 || got.Proc != ProcWrite || got.DataLen != 8192 {
		t.Errorf("got %+v", got)
	}
	if len(raw) < 8192 {
		t.Errorf("write call should carry data, len = %d", len(raw))
	}
}

func TestReadCallSmallButReplyLarge(t *testing.T) {
	call := Encode(&Msg{XID: 1, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcRead, DataLen: 8192})
	if len(call) > 200 {
		t.Errorf("read call len = %d, should be small", len(call))
	}
	reply := Encode(&Msg{XID: 1, Type: MsgReply, Proc: ProcRead, Status: NFSOK, DataLen: 8192})
	if len(reply) < 8192 {
		t.Errorf("read reply len = %d, should carry data", len(reply))
	}
	got, err := Decode(reply, ProcRead)
	if err != nil {
		t.Fatal(err)
	}
	if got.DataLen != 8192 || got.Status != NFSOK {
		t.Errorf("got %+v", got)
	}
}

func TestLookupFailureReply(t *testing.T) {
	reply := Encode(&Msg{XID: 2, Type: MsgReply, Proc: ProcLookup, Status: NFSErrNoEnt})
	got, err := Decode(reply, ProcLookup)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != NFSErrNoEnt {
		t.Errorf("status = %d", got.Status)
	}
}

func TestRecordMarking(t *testing.T) {
	msgs := [][]byte{
		Encode(&Msg{XID: 1, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcGetAttr}),
		Encode(&Msg{XID: 2, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcAccess}),
	}
	var stream []byte
	for _, m := range msgs {
		stream = append(stream, MarkRecord(m)...)
	}
	got := SplitRecords(stream)
	if len(got) != 2 {
		t.Fatalf("split %d records", len(got))
	}
	for i, want := range []Record{
		{Len: uint32(len(msgs[0])), XID: 1, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcGetAttr},
		{Len: uint32(len(msgs[1])), XID: 2, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcAccess},
	} {
		if got[i] != want {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want)
		}
	}
}

func TestSplitRecordsTruncated(t *testing.T) {
	rec := MarkRecord(Encode(&Msg{XID: 1, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcRead}))
	if count := len(SplitRecords(rec[:len(rec)-3])); count != 0 {
		t.Error("truncated record should not be delivered")
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := Decode([]byte{1, 2}, 0); err != ErrShort {
		t.Errorf("err = %v", err)
	}
}

var (
	cli = netip.MustParseAddr("10.1.1.9")
	srv = netip.MustParseAddr("10.0.0.49")
)

func TestAnalyzerCallReply(t *testing.T) {
	a := NewAnalyzer()
	a.Message(cli, srv, Encode(&Msg{XID: 5, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcRead, DataLen: 8192}))
	a.Message(srv, cli, Encode(&Msg{XID: 5, Type: MsgReply, Proc: ProcRead, Status: NFSOK, DataLen: 8192}))
	if a.Requests.Get("Read") != 1 {
		t.Errorf("read requests = %d", a.Requests.Get("Read"))
	}
	if a.Bytes.Get("Read") != 8192 {
		t.Errorf("read bytes = %d", a.Bytes.Get("Read"))
	}
	if a.OK != 1 || a.Failed != 0 {
		t.Errorf("ok=%d failed=%d", a.OK, a.Failed)
	}
	if a.PerPair[layers.NewHostPair(cli, srv)] != 1 {
		t.Error("per-pair count")
	}
	if a.ReqSizes.N() != 1 || a.ReplySizes.N() != 1 {
		t.Error("size dists")
	}
}

func TestAnalyzerWriteBytesOnCall(t *testing.T) {
	a := NewAnalyzer()
	a.Message(cli, srv, Encode(&Msg{XID: 9, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcWrite, DataLen: 4096}))
	if a.Bytes.Get("Write") != 4096 {
		t.Errorf("write bytes = %d", a.Bytes.Get("Write"))
	}
}

func TestAnalyzerFailureRate(t *testing.T) {
	a := NewAnalyzer()
	for i := 0; i < 10; i++ {
		xid := uint32(i)
		a.Message(cli, srv, Encode(&Msg{XID: xid, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcLookup}))
		status := NFSOK
		if i < 2 {
			status = NFSErrNoEnt
		}
		a.Message(srv, cli, Encode(&Msg{XID: xid, Type: MsgReply, Proc: ProcLookup, Status: status}))
	}
	if got := a.SuccessRate(); got != 0.8 {
		t.Errorf("success rate = %v, want 0.8", got)
	}
}

func TestAnalyzerNonNFSIgnored(t *testing.T) {
	a := NewAnalyzer()
	a.Message(cli, srv, Encode(&Msg{XID: 1, Type: MsgCall, Prog: 100000, Vers: 2, Proc: 4})) // portmapper
	if a.Requests.Total() != 0 {
		t.Error("non-NFS program counted")
	}
}

func TestAnalyzerOrphanReplyIgnored(t *testing.T) {
	a := NewAnalyzer()
	a.Message(srv, cli, Encode(&Msg{XID: 404, Type: MsgReply, Proc: ProcRead, Status: NFSOK, DataLen: 100}))
	if a.OK != 0 || a.ReplySizes.N() != 0 {
		t.Error("orphan reply processed")
	}
}

// Property: encode/decode round-trips calls for every procedure and data
// size; dual-mode sizing holds (write calls ≈ 100 + data, others small).
func TestCallRoundTripProperty(t *testing.T) {
	f := func(xid uint32, procSel, size uint16) bool {
		procs := []uint32{ProcGetAttr, ProcLookup, ProcAccess, ProcRead, ProcWrite}
		proc := procs[int(procSel)%len(procs)]
		dataLen := 0
		if proc == ProcWrite || proc == ProcRead {
			dataLen = int(size % 9000)
		}
		m := &Msg{XID: xid, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: proc, DataLen: dataLen}
		raw := Encode(m)
		got, err := Decode(raw, 0)
		if err != nil || got.XID != xid || got.Proc != proc {
			return false
		}
		if proc == ProcWrite && got.DataLen != dataLen {
			return false
		}
		if proc != ProcWrite && len(raw) > 200 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeFuzz(t *testing.T) {
	f := func(data []byte, proc uint32) bool {
		_, _ = Decode(data, proc)
		SplitRecords(data)
		a := NewAnalyzer()
		a.Message(cli, srv, data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeWrite(b *testing.B) {
	m := &Msg{XID: 1, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: ProcWrite, DataLen: 8192}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode(m)
	}
}
