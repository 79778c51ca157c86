package sunrpc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"enttrace/internal/layers"
)

// refDecode, refSplitRecords and refMessage are the buffer-then-walk
// decoder, record splitter and analyzer entry point StreamParser and its
// message scanner replaced, kept verbatim as the reference the
// incremental parser must agree with on every input.
func refDecode(data []byte, replyProc uint32) (*Msg, error) {
	if len(data) < 8 {
		return nil, ErrShort
	}
	get32 := func(off int) uint32 { return binary.BigEndian.Uint32(data[off : off+4]) }
	m := &Msg{XID: get32(0), Type: get32(4)}
	if m.Type == MsgCall {
		if len(data) < 24 {
			return nil, ErrShort
		}
		m.Prog, m.Vers, m.Proc = get32(12), get32(16), get32(20)
		off := 24
		for i := 0; i < 2; i++ {
			if len(data) < off+8 {
				return m, nil
			}
			l := int(get32(off + 4))
			off += 8 + l + pad4(l)
		}
		off += fhSize
		switch m.Proc {
		case ProcWrite, ProcRead:
			if len(data) >= off+12 {
				m.DataLen = int(get32(off + 8))
			}
		}
		return m, nil
	}
	if len(data) < 28 {
		return nil, ErrShort
	}
	m.Proc = replyProc
	m.Status = get32(24)
	if m.Status == NFSOK && replyProc == ProcRead && len(data) >= 32 {
		m.DataLen = int(get32(28))
	}
	return m, nil
}

func refSplitRecords(stream []byte, fn func(rec []byte)) {
	for len(stream) >= 4 {
		hdr := binary.BigEndian.Uint32(stream)
		l := int(hdr & 0x7fffffff)
		if l <= 0 || 4+l > len(stream) {
			return
		}
		fn(stream[4 : 4+l])
		stream = stream[4+l:]
	}
}

func refMessage(a *Analyzer, src, dst netip.Addr, raw []byte) {
	m, err := refDecode(raw, 0)
	if err != nil {
		return
	}
	if m.Type == MsgCall {
		if m.Prog != ProgNFS {
			return
		}
		a.pendingProc[pendKey{client: src, server: dst, xid: m.XID}] = m.Proc
		name := ProcName(m.Proc)
		a.Requests.Inc(name)
		if m.Proc == ProcWrite {
			a.Bytes.Add(name, int64(m.DataLen))
		}
		a.ReqSizes.Observe(float64(len(raw)))
		a.PerPair[layers.NewHostPair(src, dst)]++
		return
	}
	key := pendKey{client: dst, server: src, xid: m.XID}
	proc, ok := a.pendingProc[key]
	if !ok {
		return
	}
	delete(a.pendingProc, key)
	m, err = refDecode(raw, proc)
	if err != nil {
		return
	}
	if m.Status == NFSOK {
		a.OK++
		if proc == ProcRead {
			a.Bytes.Add(ProcName(proc), int64(m.DataLen))
		}
	} else {
		a.Failed++
	}
	a.ReplySizes.Observe(float64(len(raw)))
}

// refRecords is the reference walk's output in the parser's terms: one
// Record per complete record the reference decoder accepts.
func refRecords(stream []byte) []Record {
	var out []Record
	refSplitRecords(stream, func(raw []byte) {
		m, err := refDecode(raw, ProcRead)
		if err != nil {
			return
		}
		// A reply's procedure is the caller's, not the wire's: asking as
		// for a READ is what surfaces the count word.
		rec := Record{Len: uint32(len(raw)), XID: m.XID, Type: m.Type, Status: m.Status, Count: uint32(m.DataLen)}
		if m.Type == MsgCall {
			rec.Prog, rec.Vers, rec.Proc = m.Prog, m.Vers, m.Proc
		}
		out = append(out, rec)
	})
	return out
}

// feedChunked drives a parser over stream cut at the given ascending
// offsets, calling Gap between chunks where gaps says so. Every chunk is
// lent in a buffer that is overwritten as soon as Data returns, so a
// carried field that still pointed into a borrowed chunk would come out
// poisoned.
func feedChunked(stream []byte, limit int, cuts []int, gaps []bool) []Record {
	var p StreamParser
	p.Init(limit)
	lent := make([]byte, len(stream))
	prev := 0
	for i, c := range append(cuts, len(stream)) {
		b := lent[:c-prev]
		copy(b, stream[prev:c])
		p.Data(b)
		for j := range b {
			b[j] = 0xEE
		}
		if i < len(gaps) && gaps[i] {
			p.Gap(1 + i)
		}
		prev = c
	}
	return p.Records()
}

// checkAgainstReference asserts chunked feed == one-chunk feed == the
// reference walk over the limit-truncated stream, record for record and
// as the analyzer folds them (fed client→server, then again as the
// server's direction so the replies in it find their calls).
func checkAgainstReference(t testing.TB, stream []byte, limit int, cuts []int, gaps []bool) {
	t.Helper()
	truncated := stream
	if limit > 0 && len(truncated) > limit {
		truncated = truncated[:limit]
	}
	want := refRecords(truncated)
	wantFold := NewAnalyzer()
	refSplitRecords(truncated, func(raw []byte) { refMessage(wantFold, cli, srv, raw) })
	refSplitRecords(truncated, func(raw []byte) { refMessage(wantFold, srv, cli, raw) })
	for what, got := range map[string][]Record{
		"one-chunk": feedChunked(stream, limit, nil, nil),
		"chunked":   feedChunked(stream, limit, cuts, gaps),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s records differ from the reference\nstream %x\nlimit %d cuts %v gaps %v\n got %+v\nwant %+v",
				what, stream, limit, cuts, gaps, got, want)
		}
		fold := NewAnalyzer()
		fold.Records(cli, srv, got)
		fold.Records(srv, cli, got)
		if !reflect.DeepEqual(fold, wantFold) {
			t.Fatalf("%s records fold differently from the reference\nstream %x\n got %+v\nwant %+v", what, stream, fold, wantFold)
		}
	}
	// A datagram is one message handed over whole.
	msg, wantMsg := NewAnalyzer(), NewAnalyzer()
	msg.Message(cli, srv, stream)
	refMessage(wantMsg, cli, srv, stream)
	if !reflect.DeepEqual(msg, wantMsg) {
		t.Fatalf("Message(%x) folds differently from the reference", stream)
	}
}

// call and reply build record-marked messages; cred sizes the call's
// credential body.
func call(xid, proc uint32, dataLen int) []byte {
	return MarkRecord(Encode(&Msg{XID: xid, Type: MsgCall, Prog: ProgNFS, Vers: 3, Proc: proc, DataLen: dataLen}))
}

func reply(xid, proc, status uint32, dataLen int) []byte {
	return MarkRecord(Encode(&Msg{XID: xid, Type: MsgReply, Proc: proc, Status: status, DataLen: dataLen}))
}

// hostileSeeds are shapes a buffer-then-walk loop shrugs off and an
// incremental one has to get exactly right.
func hostileSeeds() [][]byte {
	session := bytes.Join([][]byte{
		call(1, ProcGetAttr, 0), reply(1, ProcGetAttr, NFSOK, 0),
		call(2, ProcWrite, 900), reply(2, ProcWrite, NFSOK, 900),
		call(3, ProcRead, 4096), reply(3, ProcRead, NFSOK, 700),
		call(4, ProcLookup, 0), reply(4, ProcLookup, NFSErrNoEnt, 0),
	}, nil)
	mark := func(n uint32, body []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), body...)
	}
	// A WRITE call whose credential length lies: zero, odd, past the
	// record, the 32-bit maximum.
	credLen := func(l uint32) []byte {
		m := call(9, ProcWrite, 64)
		binary.BigEndian.PutUint32(m[4+28:], l)
		return m
	}
	return [][]byte{
		session,
		// Zero-length record mid-stream: what precedes it counts.
		append(append(call(1, ProcRead, 10), 0x80, 0, 0, 0), call(2, ProcRead, 10)...),
		// Records too short to decode are passed over, not fatal.
		bytes.Join([][]byte{mark(3, []byte("abc")), mark(0x80000000|10, make([]byte, 10)), mark(27, make([]byte, 27)), call(5, ProcAccess, 0)}, nil),
		// Claimed lengths: past the capture, the 31-bit maximum.
		append(mark(5000, make([]byte, 40)), call(6, ProcRead, 1)...),
		append(mark(0x7fffffff, make([]byte, 40)), call(6, ProcRead, 1)...),
		credLen(0), credLen(3), credLen(4000), credLen(0xFFFFFFFF),
		// A record that ends inside each call field.
		mark(30, Encode(&Msg{XID: 7, Type: MsgCall, Prog: ProgNFS, Proc: ProcWrite, DataLen: 5})[:30]),
		mark(60, Encode(&Msg{XID: 7, Type: MsgCall, Prog: ProgNFS, Proc: ProcWrite, DataLen: 5})[:60]),
		mark(30, Encode(&Msg{XID: 8, Type: MsgReply, Proc: ProcRead, DataLen: 5})[:30]),
		// Not a call: any other type word reads as a reply.
		mark(40, append([]byte{0, 0, 0, 3, 0, 0, 0, 9}, make([]byte, 32)...)),
		session[:len(session)-3],
		{0x80, 0},
		nil,
	}
}

// TestStreamParserEverySplit cuts every hostile seed in two at every
// offset and in three around every offset, with and without a gap, and
// lands the limit on every byte — inside a record mark included.
func TestStreamParserEverySplit(t *testing.T) {
	for _, stream := range hostileSeeds() {
		n := len(stream)
		for at := 0; at <= n; at++ {
			checkAgainstReference(t, stream, 0, []int{at}, nil)
			checkAgainstReference(t, stream, 0, []int{at, min(at+1, n)}, []bool{true, false})
			checkAgainstReference(t, stream, at, []int{at / 2}, []bool{true})
		}
	}
}

// randomStream assembles a stream from well-formed records, damaged ones
// and noise.
func randomStream(r *rand.Rand) []byte {
	procs := []uint32{ProcNull, ProcGetAttr, ProcLookup, ProcRead, ProcWrite, ProcReadDir}
	var s []byte
	for n := r.Intn(10); n >= 0; n-- {
		xid, proc := uint32(r.Intn(6)), procs[r.Intn(len(procs))]
		switch r.Intn(7) {
		case 0, 1:
			s = append(s, call(xid, proc, r.Intn(2000))...)
		case 2, 3:
			s = append(s, reply(xid, proc, uint32(r.Intn(2)*r.Intn(6)), r.Intn(2000))...)
		case 4:
			m := call(xid, proc, r.Intn(100))
			binary.BigEndian.PutUint32(m[4+r.Intn(len(m)-8):], uint32(r.Intn(300))) // one lying word
			s = append(s, m...)
		case 5:
			noise := make([]byte, r.Intn(12))
			r.Read(noise)
			s = append(s, noise...)
		case 6:
			if len(s) > 0 {
				s = s[:r.Intn(len(s))] // cut what is there mid-record
			}
		}
	}
	return s
}

// randomSchedule draws ascending cut offsets and per-cut gap flags.
func randomSchedule(r *rand.Rand, n int) (cuts []int, gaps []bool) {
	for at := 0; at < n; {
		at += 1 + r.Intn(1+r.Intn(64))
		if at < n {
			cuts = append(cuts, at)
			gaps = append(gaps, r.Intn(4) == 0)
		}
	}
	return cuts, gaps
}

// Property: for arbitrary bytes, chunk boundaries, interleaved gaps and a
// limit, the chunked feed, the one-chunk feed and the reference agree.
func TestStreamParserMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 10000; i++ {
		stream := randomStream(r)
		limit := 0
		if r.Intn(2) == 0 {
			limit = 1 + r.Intn(len(stream)+8)
		}
		cuts, gaps := randomSchedule(r, len(stream))
		checkAgainstReference(t, stream, limit, cuts, gaps)
	}
}

func FuzzStreamParser(f *testing.F) {
	for i, seed := range hostileSeeds() {
		f.Add(seed, int64(i), uint16(0))
		f.Add(seed, int64(i), uint16(len(seed)/2))
	}
	f.Fuzz(func(t *testing.T, stream []byte, schedule int64, limit uint16) {
		cuts, gaps := randomSchedule(rand.New(rand.NewSource(schedule)), len(stream))
		checkAgainstReference(t, stream, int(limit), cuts, gaps)
		// Decode is the same scanner handed one whole message.
		for _, proc := range []uint32{0, ProcRead} {
			got, gotErr := Decode(stream, proc)
			want, wantErr := refDecode(stream, proc)
			if gotErr != wantErr || !reflect.DeepEqual(got, want) {
				t.Fatalf("Decode(%x, %d) = %+v, %v; reference %+v, %v", stream, proc, got, gotErr, want, wantErr)
			}
		}
	})
}

// BenchmarkStreamParser feeds MSS-sized chunks, as reassembly does.
// "records" is a READ-reply stream (fields read, data skipped); "body"
// never leaves one record and must not allocate.
func BenchmarkStreamParser(b *testing.B) {
	const mss = 1460
	b.Run("records", func(b *testing.B) {
		var stream []byte
		for i := 0; i < 64; i++ {
			stream = append(stream, reply(uint32(i), ProcRead, NFSOK, 8192)...)
		}
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p StreamParser
			p.Init(2 << 20)
			for at := 0; at < len(stream); at += mss {
				p.Data(stream[at:min(at+mss, len(stream))])
			}
			if len(p.Records()) != 64 {
				b.Fatal("parse failure")
			}
		}
	})
	b.Run("body", func(b *testing.B) {
		var p StreamParser
		chunk := make([]byte, mss)
		b.SetBytes(mss)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p.left < mss {
				p.Init(0)
				p.Data([]byte{0x7f, 0xff, 0xff, 0xff})
			}
			p.Data(chunk)
		}
		if len(p.Records()) != 0 {
			b.Fatal("left the record")
		}
	})
}
