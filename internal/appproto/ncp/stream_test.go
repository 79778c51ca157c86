package ncp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// refStream is the buffer-then-walk loop StreamParser replaced, kept as
// the reference the incremental parser must agree with on every input:
// one Decode per message over the whole buffered stream.
func refStream(data []byte) []Record {
	var out []Record
	for len(data) > 0 {
		if len(data) < hdrLen {
			break
		}
		typ := binary.BigEndian.Uint16(data[0:2])
		if typ != TypeRequest && typ != TypeReply {
			break
		}
		claimed := binary.BigEndian.Uint32(data[5:9])
		out = append(out, Record{
			Request:    typ == TypeRequest,
			Sequence:   data[2],
			Function:   data[3],
			Completion: data[4],
			PayloadLen: claimed,
		})
		data = data[min(hdrLen+int(claimed), len(data)):]
	}
	return out
}

// feedChunked drives a parser over stream cut at the given ascending
// offsets, calling Gap between chunks where gaps says so. Every chunk is
// lent in a buffer that is overwritten as soon as Data returns, so a
// carried header that still pointed into a borrowed chunk would come out
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
// reference walk over the limit-truncated stream.
func checkAgainstReference(t testing.TB, stream []byte, limit int, cuts []int, gaps []bool) {
	t.Helper()
	truncated := stream
	if limit > 0 && len(truncated) > limit {
		truncated = truncated[:limit]
	}
	want := refStream(truncated)
	for what, got := range map[string][]Record{
		"one-chunk": feedChunked(stream, limit, nil, nil),
		"chunked":   feedChunked(stream, limit, cuts, gaps),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s records differ from the reference\nstream %x\nlimit %d cuts %v gaps %v\n got %+v\nwant %+v",
				what, stream, limit, cuts, gaps, got, want)
		}
	}
}

// hostileSeeds are shapes a buffer-then-walk loop shrugs off and an
// incremental one has to get exactly right.
func hostileSeeds() [][]byte {
	read := RequestFor(7, FnReadFile, 0)
	session := bytes.Join([][]byte{
		Encode(read), Encode(ReplyFor(read, 260)),
		Encode(RequestFor(8, FnWriteFile, 700)), Encode(&Msg{Sequence: 8, Function: FnWriteFile, Completion: 0x89}),
		Encode(RequestFor(9, FnGetFileSize, 0)),
	}, nil)
	claim := func(n uint32) []byte {
		m := Encode(RequestFor(1, FnWriteFile, 12))
		binary.BigEndian.PutUint32(m[5:9], n)
		return m
	}
	return [][]byte{
		session,
		// Bad signature mid-stream: what precedes it counts, nothing after.
		append(append(Encode(read), 0x44, 0x44, 1, 2, 3, 4, 5, 6, 7, 8, 9), Encode(read)...),
		// Claimed lengths: zero, past the capture, the 32-bit maximum.
		append(claim(0), Encode(read)...),
		append(claim(5000), Encode(read)...),
		append(claim(0xFFFFFFFF), Encode(read)...),
		// A stream that ends inside a header.
		session[:len(session)-3],
		{0x22},
		{0x22, 0x22, 0, 72, 0, 0, 0, 0},
		nil,
	}
}

// TestStreamParserEverySplit cuts every hostile seed in two at every
// offset and in three around every offset, with and without a gap, and
// lands the limit on every byte — inside a header included.
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

// randomStream assembles a stream from well-formed messages, damaged ones
// and noise.
func randomStream(r *rand.Rand) []byte {
	var s []byte
	for n := r.Intn(10); n >= 0; n-- {
		switch r.Intn(6) {
		case 0, 1:
			s = append(s, Encode(RequestFor(uint8(r.Intn(256)), []uint8{FnReadFile, FnWriteFile, FnSearchFile, FnOther}[r.Intn(4)], r.Intn(3000)))...)
		case 2, 3:
			s = append(s, Encode(ReplyFor(&Msg{Sequence: uint8(r.Intn(256)), Function: FnReadFile}, r.Intn(2)*r.Intn(3000)))...)
		case 4:
			noise := make([]byte, r.Intn(12))
			r.Read(noise)
			s = append(s, noise...)
		case 5:
			if len(s) > 0 {
				s = s[:r.Intn(len(s))] // cut what is there mid-message
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
	for i := 0; i < 20000; i++ {
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
	})
}

// The analyzer folds a parsed direction exactly as it folds the same
// bytes handed over whole.
func TestRecordsFoldLikeStream(t *testing.T) {
	stream := hostileSeeds()[0]
	whole, parsed := NewAnalyzer(), NewAnalyzer()
	whole.Stream(cli, srv, stream)
	parsed.Records(cli, srv, feedChunked(stream, 0, []int{5, 6, 300}, nil))
	if !reflect.DeepEqual(whole, parsed) {
		t.Errorf("fold of parsed records differs:\n got %+v\nwant %+v", parsed, whole)
	}
}

// BenchmarkStreamParser feeds MSS-sized chunks, as reassembly does.
// "messages" is a read-reply stream (headers parsed, payloads skipped);
// "body" never leaves one payload and must not allocate.
func BenchmarkStreamParser(b *testing.B) {
	const mss = 1460
	b.Run("messages", func(b *testing.B) {
		var stream []byte
		req := RequestFor(1, FnReadFile, 0)
		for i := 0; i < 256; i++ {
			stream = append(stream, Encode(ReplyFor(req, 260))...)
		}
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p StreamParser
			p.Init(2 << 20)
			for at := 0; at < len(stream); at += mss {
				p.Data(stream[at:min(at+mss, len(stream))])
			}
			if len(p.Records()) != 256 {
				b.Fatal("parse failure")
			}
		}
	})
	b.Run("body", func(b *testing.B) {
		p := inBody()
		chunk := make([]byte, mss)
		b.SetBytes(mss)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p.body < mss {
				p = inBody()
			}
			p.Data(chunk)
		}
		if len(p.Records()) != 1 {
			b.Fatal("left the body")
		}
	})
}

// inBody returns a parser at the start of the largest payload a header
// can claim.
func inBody() *StreamParser {
	var p StreamParser
	p.Init(0)
	hdr := Encode(&Msg{Request: true, Function: FnWriteFile})
	binary.BigEndian.PutUint32(hdr[5:9], 0xFFFFFFFF)
	p.Data(hdr)
	return &p
}
