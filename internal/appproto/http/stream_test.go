package http

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refParseRequests is the buffer-then-scan parser StreamParser replaced,
// kept verbatim as the reference the incremental parser must agree with
// on every input.
func refParseRequests(stream []byte) []Request {
	var out []Request
	for len(stream) > 0 {
		head, rest, ok := refSplitHead(stream)
		if !ok {
			break
		}
		first, hdrs := cutLine(head)
		method, after, ok1 := cutByte(first, ' ')
		uri, version, ok2 := cutByte(after, ' ')
		if !ok1 || !ok2 || !bytes.HasPrefix(version, []byte("HTTP/")) {
			break
		}
		r := Request{Method: internMethod(method), URI: string(uri)}
		cl := 0
		for len(hdrs) > 0 {
			var ln []byte
			ln, hdrs = cutLine(hdrs)
			name, val, found := cutByte(ln, ':')
			if !found {
				continue
			}
			val = trimSpace(val)
			switch {
			case nameIs(name, "host"):
				r.Host = string(val)
			case nameIs(name, "user-agent"):
				r.UserAgent = string(val)
			case nameIs(name, "if-modified-since"), nameIs(name, "if-none-match"):
				r.Conditional = true
			case nameIs(name, "content-length"):
				cl = parseInt(val)
			}
		}
		if cl > len(rest) {
			cl = len(rest) // truncated capture
		}
		r.BodyLen = cl
		out = append(out, r)
		stream = rest[cl:]
	}
	return out
}

// refParseResponses is the response half of the reference parser.
func refParseResponses(stream []byte) []Response {
	var out []Response
	for len(stream) > 0 {
		head, rest, ok := refSplitHead(stream)
		if !ok {
			break
		}
		first, hdrs := cutLine(head)
		version, after, ok1 := cutByte(first, ' ')
		if !ok1 || !bytes.HasPrefix(version, []byte("HTTP/")) {
			break
		}
		codeStr := after
		if i := bytes.IndexByte(after, ' '); i >= 0 {
			codeStr = after[:i]
		}
		status := parseInt(codeStr)
		if status <= 0 {
			break
		}
		r := Response{Status: status}
		cl := 0
		for len(hdrs) > 0 {
			var ln []byte
			ln, hdrs = cutLine(hdrs)
			name, val, found := cutByte(ln, ':')
			if !found {
				continue
			}
			val = trimSpace(val)
			switch {
			case nameIs(name, "content-type"):
				if semi := bytes.IndexByte(val, ';'); semi >= 0 {
					val = val[:semi]
				}
				r.ContentType = string(val)
			case nameIs(name, "content-length"):
				cl = parseInt(val)
			}
		}
		if cl > len(rest) {
			cl = len(rest)
		}
		r.BodyLen = cl
		out = append(out, r)
		stream = rest[cl:]
	}
	return out
}

func refSplitHead(stream []byte) (head, rest []byte, ok bool) {
	idx := bytes.Index(stream, []byte("\r\n\r\n"))
	if idx < 0 {
		return nil, nil, false
	}
	return stream[:idx], stream[idx+4:], true
}

// feedChunked drives both parsers over stream cut at the given ascending
// offsets, calling Gap between chunks where gaps says so. Every chunk is
// handed over in a buffer that is overwritten as soon as Data returns, so
// a result (or a carried head) that still pointed into a borrowed chunk
// would come out poisoned.
func feedChunked(stream []byte, limit int, cuts []int, gaps []bool) ([]Request, []Response) {
	var rq, rs StreamParser
	rq.InitRequests(limit)
	rs.InitResponses(limit)
	lent := make([]byte, len(stream))
	feed := func(p *StreamParser, chunk []byte) {
		b := lent[:len(chunk)]
		copy(b, chunk)
		p.Data(b)
		for i := range b {
			b[i] = 0xFF
		}
	}
	prev := 0
	for i, c := range append(cuts, len(stream)) {
		feed(&rq, stream[prev:c])
		feed(&rs, stream[prev:c])
		if i < len(gaps) && gaps[i] {
			rq.Gap(1 + i)
			rs.Gap(1 + i)
		}
		prev = c
	}
	return rq.Requests(), rs.Responses()
}

// checkAgainstReference asserts chunked feed == one-chunk feed == the
// reference parser over the limit-truncated stream, for both directions.
func checkAgainstReference(t testing.TB, stream []byte, limit int, cuts []int, gaps []bool) {
	t.Helper()
	truncated := stream
	if limit > 0 && len(truncated) > limit {
		truncated = truncated[:limit]
	}
	wantReqs, wantResps := refParseRequests(truncated), refParseResponses(truncated)
	oneReqs, oneResps := feedChunked(stream, limit, nil, nil)
	gotReqs, gotResps := feedChunked(stream, limit, cuts, gaps)
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"one-chunk requests", oneReqs, wantReqs},
		{"one-chunk responses", oneResps, wantResps},
		{"chunked requests", gotReqs, wantReqs},
		{"chunked responses", gotResps, wantResps},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s differ from the reference\nstream %q\nlimit %d cuts %v gaps %v\n got %+v\nwant %+v",
				c.what, stream, limit, cuts, gaps, c.got, c.want)
		}
	}
}

// hostileSeeds are the streams the issue names: shapes a buffer-then-scan
// parser shrugs off and an incremental one has to get exactly right.
func hostileSeeds() [][]byte {
	pipelined := bytes.Join([][]byte{
		EncodeRequest(&Request{Method: "POST", URI: "/a", Host: "h", UserAgent: "ua", BodyLen: 7}),
		EncodeRequest(&Request{Method: "GET", URI: "/b", Host: "h", Conditional: true}),
		EncodeResponse(&Response{Status: 200, ContentType: "text/html; charset=x", BodyLen: 9}),
		EncodeResponse(&Response{Status: 304}),
		EncodeRequest(&Request{Method: "BREW", URI: "/pot", Host: "h"}),
	}, nil)
	return [][]byte{
		pipelined,
		// No CRLFCRLF, ever.
		bytes.Repeat([]byte("GET /never-ends HTTP/1.1\r\nX-Pad: aaaaaaaa\r\n"), 40),
		[]byte("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"),
		// Content-Length overflow, negative, larger than the capture.
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999999\r\n\r\nbodyHTTP/1.1 404 NF\r\n\r\n"),
		[]byte("POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\nGET /y HTTP/1.0\r\n\r\n"),
		[]byte("HTTP/1.1 206 Partial\r\nContent-Length: 4096\r\n\r\nonly this much"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\nxx"),
		// Content-Length: 0 followed by body bytes: they are the next head.
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\nstray body\r\n\r\nHTTP/1.1 200 OK\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /2 HTTP/1.1\r\n\r\n"),
		// Two Content-Lengths: the last one wins.
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 1\r\n\r\nabHTTP/1.1 500 E\r\n\r\n"),
		// TLS on port 80, both directions.
		[]byte("\x16\x03\x01\x00\xa5\x01\x00\x00\xa1\x03\x03 client hello \r\n more \r\n\r\n"),
		[]byte("\x16\x03\x03\x00\x5a\x02\x00\x00\x56\x03\x03 server hello"),
		// Almost a status line; CR and LF in odd places.
		[]byte("HTTP\r\n\r\n"),
		[]byte("HTT"),
		[]byte("HTTP/1.1  200\r\n\r\n"),
		// A reason-less status line: its CRLF bounds the code.
		[]byte("HTTP/1.1 200\r\nA: b\r\nC: d\r\n\r\nHTTP/1.1 204\r\n\r\n"),
		[]byte("HTTP/1.1 2x0 OK\r\n\r\n"),
		[]byte("\r\n\r\n\r\nGET / HTTP/1.1\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\r\n\r\n\r\nHTTP/1.1 200 OK\r\n\r\r\n\r\n"),
		[]byte("GET  HTTP/1.1\r\nHost:\th \r\n\r\n"),
		// Request lines settled, one way or the other, at the second space.
		[]byte("A B C\r\n\r\nGET / HTTP/1.1\r\n\r\n"),
		[]byte("GET /x HTTP/1.1 trailing words\r\n\r\nGET /y HTTP\r\n\r\n"),
		append(append([]byte("GET /"), bytes.Repeat([]byte("long"), 80)...), " HTTP/1.0\r\n\r\nPUT /z HTTQ/1.0\r\n\r\n"...),
	}
}

// TestStreamParserEverySplit cuts every hostile seed in two at every
// offset, and in three around every offset, with and without a gap; the
// short seeds are also cut in four at every triple of offsets, which is
// what it takes to split one CRLF and deliver a later one whole.
func TestStreamParserEverySplit(t *testing.T) {
	for _, stream := range hostileSeeds() {
		n := len(stream)
		for at := 0; at <= n; at++ {
			checkAgainstReference(t, stream, 0, []int{at}, nil)
			checkAgainstReference(t, stream, 0, []int{at, min(at+1, n)}, []bool{true, false})
			checkAgainstReference(t, stream, at, []int{at / 2}, []bool{true})
		}
		if n > 48 {
			continue
		}
		for a := 0; a <= n; a++ {
			for b := a; b <= n; b++ {
				for c := b; c <= n; c++ {
					checkAgainstReference(t, stream, 0, []int{a, b, c}, nil)
				}
			}
		}
	}
}

// randomStream assembles a stream from well-formed messages, damaged
// ones and noise, so heads, bodies and garbage meet at arbitrary offsets.
func randomStream(r *rand.Rand) []byte {
	lengths := []string{"0", "1", "17", "300", "70000", "-1", "", "1e3", "99999999999999999999"}
	var s []byte
	for n := r.Intn(8); n >= 0; n-- {
		switch r.Intn(9) {
		case 0, 1:
			s = append(s, EncodeRequest(&Request{Method: []string{"GET", "POST", "PROPFIND"}[r.Intn(3)],
				URI: "/u", Host: "h", UserAgent: "agent", Conditional: r.Intn(2) == 0, BodyLen: r.Intn(3) * r.Intn(400)})...)
		case 2, 3:
			s = append(s, EncodeResponse(&Response{Status: 100 + r.Intn(500), ContentType: "image/gif", BodyLen: r.Intn(3) * r.Intn(3000)})...)
		case 4:
			s = append(s, fmt.Sprintf("HTTP/1.0 200 OK\r\ncontent-LENGTH: %s \r\n\r\n", lengths[r.Intn(len(lengths))])...)
		case 5:
			s = append(s, fmt.Sprintf("PUT /p HTTP/1.1\r\nContent-Length:%s\r\nIf-None-Match: x\r\n\r\n", lengths[r.Intn(len(lengths))])...)
		case 6:
			noise := make([]byte, r.Intn(40))
			r.Read(noise)
			s = append(s, noise...)
		case 7:
			s = append(s, []string{"\r\n", "\r\n\r\n", "\r", "\n", " ", "HTTP/", "GET "}[r.Intn(7)]...)
		case 8:
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
// limit, the chunked feed, the one-chunk feed and the reference parser
// agree.
func TestStreamParserMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
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

// A parser that died on a non-HTTP stream, or finished a head, holds no
// stream bytes however much follows.
func TestStreamParserHoldsNothing(t *testing.T) {
	var p StreamParser
	p.InitResponses(0)
	p.Data([]byte("\x16\x03\x03 not http"))
	p.Data(make([]byte, 1<<16))
	if !p.dead || p.head != nil {
		t.Errorf("TLS bytes did not kill the response parser: dead=%v, %d bytes carried", p.dead, len(p.head))
	}
	p.InitRequests(0)
	p.Data([]byte("\x16\x03\x01 binaryjunkwithoutthetwospaces\r\nmore"))
	if !p.dead || p.head != nil {
		t.Errorf("a malformed request line did not kill the parser at its CRLF: dead=%v", p.dead)
	}
	// Binary filler that never holds a CRLF (the evasion generator's):
	// its second space settles it, long before the stream ends.
	p.InitRequests(0)
	junk := make([]byte, 256<<10)
	for i := range junk {
		junk[i] = byte(i * 37)
	}
	peak := 0
	for at := 0; at < len(junk); at += 1460 {
		p.Data(junk[at:min(at+1460, len(junk))])
		peak = max(peak, cap(p.head))
	}
	if !p.dead || peak > 8<<10 {
		t.Errorf("CRLF-less binary on the request side: dead=%v after carrying up to %d bytes", p.dead, peak)
	}
	p.InitResponses(0)
	p.Data([]byte("HTTP/1.1 200 OK\r\nContent-Le"))
	p.Data([]byte("ngth: 100000\r\n\r\n"))
	p.Data(make([]byte, 50000))
	if len(p.head) != 0 || cap(p.head) > 256 {
		t.Errorf("scratch holds %d bytes (cap %d) while in a body", len(p.head), cap(p.head))
	}
	if got := p.Responses(); len(got) != 1 || got[0].BodyLen != 50000 {
		t.Errorf("split head + partial body parsed as %+v", got)
	}
}

// BenchmarkStreamParser feeds MSS-sized chunks, as reassembly does.
// "transactions" is a keep-alive response stream (heads parsed in place,
// bodies skipped); "body" never leaves one body and must not allocate.
func BenchmarkStreamParser(b *testing.B) {
	const mss = 1460
	b.Run("transactions", func(b *testing.B) {
		var stream []byte
		for i := 0; i < 64; i++ {
			stream = append(stream, EncodeResponse(&Response{Status: 200, ContentType: "text/html", BodyLen: 300 * (i%40 + 1)})...)
		}
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var p StreamParser
			p.InitResponses(4 << 20)
			for at := 0; at < len(stream); at += mss {
				p.Data(stream[at:min(at+mss, len(stream))])
			}
			if len(p.Responses()) != 64 {
				b.Fatal("parse failure")
			}
		}
	})
	b.Run("body", func(b *testing.B) {
		chunk := make([]byte, mss)
		var p StreamParser
		p.InitResponses(0)
		p.Data([]byte("HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\n"))
		if allocs := testing.AllocsPerRun(100, func() { p.Data(chunk) }); allocs != 0 {
			b.Fatalf("%v allocs per chunk while in a body, want 0", allocs)
		}
		b.SetBytes(mss)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Data(chunk)
		}
		if got := p.Responses(); len(got) != 1 || got[0].BodyLen < b.N*mss {
			b.Fatal("body bytes miscounted")
		}
	})
}
