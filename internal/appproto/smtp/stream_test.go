package smtp

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refParse is the buffer-then-scan parser StreamParser replaced, kept
// verbatim as the reference the incremental parser must agree with on
// every input.
func refParse(clientStream, serverStream []byte) Result {
	var r Result
	cs := clientStream
	if idx := bytes.Index(cs, []byte("DATA\r\n")); idx >= 0 {
		body := cs[idx+6:]
		if end := bytes.Index(body, []byte("\r\n.\r\n")); end >= 0 {
			r.MessageBytes = end
		} else {
			r.MessageBytes = len(body) // truncated capture
		}
	}
	sawData := false
	for _, ln := range strings.Split(string(serverStream), "\r\n") {
		if len(ln) < 3 {
			continue
		}
		code, err := strconv.Atoi(ln[:3])
		if err != nil {
			continue
		}
		switch {
		case code == 354:
			sawData = true
		case code == 250 && sawData:
			r.Accepted = true
		case code >= 500:
			r.Rejected = true
		}
	}
	return r
}

// feedChunked drives a client and a server parser over the same stream
// cut at the given ascending offsets, calling Gap between chunks where
// gaps says so. Every chunk is lent in a buffer that is overwritten as
// soon as Data returns, so a carried tail that still pointed into a
// borrowed chunk would come out poisoned. The outcome is read after
// every chunk: reading it must not disturb the parse.
func feedChunked(stream []byte, limit int, cuts []int, gaps []bool) Result {
	var cli, srv StreamParser
	cli.InitClient(limit)
	srv.InitServer(limit)
	lent := make([]byte, len(stream))
	prev := 0
	for i, c := range append(cuts, len(stream)) {
		for _, p := range []*StreamParser{&cli, &srv} {
			b := lent[:c-prev]
			copy(b, stream[prev:c])
			p.Data(b)
			for j := range b {
				b[j] = 0xEE
			}
			if i < len(gaps) && gaps[i] {
				p.Gap(1 + i)
			}
		}
		ResultOf(&cli, &srv)
		prev = c
	}
	return ResultOf(&cli, &srv)
}

// checkAgainstReference asserts chunked feed == one-chunk feed == the
// reference parser over the limit-truncated stream, read as both
// directions at once.
func checkAgainstReference(t testing.TB, stream []byte, limit int, cuts []int, gaps []bool) {
	t.Helper()
	truncated := stream
	if limit > 0 && len(truncated) > limit {
		truncated = truncated[:limit]
	}
	want := refParse(truncated, truncated)
	for what, got := range map[string]Result{
		"one-chunk": feedChunked(stream, limit, nil, nil),
		"chunked":   feedChunked(stream, limit, cuts, gaps),
	} {
		if got != want {
			t.Fatalf("%s outcome differs from the reference\nstream %q\nlimit %d cuts %v gaps %v\n got %+v\nwant %+v",
				what, stream, limit, cuts, gaps, got, want)
		}
	}
}

// hostileSeeds are shapes a buffer-then-scan parser shrugs off and an
// incremental one has to get exactly right.
func hostileSeeds() [][]byte {
	accepted := &Dialogue{ClientHost: "pc1.lbl.gov", From: "a@lbl.gov", To: "b@lbl.gov", MessageSize: 300}
	rejected := &Dialogue{ClientHost: "ext.example.com", From: "s@example.com", To: "x@lbl.gov", Rejected: true}
	var seeds [][]byte
	for _, d := range []*Dialogue{accepted, rejected} {
		var cli, srv, both []byte
		for _, turn := range d.Turns() {
			if turn.FromClient {
				cli = append(cli, turn.Data...)
			} else {
				srv = append(srv, turn.Data...)
			}
			both = append(both, turn.Data...)
		}
		seeds = append(seeds, cli, srv, both)
	}
	for _, s := range []string{
		// DATA lines: repeated, nearly, case-shifted, back to back with the
		// terminator, with the terminator's CRLF doing double duty.
		"DATA\r\nfirst\r\n.\r\nDATA\r\nsecond body\r\n.\r\n",
		"DDATA\r\nDATDATA\r\nx\r\n.\r\n",
		"DATA\rDATA\nDATA\r\n\r\n.\r\n",
		"data\r\nno\r\n.\r\nDATA\r\n.\r\n",
		"DATA\r\n\r\n.\r\n.\r\n",
		"DATA\r\n\r\n.\r\r\n.\r\n",
		"DATA\r\nnever terminated\r\n.\r",
		"DATA\r",
		// Reply lines: bare CR and LF, signs, short lines, no final CRLF.
		"354\r\n250\r\n",
		"250 early\r\n354 go\r\n250",
		"354 go\n250 same line\r\n",
		"354\r\r\n250\r\n",
		"35\r\n4\r\n+54\r\n-50\r\n550\r\n",
		"5\r\n55\r\n555",
		"99999 not five hundred by Atoi\r\n1e3\r\n 50\r\n",
		"\r\n\r\n\n\r354 x\r\n250 ok",
		"354 go\r\n25",
		"",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestStreamParserEverySplit cuts every hostile seed in two at every
// offset and in three around every offset, with and without a gap, and
// lands the limit on every byte; the short seeds are also cut in four at
// every triple of offsets, which is what it takes to split one CRLF and
// deliver a later one whole.
func TestStreamParserEverySplit(t *testing.T) {
	for _, stream := range hostileSeeds() {
		n := len(stream)
		for at := 0; at <= n; at++ {
			checkAgainstReference(t, stream, 0, []int{at}, nil)
			checkAgainstReference(t, stream, 0, []int{at, min(at+1, n)}, []bool{true, false})
			checkAgainstReference(t, stream, at, []int{at / 2}, []bool{true})
		}
		if n > 40 {
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

// randomStream assembles a stream from the tokens both parsers look for,
// whole and in pieces, and noise.
func randomStream(r *rand.Rand) []byte {
	tokens := []string{"DATA\r\n", "\r\n.\r\n", "\r\n", "\r", "\n", ".", "DATA", "DA", "354 go\r\n", "250 ok\r\n",
		"550 no\r\n", "354", "250", "5", "+", "-", "text text text", "MAIL FROM:<a@b>\r\n", "221 bye\r\n"}
	var s []byte
	for n := r.Intn(14); n >= 0; n-- {
		switch r.Intn(8) {
		case 0:
			noise := make([]byte, r.Intn(8))
			r.Read(noise)
			s = append(s, noise...)
		case 1:
			if len(s) > 0 {
				s = s[:r.Intn(len(s))]
			}
		default:
			s = append(s, tokens[r.Intn(len(tokens))]...)
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

// BenchmarkStreamParser feeds MSS-sized chunks, as reassembly does.
// "session" is whole dialogues through both parsers; "body" never leaves
// one message and must not allocate.
func BenchmarkStreamParser(b *testing.B) {
	const mss = 1460
	b.Run("session", func(b *testing.B) {
		d := &Dialogue{ClientHost: "h", From: "a@b", To: "c@d", MessageSize: 30000}
		var streams [2][]byte
		for _, turn := range d.Turns() {
			if turn.FromClient {
				streams[0] = append(streams[0], turn.Data...)
			} else {
				streams[1] = append(streams[1], turn.Data...)
			}
		}
		b.SetBytes(int64(len(streams[0]) + len(streams[1])))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p [2]StreamParser
			p[0].InitClient(1 << 20)
			p[1].InitServer(1 << 20)
			for side, stream := range streams {
				for at := 0; at < len(stream); at += mss {
					p[side].Data(stream[at:min(at+mss, len(stream))])
				}
			}
			if r := ResultOf(&p[0], &p[1]); !r.Accepted || r.MessageBytes < 30000 {
				b.Fatalf("parse failure: %+v", r)
			}
		}
	})
	b.Run("body", func(b *testing.B) {
		var p StreamParser
		p.InitClient(0)
		p.Data([]byte("DATA\r\n"))
		chunk := bytes.Repeat([]byte("The quick brown fox jumps over the lazy dog.\r\n"), 32)[:mss]
		b.SetBytes(mss)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Data(chunk)
		}
		if p.msgBytes != b.N*mss {
			b.Fatal("message bytes miscounted")
		}
	})
}
