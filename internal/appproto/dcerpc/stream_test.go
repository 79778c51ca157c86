package dcerpc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
)

// refDecode is the whole-buffer PDU decoder as it stood before
// StreamParser, and refStream the analyzer's walk over it, kept verbatim
// as the reference the incremental parser must agree with on every input.
func refDecode(data []byte) (*PDU, int, error) {
	if len(data) < hdrLen {
		return nil, 0, ErrShort
	}
	if data[0] != 5 {
		return nil, 0, ErrBadVersion
	}
	p := &PDU{
		Type:   data[2],
		CallID: binary.LittleEndian.Uint32(data[12:16]),
	}
	fragLen := int(binary.LittleEndian.Uint16(data[8:10]))
	if fragLen < hdrLen {
		fragLen = hdrLen
	}
	consumed := fragLen
	if consumed > len(data) {
		consumed = len(data)
	}
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
	return p, consumed, nil
}

func refStream(data []byte, pdu func(*PDU)) {
	for len(data) > 0 {
		p, n, err := refDecode(data)
		if err != nil || n == 0 {
			return
		}
		pdu(p)
		data = data[n:]
	}
}

// refWholePDUs is the Endpoint Mapper replay's walk as it stood in
// internal/core: only PDUs a segment holds whole count, and the first one
// it does not ends the walk.
func refWholePDUs(buf []byte, pdu func(*PDU)) {
	for {
		p, n, err := refDecode(buf)
		if err != nil || n == 0 || n > len(buf) {
			break
		}
		// Only consume complete PDUs; Decode clamps n to the buffer,
		// so compare against the header's fragment length.
		if len(buf) >= 10 {
			fragLen := int(uint16(buf[8]) | uint16(buf[9])<<8)
			if fragLen > len(buf) {
				break // the incremental parser would wait for more bytes
			}
		}
		pdu(p)
		buf = buf[n:]
	}
}

// refFold is the analyzer's per-PDU step as it stood.
func refFold(a *Analyzer, channel ChanKey, p *PDU) {
	switch p.Type {
	case PTBind:
		a.binds[channel] = p.Iface
	case PTBindAck:
		if _, known := a.binds[channel]; !known {
			a.binds[channel] = p.Iface
		}
	case PTRequest:
		fn := FunctionName(a.binds[channel], p.Opnum)
		a.Requests.Inc(fn)
		a.Bytes.Add(fn, int64(p.StubLen))
	case PTResponse:
		a.Bytes.Add(FunctionName(a.binds[channel], 0), int64(p.StubLen))
	}
}

// feedChunked drives one parser over the payloads, each cut at the given
// ascending offsets and — but for the last, if open is set — closed with
// End. Every chunk is lent in a buffer that is overwritten as soon as
// Data returns.
func feedChunked(payloads [][]byte, cuts []int, open bool) []Summary {
	var p StreamParser
	for i, payload := range payloads {
		lent := make([]byte, len(payload))
		prev := 0
		for _, c := range append(cuts, len(payload)) {
			c = min(c, len(payload))
			b := lent[:c-prev]
			copy(b, payload[prev:c])
			p.Data(b)
			for j := range b {
				b[j] = 0xEE
			}
			prev = c
		}
		if !open || i < len(payloads)-1 {
			p.End()
		}
	}
	return p.PDUs()
}

// checkAgainstReference asserts chunked feed == one-chunk feed == the
// reference walk, PDU for PDU and as the analyzer folds them. The payload
// is parsed twice over by one parser, so what End leaves behind is
// checked too.
func checkAgainstReference(t testing.TB, payload []byte, cuts []int) {
	t.Helper()
	var want []Summary
	wantFold := NewAnalyzer()
	for range 2 {
		refStream(payload, func(p *PDU) {
			want = append(want, summarize(p))
			refFold(wantFold, ChanKey{}, p)
		})
	}
	twice := [][]byte{payload, payload}
	for what, got := range map[string][]Summary{
		"one-chunk": feedChunked(twice, nil, false),
		"chunked":   feedChunked(twice, cuts, false),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s PDUs differ from the reference\npayload %x\ncuts %v\n got %+v\nwant %+v", what, payload, cuts, got, want)
		}
		fold := NewAnalyzer()
		fold.Summaries(ChanKey{}, got)
		if !reflect.DeepEqual(fold, wantFold) {
			t.Fatalf("%s PDUs fold differently from the reference\npayload %x\n got %+v\nwant %+v", what, payload, fold, wantFold)
		}
	}
	// A payload left open reports the PDUs it holds whole, no more.
	var wantWhole []Summary
	refWholePDUs(payload, func(p *PDU) { wantWhole = append(wantWhole, summarize(p)) })
	if got := feedChunked([][]byte{payload}, cuts, true); !reflect.DeepEqual(got, wantWhole) {
		t.Fatalf("an open payload's PDUs differ from the reference\npayload %x\ncuts %v\n got %+v\nwant %+v", payload, cuts, got, wantWhole)
	}
	whole := NewAnalyzer()
	whole.Stream(ChanKey{}, payload)
	whole.Stream(ChanKey{}, payload)
	if !reflect.DeepEqual(whole, wantFold) {
		t.Fatalf("Stream(%x) folds differently from the reference", payload)
	}
}

// hostileSeeds are shapes a buffer-then-walk loop shrugs off and an
// incremental one has to get exactly right.
func hostileSeeds() [][]byte {
	host := netip.AddrFrom4([4]byte{128, 3, 7, 5})
	channel := bytes.Join([][]byte{
		Encode(&PDU{Type: PTBind, CallID: 1, Iface: IfEPM}),
		Encode(&PDU{Type: PTBindAck, CallID: 1, Iface: IfSpoolss}),
		Encode(&PDU{Type: PTRequest, CallID: 2, Opnum: OpEpmMap, Stub: make([]byte, 60)}),
		EncodeEpmMapResponse(2, IfSpoolss, host, 2101),
		Encode(&PDU{Type: PTRequest, CallID: 3, Opnum: OpSpoolssWritePrinter, Stub: make([]byte, 4000)}),
		Encode(&PDU{Type: 14, CallID: 4}),
	}, nil)
	frag := func(pdu []byte, n uint16) []byte {
		out := append([]byte(nil), pdu...)
		binary.LittleEndian.PutUint16(out[8:10], n)
		return out
	}
	mapResp := EncodeEpmMapResponse(9, IfNetLogon, host, 1026)
	bind := Encode(&PDU{Type: PTBind, CallID: 1, Iface: IfEPM})
	return [][]byte{
		channel,
		// Fragment lengths: below the header size, inside the fields,
		// past the payload, the 16-bit maximum.
		append(frag(mapResp, 0), bind...),
		append(frag(mapResp, 15), bind...),
		append(append([]byte(nil), bind...), frag(mapResp, 30)...),
		append(append([]byte(nil), bind...), frag(mapResp, 45)...),
		append(append([]byte(nil), bind...), frag(mapResp, 46)...),
		append(frag(bind, 35), mapResp...),
		append(frag(bind, 5000), mapResp...),
		frag(mapResp, 0xFFFF),
		// Not version 5 mid-payload: what precedes it counts.
		append(append(append([]byte(nil), bind...), 4, 0, 0, 3, 0x10, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0), mapResp...),
		// A payload that ends inside a header, and inside each field.
		channel[:len(channel)-3],
		mapResp[:hdrLen+8+21],
		mapResp[:hdrLen+7],
		bind[:hdrLen+19],
		{5},
		nil,
	}
}

// TestStreamParserEverySplit cuts every hostile seed in two at every
// offset and in three around every offset.
func TestStreamParserEverySplit(t *testing.T) {
	for _, payload := range hostileSeeds() {
		for at := 0; at <= len(payload); at++ {
			checkAgainstReference(t, payload, []int{at})
			checkAgainstReference(t, payload, []int{at, at + 1})
		}
	}
}

// randomSchedule draws ascending cut offsets.
func randomSchedule(r *rand.Rand, n int) (cuts []int) {
	for at := 0; at < n; {
		at += 1 + r.Intn(1+r.Intn(64))
		if at < n {
			cuts = append(cuts, at)
		}
	}
	return cuts
}

// Property: for payloads assembled from well-formed PDUs, damaged ones
// and noise, cut anywhere, the chunked feed, the one-chunk feed and the
// reference agree.
func TestStreamParserMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ifaces := []UUID{IfEPM, IfSpoolss, IfNetLogon, {}}
	for i := 0; i < 10000; i++ {
		var s []byte
		for n := r.Intn(8); n >= 0; n-- {
			switch r.Intn(7) {
			case 0:
				s = append(s, Encode(&PDU{Type: []uint8{PTBind, PTBindAck}[r.Intn(2)], Iface: ifaces[r.Intn(len(ifaces))]})...)
			case 1, 2:
				s = append(s, Encode(&PDU{Type: PTRequest, Opnum: uint16(r.Intn(30)), Stub: make([]byte, r.Intn(2)*r.Intn(3000))})...)
			case 3:
				s = append(s, EncodeEpmMapResponse(1, ifaces[r.Intn(len(ifaces))], netip.AddrFrom4([4]byte{10, 0, 0, 1}), uint16(r.Intn(65536)))...)
			case 4:
				pdu := Encode(&PDU{Type: PTResponse, Stub: make([]byte, r.Intn(40))})
				binary.LittleEndian.PutUint16(pdu[8:10], uint16(r.Intn(80)))
				s = append(s, pdu...)
			case 5:
				noise := make([]byte, r.Intn(20))
				r.Read(noise)
				s = append(s, noise...)
			case 6:
				if len(s) > 0 {
					s = s[:r.Intn(len(s))]
				}
			}
		}
		checkAgainstReference(t, s, randomSchedule(r, len(s)))
	}
}

func FuzzStreamParser(f *testing.F) {
	for i, seed := range hostileSeeds() {
		f.Add(seed, int64(i))
	}
	f.Fuzz(func(t *testing.T, payload []byte, schedule int64) {
		checkAgainstReference(t, payload, randomSchedule(rand.New(rand.NewSource(schedule)), len(payload)))
	})
}

// FuzzDecode feeds the PDU decoder and the endpoint-map parser arbitrary
// bytes: no panic, a consumed count within the buffer, a stub that is a
// view into the input and never an over-read, and the same PDU the
// reference decoder finds.
func FuzzDecode(f *testing.F) {
	for _, seed := range hostileSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, n, err := Decode(data)
		want, wantN, wantErr := refDecode(data)
		if err != wantErr || n != wantN || !reflect.DeepEqual(p, want) {
			t.Fatalf("Decode(%x) = %+v, %d, %v; reference %+v, %d, %v", data, p, n, err, want, wantN, wantErr)
		}
		if err != nil {
			return
		}
		if n < hdrLen || n > len(data) {
			t.Fatalf("consumed %d of a %d-byte buffer", n, len(data))
		}
		if len(p.Stub) > n-hdrLen {
			t.Fatalf("stub of %d bytes from a %d-byte PDU", len(p.Stub), n)
		}
		if _, host, _, ok := ParseEpmMapResponse(p); ok && (len(p.Stub) < epmStubLen || !host.Is4()) {
			t.Fatalf("endpoint map parsed out of a %d-byte stub (host %v)", len(p.Stub), host)
		}
	})
}

// BenchmarkStreamParser feeds MSS-sized chunks. "pdus" is a pipe's worth
// of WritePrinter requests; "body" never leaves one PDU and must not
// allocate.
func BenchmarkStreamParser(b *testing.B) {
	const mss = 1460
	b.Run("pdus", func(b *testing.B) {
		var payload []byte
		for i := 0; i < 32; i++ {
			payload = append(payload, Encode(&PDU{Type: PTRequest, Opnum: OpSpoolssWritePrinter, Stub: make([]byte, 4096)})...)
		}
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p StreamParser
			for at := 0; at < len(payload); at += mss {
				p.Data(payload[at:min(at+mss, len(payload))])
			}
			p.End()
			if len(p.PDUs()) != 32 {
				b.Fatal("parse failure")
			}
		}
	})
	b.Run("body", func(b *testing.B) {
		big := Encode(&PDU{Type: PTRequest, Stub: make([]byte, 60000)})
		chunk := make([]byte, mss)
		var p StreamParser
		b.SetBytes(mss)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p.skip < mss {
				p = StreamParser{}
				p.Data(big[:prefixLen])
			}
			p.Data(chunk)
		}
		if len(p.PDUs()) != 0 {
			b.Fatal("left the PDU")
		}
	})
}
