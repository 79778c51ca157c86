package cifs

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"enttrace/internal/appproto/dcerpc"
	"enttrace/internal/appproto/netbios"
)

// refDecodeInto, refConsumeSMB and refStream are the whole-buffer decoder
// and the analyzer's walk over it that StreamParser replaced, and
// refSSNFrames the session-frame walk replay ran beside them, all kept
// verbatim as the reference the incremental parser must agree with on
// every input.
func refDecodeInto(data []byte, m *Message) (int, error) {
	if len(data) < 32 || data[0] != smbMagic[0] || data[1] != smbMagic[1] ||
		data[2] != smbMagic[2] || data[3] != smbMagic[3] {
		return 0, ErrNotSMB
	}
	*m = Message{
		Command:  data[4],
		Status:   binary.LittleEndian.Uint32(data[5:9]),
		Response: data[9]&0x80 != 0,
		TreeID:   binary.LittleEndian.Uint16(data[24:26]),
		MID:      binary.LittleEndian.Uint16(data[30:32]),
	}
	body := data[32:]
	if len(body) < 7 {
		return len(data), nil // header-only capture
	}
	dataLen := int(binary.LittleEndian.Uint16(body[1:3]))
	nameLen := int(binary.LittleEndian.Uint16(body[3:5]))
	rest := body[7:]
	if nameLen > 0 {
		n := nameLen
		if n > len(rest) {
			n = len(rest)
		}
		nameBytes := rest[:n]
		for len(nameBytes) > 0 && nameBytes[len(nameBytes)-1] == 0 {
			nameBytes = nameBytes[:len(nameBytes)-1]
		}
		m.PipeName = internPipe(nameBytes)
		rest = rest[n:]
	}
	m.DataLen = dataLen
	if dataLen < len(rest) {
		rest = rest[:dataLen]
	}
	m.Payload = rest
	consumed := 32 + 7 + nameLen + dataLen
	if consumed > len(data) {
		consumed = len(data)
	}
	return consumed, nil
}

type pipeSink func(fromClient bool, pipe string, payload []byte)

func refStream(a *Analyzer, sink pipeSink, fromClient bool, netbiosFramed bool, stream []byte) {
	for len(stream) > 0 {
		var smb []byte
		if netbiosFramed {
			h, err := netbios.DecodeSSNHeader(stream)
			if err != nil {
				return
			}
			if h.Type != netbios.SSNMessage {
				// Session-request/response frames carry no SMB.
				adv := 4 + h.Length
				if adv > len(stream) {
					return
				}
				stream = stream[adv:]
				continue
			}
			end := 4 + h.Length
			if end > len(stream) {
				end = len(stream)
			}
			smb = stream[4:end]
			stream = stream[end:]
		} else {
			smb = stream
			stream = nil
		}
		refConsumeSMB(a, sink, fromClient, smb)
	}
}

func refConsumeSMB(a *Analyzer, sink pipeSink, fromClient bool, buf []byte) {
	var msg Message
	for len(buf) > 0 {
		m := &msg
		n, err := refDecodeInto(buf, m)
		if err != nil || n == 0 {
			return
		}
		cat := category(m.Command, m.PipeName)
		if !m.Response {
			a.Requests.Inc(cat)
		}
		a.Bytes.Add(cat, int64(m.DataLen))
		if m.Command == CmdTrans && sink != nil && len(m.Payload) > 0 {
			sink(fromClient, m.PipeName, m.Payload)
		}
		buf = buf[n:]
	}
}

func refSSNFrames(stream []byte) (types []uint8) {
	for len(stream) >= 4 {
		h, err := netbios.DecodeSSNHeader(stream)
		if err != nil {
			return
		}
		types = append(types, h.Type)
		adv := 4 + h.Length
		if adv > len(stream) {
			return
		}
		stream = stream[adv:]
	}
	return
}

// outcome is everything replay takes from one direction.
type outcome struct {
	counts *Analyzer
	// pipes names each pipe transaction that carried PDUs, pdus is all of
	// theirs in order, and rpc the DCE/RPC analyzer after taking them.
	pipes  []string
	pdus   []dcerpc.Summary
	rpc    *dcerpc.Analyzer
	frames []uint8
}

func refOutcome(framed bool, stream []byte) outcome {
	o := outcome{counts: NewAnalyzer(), rpc: dcerpc.NewAnalyzer()}
	refStream(o.counts, func(fromClient bool, pipe string, payload []byte) {
		// A payload's PDUs are those dcerpc's own whole-buffer entry
		// point finds (held to its own reference in that package).
		var q dcerpc.StreamParser
		q.Data(payload)
		q.End()
		if len(q.PDUs()) == 0 {
			return
		}
		o.pipes, o.pdus = append(o.pipes, pipe), append(o.pdus, q.PDUs()...)
		o.rpc.Stream(dcerpc.ChanKey{Pipe: pipe}, payload)
	}, true, framed, stream)
	if framed {
		o.frames = refSSNFrames(stream)
	}
	return o
}

// feedChunked drives a parser over stream cut at the given ascending
// offsets, calling Gap between chunks where gaps says so, and folds it.
// Every chunk is lent in a buffer that is overwritten as soon as Data
// returns, so a carried header or name that still pointed into a borrowed
// chunk would come out poisoned.
func feedChunked(framed bool, stream []byte, limit int, cuts []int, gaps []bool) outcome {
	var p StreamParser
	p.Init(framed, limit)
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
	p.End()
	p.End() // closing twice changes nothing
	o := outcome{counts: NewAnalyzer(), rpc: dcerpc.NewAnalyzer(), frames: p.SSNFrames()}
	o.counts.Records(&p, func(pipe string, pdus []dcerpc.Summary) {
		o.pipes, o.pdus = append(o.pipes, pipe), append(o.pdus, pdus...)
		o.rpc.Summaries(dcerpc.ChanKey{Pipe: pipe}, pdus)
	})
	return o
}

// checkAgainstReference asserts chunked feed == one-chunk feed == the
// reference walk over the limit-truncated stream, in both framings.
func checkAgainstReference(t testing.TB, stream []byte, limit int, cuts []int, gaps []bool) {
	t.Helper()
	truncated := stream
	if limit > 0 && len(truncated) > limit {
		truncated = truncated[:limit]
	}
	for _, framed := range []bool{false, true} {
		want := refOutcome(framed, truncated)
		for what, got := range map[string]outcome{
			"one-chunk": feedChunked(framed, stream, limit, nil, nil),
			"chunked":   feedChunked(framed, stream, limit, cuts, gaps),
		} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s outcome (framed=%v) differs from the reference\nstream %x\nlimit %d cuts %v gaps %v\n got %+v %+v\nwant %+v %+v",
					what, framed, stream, limit, cuts, gaps, got, got.counts, want, want.counts)
			}
		}
	}
}

func frame(typ uint8, payload []byte) []byte { return netbios.EncodeSSN(typ, payload) }

func rpcPayload() []byte {
	return bytes.Join([][]byte{
		dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTBind, CallID: 1, Iface: dcerpc.IfSpoolss}),
		dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTRequest, CallID: 2, Opnum: dcerpc.OpSpoolssWritePrinter, Stub: make([]byte, 90)}),
	}, nil)
}

// hostileSeeds are shapes a buffer-then-walk loop shrugs off and an
// incremental one has to get exactly right. Every seed is parsed in both
// framings, so the raw ones double as malformed framed streams.
func hostileSeeds() [][]byte {
	msgs := []*Message{
		{Command: CmdNegotiate},
		{Command: CmdSessionSetupAndX, Response: true, Status: StatusAccessDenied},
		{Command: CmdTrans, PipeName: `\PIPE\spoolss`, Payload: rpcPayload()},
		{Command: CmdTrans, Response: true, PipeName: `\PIPE\spoolss`, Payload: dcerpc.Encode(&dcerpc.PDU{Type: dcerpc.PTResponse, Stub: make([]byte, 30)})},
		{Command: CmdTrans, PipeName: LanmanPipe, Payload: []byte("lanman request")},
		{Command: CmdTrans, PipeName: `\PIPE\unheard-of`, Payload: rpcPayload()[:50]},
		{Command: CmdTrans, PipeName: `\MAILSLOT\BROWSE`},
		{Command: CmdWriteAndX, Payload: make([]byte, 300)},
		{Command: CmdReadAndX, Response: true, Payload: make([]byte, 120)},
	}
	var raw, framed []byte
	framed = append(framed, frame(netbios.SSNRequest, make([]byte, 68))...)
	framed = append(framed, frame(netbios.SSNPositiveResponse, nil)...)
	for _, m := range msgs {
		raw = append(raw, Encode(m)...)
		framed = append(framed, frame(netbios.SSNMessage, Encode(m))...)
	}
	framed = append(framed, frame(netbios.SSNKeepAlive, nil)...)
	trans := Encode(msgs[2])
	lie := func(off int, v uint16) []byte {
		out := append([]byte(nil), trans...)
		binary.LittleEndian.PutUint16(out[off:], v)
		return append(out, Encode(msgs[0])...)
	}
	twoInOne := frame(netbios.SSNMessage, append(Encode(msgs[0]), Encode(msgs[7])...))
	return [][]byte{
		raw,
		framed,
		// Bad magic mid-stream: raw, it ends the parse; framed, it ends
		// only its own frame's run.
		append(append(Encode(msgs[0]), "\xffSMX garbage that runs on for a while........"...), Encode(msgs[0])...),
		bytes.Join([][]byte{frame(netbios.SSNMessage, []byte("\xffSMX not smb at all, longer than a header....")), frame(netbios.SSNMessage, Encode(msgs[7]))}, nil),
		// Claimed lengths: data and name, zero, past the capture, maximal.
		lie(33, 0), lie(33, 5000), lie(33, 0xFFFF), lie(35, 0), lie(35, 3), lie(35, 5000), lie(35, 0xFFFF),
		// Frames: two messages in one, one cut inside a header-only
		// message, inside the parameter block, an empty one, one that
		// claims more than the stream holds, a non-message one that does.
		twoInOne,
		bytes.Join([][]byte{frame(netbios.SSNMessage, trans[:32]), frame(netbios.SSNMessage, trans[:36]), frame(netbios.SSNMessage, nil), frame(netbios.SSNMessage, trans[:60]), twoInOne}, nil),
		append(frame(netbios.SSNMessage, trans)[:len(trans)-20], 0, 0),
		append(frame(netbios.SSNNegativeResponse, make([]byte, 40))[:20], frame(netbios.SSNMessage, trans)...),
		{0x00, 0x01, 0xFF, 0xFF},
		// A stream that ends inside a header, a name, a payload.
		raw[:len(raw)-3], trans[:34], trans[:38], trans[:39], trans[:45], trans[:len(trans)-1],
		{0xFF, 'S', 'M'},
		nil,
	}
}

// TestStreamParserEverySplit cuts every hostile seed in two at every
// offset and in three around every offset, with and without a gap, and
// lands the limit on every byte — inside headers, names and frame
// headers included.
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

// randomStream assembles a stream from well-formed messages and frames,
// damaged ones and noise.
func randomStream(r *rand.Rand) []byte {
	cmds := []uint8{CmdNegotiate, CmdTrans, CmdTrans, CmdReadAndX, CmdWriteAndX, CmdTrans2, CmdEcho}
	pipes := []string{`\PIPE\spoolss`, LanmanPipe, `\pipe\lsarpc`, `\PIPE\x`, "", "\\PIPE\\nul\x00\x00"}
	message := func() []byte {
		m := &Message{Command: cmds[r.Intn(len(cmds))], Response: r.Intn(2) == 0}
		if m.Command == CmdTrans {
			m.PipeName = pipes[r.Intn(len(pipes))]
			m.Payload = rpcPayload()[:r.Intn(len(rpcPayload())+1)]
		} else {
			m.Payload = make([]byte, r.Intn(2)*r.Intn(2000))
		}
		out := Encode(m)
		if r.Intn(6) == 0 {
			binary.LittleEndian.PutUint16(out[33+2*r.Intn(2):], uint16(r.Intn(200))) // one lying length
		}
		return out
	}
	var s []byte
	for n := r.Intn(8); n >= 0; n-- {
		switch r.Intn(8) {
		case 0, 1:
			s = append(s, message()...)
		case 2, 3:
			s = append(s, frame(netbios.SSNMessage, message())...)
		case 4:
			s = append(s, frame(netbios.SSNMessage, append(message(), message()...))...)
		case 5:
			s = append(s, frame([]uint8{netbios.SSNRequest, netbios.SSNPositiveResponse, netbios.SSNNegativeResponse, netbios.SSNKeepAlive}[r.Intn(4)], make([]byte, r.Intn(2)*r.Intn(80)))...)
		case 6:
			noise := make([]byte, r.Intn(12))
			r.Read(noise)
			s = append(s, noise...)
		case 7:
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
	for i := 0; i < 5000; i++ {
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
		// DecodeInto shares the parser's field readers.
		var got, want Message
		n, err := DecodeInto(stream, &got)
		wantN, wantErr := refDecodeInto(stream, &want)
		if n != wantN || err != wantErr || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeInto(%x) = %+v, %d, %v; reference %+v, %d, %v", stream, got, n, err, want, wantN, wantErr)
		}
	})
}

// A hostile pipe name is gathered whole — the channel key needs it — but
// its scratch is not kept once the message is done.
func TestStreamParserDropsLongNameScratch(t *testing.T) {
	long := Encode(&Message{Command: CmdTrans, PipeName: string(bytes.Repeat([]byte("n"), 60000))})
	var p StreamParser
	p.Init(false, 0)
	for at := 0; at < len(long); at += 1460 {
		p.Data(long[at:min(at+1460, len(long))])
	}
	p.End()
	if recs := p.Records(); len(recs) != 1 || len(recs[0].Pipe) != 60000 {
		t.Fatalf("parsed %+v", recs)
	}
	if cap(p.name) > maxKeptName {
		t.Errorf("the parser keeps a %d-byte name scratch between messages", cap(p.name))
	}
}

// BenchmarkStreamParser feeds MSS-sized chunks, as reassembly does.
// "messages" is a framed file-and-pipe session; "body" never leaves one
// payload and must not allocate.
func BenchmarkStreamParser(b *testing.B) {
	const mss = 1460
	b.Run("messages", func(b *testing.B) {
		stream := hostileSeeds()[1]
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p StreamParser
			p.Init(true, 2<<20)
			for at := 0; at < len(stream); at += mss {
				p.Data(stream[at:min(at+mss, len(stream))])
			}
			p.End()
			if len(p.Records()) != 9 {
				b.Fatal("parse failure")
			}
		}
	})
	b.Run("body", func(b *testing.B) {
		big := Encode(&Message{Command: CmdWriteAndX, Payload: make([]byte, 60000)})
		chunk := make([]byte, mss)
		var p StreamParser
		b.SetBytes(mss)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p.dataLeft < mss {
				p.Init(false, 0)
				p.Data(big[:hdrLen+paramLen])
			}
			p.Data(chunk)
		}
		if len(p.Records()) != 0 {
			b.Fatal("left the payload")
		}
	})
}
