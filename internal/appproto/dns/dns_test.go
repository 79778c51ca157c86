package dns

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func TestEncodeDecodeQuery(t *testing.T) {
	m := &Message{ID: 0x1234, QName: "mail.lbl.gov", QType: TypeMX}
	data := Encode(m)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.Response || got.QName != "mail.lbl.gov" || got.QType != TypeMX {
		t.Errorf("got %+v", got)
	}
}

func TestEncodeDecodeResponse(t *testing.T) {
	m := &Message{ID: 7, Response: true, Rcode: RcodeNXDomain, QName: "gone.example.com", QType: TypeA}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || got.Rcode != RcodeNXDomain || got.QName != "gone.example.com" {
		t.Errorf("got %+v", got)
	}
}

func TestResponseWithAnswersParses(t *testing.T) {
	m := &Message{ID: 9, Response: true, Rcode: RcodeNoError, QName: "www.lbl.gov", QType: TypeA, AnswerCount: 3}
	data := Encode(m)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.AnswerCount != 3 {
		t.Errorf("answers = %d", got.AnswerCount)
	}
	// Answers use compression pointers; the name at offset 12 must parse.
	name, _, err := decodeName(data, len(data)-16+0) // start of last answer record name
	if err != nil {
		t.Fatalf("compressed name: %v", err)
	}
	if name != "www.lbl.gov" {
		t.Errorf("compressed name = %q", name)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err != ErrShortMessage {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeCompressionLoop(t *testing.T) {
	// A name that points at itself must terminate with ErrBadName.
	data := make([]byte, 14)
	data[4], data[5] = 0, 1 // QDCOUNT 1
	data[12], data[13] = 0xc0, 12
	if _, err := Decode(data); err != ErrBadName {
		t.Errorf("err = %v, want ErrBadName", err)
	}
}

func TestTypeNames(t *testing.T) {
	cases := map[uint16]string{TypeA: "A", TypeAAAA: "AAAA", TypePTR: "PTR", TypeMX: "MX", 99: "TYPE99"}
	for typ, want := range cases {
		if got := TypeName(typ); got != want {
			t.Errorf("TypeName(%d) = %q", typ, got)
		}
	}
}

func TestRootName(t *testing.T) {
	m := &Message{ID: 1, QName: "", QType: TypeNS}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.QName != "" {
		t.Errorf("root name = %q", got.QName)
	}
}

// Property: every encodable query round-trips name, type, and ID.
func TestRoundTripProperty(t *testing.T) {
	f := func(id uint16, qtypeSel uint8, labelA, labelB string) bool {
		clean := func(s string) string {
			out := make([]rune, 0, len(s))
			for _, r := range s {
				if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
					out = append(out, r)
				}
			}
			if len(out) == 0 {
				return "x"
			}
			if len(out) > 30 {
				out = out[:30]
			}
			return string(out)
		}
		qtypes := []uint16{TypeA, TypeAAAA, TypePTR, TypeMX}
		m := &Message{
			ID:    id,
			QName: clean(labelA) + "." + clean(labelB),
			QType: qtypes[int(qtypeSel)%len(qtypes)],
		}
		got, err := Decode(Encode(m))
		return err == nil && got.ID == m.ID && got.QName == m.QName && got.QType == m.QType
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestDecodeFuzzProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

var (
	client = netip.MustParseAddr("10.1.1.5")
	server = netip.MustParseAddr("10.0.0.53")
)

func TestAnalyzerPairsQueryResponse(t *testing.T) {
	a := NewAnalyzer()
	t0 := time.Unix(100, 0)
	a.Message(t0, client, server, &Message{ID: 5, QName: "a.lbl.gov", QType: TypeA})
	a.Message(t0.Add(400*time.Microsecond), server, client, &Message{ID: 5, Response: true, Rcode: RcodeNoError, QName: "a.lbl.gov", QType: TypeA})
	if len(a.pending) != 0 {
		t.Errorf("pending = %d after the answer", len(a.pending))
	}
	if a.Types.Get("A") != 1 || a.Types.Total() != 1 {
		t.Error("type counter")
	}
	if a.Rcodes.Get("NOERROR") != 1 || a.Rcodes.Total() != 1 {
		t.Error("rcode counter")
	}
	if a.Clients[client] != 1 || len(a.Clients) != 1 {
		t.Error("client counter")
	}
	if a.Latency.N() != 1 || a.Latency.Median() != (400*time.Microsecond).Seconds() {
		t.Errorf("latency dist: n %d, median %v", a.Latency.N(), a.Latency.Median())
	}
}

func TestAnalyzerUnansweredStaysPending(t *testing.T) {
	a := NewAnalyzer()
	a.Message(time.Unix(0, 0), client, server, &Message{ID: 1, QName: "x.lbl.gov", QType: TypeAAAA})
	// The request counts at once; with no answer there is no outcome and
	// no latency sample, and the query waits for one.
	if a.Types.Get("AAAA") != 1 || a.Clients[client] != 1 {
		t.Error("unanswered query missing from the request counters")
	}
	if len(a.pending) != 1 || a.Rcodes.Total() != 0 || a.Latency.N() != 0 {
		t.Errorf("pending %d, rcodes %d, latency samples %d; want 1, 0, 0", len(a.pending), a.Rcodes.Total(), a.Latency.N())
	}
}

func TestAnalyzerRetryCountedOnce(t *testing.T) {
	// The paper counts failures per distinct operation, so an automated
	// client retrying the same lookup inflates neither NXDOMAIN nor
	// NOERROR counts.
	a := NewAnalyzer()
	t0 := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		id := uint16(100 + i)
		a.Message(t0, client, server, &Message{ID: id, QName: "stale.lbl.gov", QType: TypeA})
		a.Message(t0.Add(time.Millisecond), server, client, &Message{ID: id, Response: true, Rcode: RcodeNXDomain, QName: "stale.lbl.gov", QType: TypeA})
	}
	if a.Rcodes.Get("NXDOMAIN") != 1 || a.Rcodes.Total() != 1 {
		t.Errorf("NXDOMAIN = %d of %d, want 1 of 1 (deduplicated)", a.Rcodes.Get("NXDOMAIN"), a.Rcodes.Total())
	}
	// Requests and latency are per message: every retry was asked and
	// answered.
	if a.Types.Get("A") != 5 || a.Clients[client] != 5 || a.Latency.N() != 5 {
		t.Errorf("types %d, clients %d, latency samples %d; want 5 raw transactions each",
			a.Types.Get("A"), a.Clients[client], a.Latency.N())
	}
}

func TestAnalyzerResponseWithoutQueryIgnored(t *testing.T) {
	a := NewAnalyzer()
	a.Message(time.Unix(0, 0), server, client, &Message{ID: 9, Response: true, Rcode: RcodeNoError})
	if a.Rcodes.Total() != 0 || a.Latency.N() != 0 || a.Types.Total() != 0 || len(a.Clients) != 0 || len(a.pending) != 0 {
		t.Error("orphan response should be dropped")
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	m := &Message{ID: 1, QName: "host123.subnet45.lbl.gov", QType: TypeA}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := Encode(m)
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
