package netbios

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNSRoundTripQuery(t *testing.T) {
	m := &NSMessage{ID: 0xBEEF, Op: OpQuery, Name: "FILESRV01", Suffix: SuffixServer}
	got, err := DecodeNS(EncodeNS(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0xBEEF || got.Response || got.Op != OpQuery {
		t.Errorf("got %+v", got)
	}
	if got.Name != "FILESRV01" || got.Suffix != SuffixServer {
		t.Errorf("name = %q suffix = %#x", got.Name, got.Suffix)
	}
}

func TestNSRoundTripResponse(t *testing.T) {
	m := &NSMessage{ID: 3, Response: true, Op: OpQuery, Rcode: RcodeNXDomain, Name: "STALE", Suffix: SuffixWorkstation}
	got, err := DecodeNS(EncodeNS(m))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || got.Rcode != RcodeNXDomain || got.Name != "STALE" {
		t.Errorf("got %+v", got)
	}
}

func TestNSAllOpcodes(t *testing.T) {
	for _, op := range []uint8{OpQuery, OpRegister, OpRelease, OpRefresh, OpStatus} {
		m := &NSMessage{ID: 1, Op: op, Name: "HOST", Suffix: SuffixWorkstation}
		got, err := DecodeNS(EncodeNS(m))
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if got.Op != op {
			t.Errorf("op = %d, want %d", got.Op, op)
		}
	}
}

func TestNameCaseFoldingAndPadding(t *testing.T) {
	m := &NSMessage{ID: 1, Op: OpQuery, Name: "lowercase", Suffix: 0}
	got, err := DecodeNS(EncodeNS(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "LOWERCASE" {
		t.Errorf("name = %q, want upper-cased", got.Name)
	}
}

func TestLongNameTruncated(t *testing.T) {
	m := &NSMessage{ID: 1, Op: OpQuery, Name: strings.Repeat("A", 40), Suffix: 0}
	got, err := DecodeNS(EncodeNS(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Name) != 15 {
		t.Errorf("name len = %d, want 15", len(got.Name))
	}
}

func TestDecodeNSErrors(t *testing.T) {
	if _, err := DecodeNS([]byte{1}); err != ErrShort {
		t.Errorf("short: %v", err)
	}
	bad := EncodeNS(&NSMessage{ID: 1, Op: OpQuery, Name: "X"})
	bad[13] = 'z' // invalid encoded nibble
	if _, err := DecodeNS(bad); err != ErrBadName {
		t.Errorf("bad name: %v", err)
	}
}

func TestSuffixClasses(t *testing.T) {
	cases := map[uint8]string{
		SuffixWorkstation: "workstation/server",
		SuffixServer:      "workstation/server",
		SuffixDomain:      "domain/browser",
		SuffixBrowser:     "domain/browser",
		0x42:              "other",
	}
	for s, want := range cases {
		if got := SuffixClass(s); got != want {
			t.Errorf("SuffixClass(%#x) = %q", s, got)
		}
	}
}

func TestSSNFraming(t *testing.T) {
	payload := []byte("smb goes here")
	frame := EncodeSSN(SSNMessage, payload)
	h, err := DecodeSSNHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != SSNMessage || h.Length != len(payload) {
		t.Errorf("header = %+v", h)
	}
	if _, err := DecodeSSNHeader([]byte{0x81}); err != ErrShort {
		t.Errorf("short SSN: %v", err)
	}
}

func TestSSNLargeLength(t *testing.T) {
	// 17-bit length field: 100000 bytes.
	payload := make([]byte, 100000)
	h, err := DecodeSSNHeader(EncodeSSN(SSNMessage, payload))
	if err != nil {
		t.Fatal(err)
	}
	if h.Length != 100000 {
		t.Errorf("length = %d", h.Length)
	}
}

// Property: NS name round-trip for arbitrary alphanumeric names and all
// standard suffixes.
func TestNSNameProperty(t *testing.T) {
	f := func(raw string, sfxSel uint8) bool {
		name := make([]rune, 0, 15)
		for _, r := range strings.ToUpper(raw) {
			if r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
				name = append(name, r)
			}
			if len(name) == 15 {
				break
			}
		}
		if len(name) == 0 {
			name = []rune{'H'}
		}
		sfx := []uint8{SuffixWorkstation, SuffixServer, SuffixDomain, SuffixBrowser}[int(sfxSel)%4]
		m := &NSMessage{ID: 1, Op: OpQuery, Name: string(name), Suffix: sfx}
		got, err := DecodeNS(EncodeNS(m))
		return err == nil && got.Name == string(name) && got.Suffix == sfx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeNSFuzz(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeNS(data)
		_, _ = DecodeSSNHeader(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

var (
	cli = netip.MustParseAddr("10.1.1.7")
	srv = netip.MustParseAddr("10.0.0.137")
)

func TestAnalyzerQueryFailure(t *testing.T) {
	a := NewAnalyzer()
	t0 := time.Unix(0, 0)
	a.Message(t0, cli, srv, &NSMessage{ID: 1, Op: OpQuery, Name: "GONE", Suffix: SuffixWorkstation})
	a.Message(t0, srv, cli, &NSMessage{ID: 1, Response: true, Op: OpQuery, Rcode: RcodeNXDomain, Name: "GONE"})
	a.Message(t0, cli, srv, &NSMessage{ID: 2, Op: OpQuery, Name: "HERE", Suffix: SuffixServer})
	a.Message(t0, srv, cli, &NSMessage{ID: 2, Response: true, Op: OpQuery, Rcode: RcodeNoError, Name: "HERE"})
	if got := a.FailureRate(); got != 0.5 {
		t.Errorf("failure rate = %v, want 0.5", got)
	}
	if a.Ops.Get("query") != 2 {
		t.Errorf("query ops = %d", a.Ops.Get("query"))
	}
	if a.NameTypes.Get("workstation/server") != 2 {
		t.Errorf("name types: %v", a.NameTypes.Entries())
	}
}

func TestAnalyzerRefreshNotInOutcome(t *testing.T) {
	a := NewAnalyzer()
	t0 := time.Unix(0, 0)
	a.Message(t0, cli, srv, &NSMessage{ID: 5, Op: OpRefresh, Name: "ME", Suffix: SuffixWorkstation})
	a.Message(t0, srv, cli, &NSMessage{ID: 5, Response: true, Op: OpRefresh, Rcode: RcodeNoError, Name: "ME"})
	if a.Rcodes.Total() != 0 {
		t.Error("refresh should not enter query outcome accounting")
	}
	if a.Ops.Get("refresh") != 1 {
		t.Error("refresh op not counted")
	}
}

func TestAnalyzerDeduplicatesRetries(t *testing.T) {
	a := NewAnalyzer()
	t0 := time.Unix(0, 0)
	for i := 0; i < 4; i++ {
		id := uint16(10 + i)
		a.Message(t0, cli, srv, &NSMessage{ID: id, Op: OpQuery, Name: "POPULAR", Suffix: SuffixServer})
		a.Message(t0, srv, cli, &NSMessage{ID: id, Response: true, Op: OpQuery, Rcode: RcodeNXDomain, Name: "POPULAR"})
	}
	if a.Rcodes.Get("NXDOMAIN") != 1 {
		t.Errorf("NXDOMAIN = %d, want 1", a.Rcodes.Get("NXDOMAIN"))
	}
}

func TestSSNAnalyzer(t *testing.T) {
	s := NewSSNAnalyzer()
	a1 := netip.MustParseAddr("10.1.1.1")
	a2 := netip.MustParseAddr("10.1.1.2")
	a3 := netip.MustParseAddr("10.1.1.3")
	a4 := netip.MustParseAddr("10.1.1.4")
	srv := netip.MustParseAddr("10.0.0.139")
	// pair 1: success
	s.Frame(a1, srv, SSNRequest)
	s.Frame(srv, a1, SSNPositiveResponse)
	// pair 2: rejected
	s.Frame(a2, srv, SSNRequest)
	s.Frame(srv, a2, SSNNegativeResponse)
	// pair 3: unanswered
	s.Frame(a3, srv, SSNRequest)
	// pair 4: rejected then succeeded on retry → success wins
	s.Frame(a4, srv, SSNRequest)
	s.Frame(srv, a4, SSNNegativeResponse)
	s.Frame(a4, srv, SSNRequest)
	s.Frame(srv, a4, SSNPositiveResponse)
	ok, rej, un, total := s.Summary()
	if ok != 2 || rej != 1 || un != 1 || total != 4 {
		t.Errorf("summary = %d/%d/%d/%d", ok, rej, un, total)
	}
}
