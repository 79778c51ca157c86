package categories

import (
	"net/netip"
	"testing"

	"enttrace/internal/layers"
)

// Test endpoints: classification is host-scoped for dynamic entries, so
// the tests name a client, a server, and an unrelated third host.
var (
	tClient = netip.AddrFrom4([4]byte{128, 3, 2, 10})
	tServer = netip.AddrFrom4([4]byte{128, 3, 7, 5})
	tOther  = netip.AddrFrom4([4]byte{128, 3, 9, 9})
)

func TestClassifyWellKnown(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		transport         uint8
		orig, resp        uint16
		wantName, wantCat string
	}{
		{layers.ProtoTCP, 40000, 80, "HTTP", Web},
		{layers.ProtoTCP, 40000, 443, "HTTPS", Web},
		{layers.ProtoTCP, 40000, 25, "SMTP", Email},
		{layers.ProtoTCP, 40000, 993, "IMAP/S", Email},
		{layers.ProtoUDP, 5353, 53, "DNS", Name},
		{layers.ProtoTCP, 40000, 53, "DNS", Name},
		{layers.ProtoUDP, 137, 137, "Netbios-NS", Name},
		{layers.ProtoTCP, 40000, 2049, "NFS", NetFile},
		{layers.ProtoUDP, 800, 2049, "NFS", NetFile},
		{layers.ProtoTCP, 40000, 524, "NCP", NetFile},
		{layers.ProtoTCP, 40000, 445, "CIFS", Windows},
		{layers.ProtoTCP, 40000, 139, "Netbios-SSN", Windows},
		{layers.ProtoTCP, 40000, 135, "DCE/RPC-EPM", Windows},
		{layers.ProtoTCP, 40000, 497, "Dantz", Backup},
		{layers.ProtoTCP, 40000, 13724, "Veritas-Data", Backup},
		{layers.ProtoTCP, 40000, 22, "SSH", Interactive},
		{layers.ProtoUDP, 40000, 123, "NTP", NetMgnt},
		{layers.ProtoUDP, 40000, 9875, "SAP", NetMgnt},
		{layers.ProtoTCP, 40000, 515, "LPD", Misc},
		{layers.ProtoTCP, 40000, 21, "FTP", Bulk},
	}
	for _, c := range cases {
		name, cat := r.Classify(c.transport, tClient, tServer, c.orig, c.resp)
		if name != c.wantName || cat != c.wantCat {
			t.Errorf("Classify(%d, %d, %d) = (%q, %q), want (%q, %q)",
				c.transport, c.orig, c.resp, name, cat, c.wantName, c.wantCat)
		}
	}
}

func TestClassifyUnknown(t *testing.T) {
	r := NewRegistry()
	if _, cat := r.Classify(layers.ProtoTCP, tClient, tServer, 45000, 49999); cat != OtherTCP {
		t.Errorf("unknown TCP → %q", cat)
	}
	if _, cat := r.Classify(layers.ProtoUDP, tClient, tServer, 45000, 49999); cat != OtherUDP {
		t.Errorf("unknown UDP → %q", cat)
	}
	if name, cat := r.Classify(layers.ProtoICMP, tClient, tServer, 0, 0); name != "" || cat != "" {
		t.Errorf("ICMP should be unclassified, got (%q, %q)", name, cat)
	}
}

func TestClassifyOriginatorPortFallback(t *testing.T) {
	r := NewRegistry()
	// FTP active data: server port 20 originates to an ephemeral port.
	name, cat := r.Classify(layers.ProtoTCP, tServer, tClient, 20, 40001)
	if name != "FTP" || cat != Bulk {
		t.Errorf("FTP data = (%q, %q)", name, cat)
	}
}

func TestUDPOnlyProtocolNotTCP(t *testing.T) {
	r := NewRegistry()
	// Netbios-NS is UDP-only in the registry; TCP 137 is other-tcp.
	if _, cat := r.Classify(layers.ProtoTCP, tClient, tServer, 40000, 137); cat != OtherTCP {
		t.Errorf("TCP 137 → %q, want other-tcp", cat)
	}
}

func TestDynamicRegistration(t *testing.T) {
	r := NewRegistry()
	if _, cat := r.Classify(layers.ProtoTCP, tClient, tServer, 40000, 1891); cat != OtherTCP {
		t.Fatal("port should start unknown")
	}
	r.Register(tServer, layers.ProtoTCP, 1891, "Spoolss", Windows)
	name, cat := r.Classify(layers.ProtoTCP, tClient, tServer, 40000, 1891)
	if name != "Spoolss" || cat != Windows {
		t.Errorf("dynamic = (%q, %q)", name, cat)
	}
	// Host-scoped: the same port on an unrelated host stays unknown, and
	// an ephemeral originator port colliding with the registered number
	// does not reclassify a connection to a different server.
	if _, cat := r.Classify(layers.ProtoTCP, tClient, tOther, 40000, 1891); cat != OtherTCP {
		t.Errorf("registration leaked to another host: %q", cat)
	}
	if _, cat := r.Classify(layers.ProtoTCP, tClient, tOther, 1891, 49999); cat != OtherTCP {
		t.Errorf("colliding originator port reclassified: %q", cat)
	}
	// The originator fallback still honors the registered host (active
	// FTP-style: the registered server originates the connection).
	if name, _ := r.Classify(layers.ProtoTCP, tServer, tClient, 1891, 49999); name != "Spoolss" {
		t.Errorf("originator-side dynamic lookup = %q", name)
	}
}

// WellKnown must name exactly what Classify resolves from the responder
// port alone, and a dynamic registration must never change that verdict:
// the analyzer retires a stream's bytes early on the strength of it.
func TestWellKnownIsTheFixedVerdict(t *testing.T) {
	r := NewRegistry()
	for _, tp := range []uint8{layers.ProtoTCP, layers.ProtoUDP} {
		for port := 1; port <= 0xFFFF; port++ {
			want, _ := r.Classify(tp, tClient, tServer, 0, uint16(port))
			if got := WellKnown(tp, uint16(port)); got != want {
				t.Fatalf("WellKnown(%d, %d) = %q, Classify says %q", tp, port, got, want)
			}
		}
	}
	r.Register(tServer, layers.ProtoTCP, 80, "Spoolss", Windows)
	r.Register(tClient, layers.ProtoTCP, 40000, "Spoolss", Windows)
	if name, _ := r.Classify(layers.ProtoTCP, tClient, tServer, 40000, 80); name != WellKnown(layers.ProtoTCP, 80) {
		t.Errorf("a dynamic registration overrode the responder's well-known port: %q", name)
	}
}

func TestPortOf(t *testing.T) {
	if got := WellKnown(layers.ProtoTCP, 25); got != "SMTP" {
		t.Errorf("WellKnown(TCP, 25) = %q, want SMTP", got)
	}
	for i := range wellKnown {
		if p := &wellKnown[i]; p.Name == "SMTP" && p.Ports[0] != 25 {
			t.Errorf("SMTP's first port is %d, want 25", p.Ports[0])
		}
	}
}

// protoCount is the number of well-known protocols in category.
func protoCount(category string) int {
	n := 0
	for i := range wellKnown {
		if wellKnown[i].Category == category {
			n++
		}
	}
	return n
}

func TestProtosByCategory(t *testing.T) {
	if n := protoCount(Email); n != 6 {
		t.Errorf("%d email protocols, want 6", n)
	}
}

func TestAllCategoriesCovered(t *testing.T) {
	// Every well-known protocol's category must appear in All.
	inAll := make(map[string]bool)
	for _, c := range All {
		inAll[c] = true
	}
	for _, cat := range []string{Backup, Bulk, Email, Interactive, Name, NetFile, NetMgnt, Streaming, Web, Windows, Misc} {
		if !inAll[cat] {
			t.Errorf("category %q missing from All", cat)
		}
		if protoCount(cat) == 0 {
			t.Errorf("category %q has no protocols", cat)
		}
	}
}

func TestNoPortCollisions(t *testing.T) {
	// Each (transport, port) resolves deterministically; building the
	// registry twice gives identical classifications for every well-known
	// port.
	r1, r2 := NewRegistry(), NewRegistry()
	for _, p := range [...]uint16{25, 53, 80, 137, 139, 443, 445, 524, 2049} {
		n1, c1 := r1.Classify(layers.ProtoTCP, tClient, tServer, 40000, p)
		n2, c2 := r2.Classify(layers.ProtoTCP, tClient, tServer, 40000, p)
		if n1 != n2 || c1 != c2 {
			t.Errorf("port %d classification unstable", p)
		}
	}
}
