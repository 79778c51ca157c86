// Package categories is the paper's Table 4: the registry mapping
// application protocols to high-level categories, keyed by well-known
// transport ports. Both the traffic generator (choosing server ports) and
// the analyzer (classifying connections) use the same registry, so the
// category breakdown measured by the analyzer is an honest port-based
// classification, not generator ground truth.
//
// Ports for widely deployed protocols are their IANA assignments; ports
// for site-specific applications the paper names without numbers (HPSS,
// NAV-ping, Steltor, MetaSys, IPVideo, connected-backup) are fixed,
// documented stand-ins — the analyzer only needs generator and analyzer to
// agree, exactly as a Bro site configuration would.
//
// The registry is immutable after init — per-window category breakdowns
// come from the aggregate layer cutting its own counters, never from
// state here (DESIGN.md § "Epoch cuts and windowed reports").
package categories

import (
	"net/netip"
	"slices"
	"sync"

	"enttrace/internal/layers"
)

// Category names, matching Figure 1's x axis.
const (
	Backup      = "backup"
	Bulk        = "bulk"
	Email       = "email"
	Interactive = "interactive"
	Name        = "name"
	NetFile     = "net-file"
	NetMgnt     = "net-mgnt"
	Streaming   = "streaming"
	Web         = "web"
	Windows     = "windows"
	Misc        = "misc"
	OtherTCP    = "other-tcp"
	OtherUDP    = "other-udp"
)

// All lists the categories in the paper's plotting order.
var All = []string{
	Web, Email, NetFile, Backup, Bulk, Name, Interactive,
	Windows, Streaming, NetMgnt, Misc, OtherTCP, OtherUDP,
}

// Proto identifies one application protocol.
type Proto struct {
	Name      string
	Category  string
	Transport uint8 // layers.ProtoTCP or layers.ProtoUDP; 0 = both
	Ports     []uint16
}

// wellKnown is the static Table 4 registry.
var wellKnown = []Proto{
	// backup
	{Name: "Dantz", Category: Backup, Transport: layers.ProtoTCP, Ports: []uint16{497}},
	{Name: "Veritas-Ctrl", Category: Backup, Transport: layers.ProtoTCP, Ports: []uint16{13720, 13721, 13782}},
	{Name: "Veritas-Data", Category: Backup, Transport: layers.ProtoTCP, Ports: []uint16{13724}},
	{Name: "Connected-Backup", Category: Backup, Transport: layers.ProtoTCP, Ports: []uint16{16384}},
	// bulk
	{Name: "FTP", Category: Bulk, Transport: layers.ProtoTCP, Ports: []uint16{20, 21}},
	{Name: "HPSS", Category: Bulk, Transport: layers.ProtoTCP, Ports: []uint16{1217}},
	// email
	{Name: "SMTP", Category: Email, Transport: layers.ProtoTCP, Ports: []uint16{25}},
	{Name: "IMAP4", Category: Email, Transport: layers.ProtoTCP, Ports: []uint16{143}},
	{Name: "IMAP/S", Category: Email, Transport: layers.ProtoTCP, Ports: []uint16{993}},
	{Name: "POP3", Category: Email, Transport: layers.ProtoTCP, Ports: []uint16{110}},
	{Name: "POP/S", Category: Email, Transport: layers.ProtoTCP, Ports: []uint16{995}},
	{Name: "LDAP", Category: Email, Transport: 0, Ports: []uint16{389}},
	// interactive
	{Name: "SSH", Category: Interactive, Transport: layers.ProtoTCP, Ports: []uint16{22}},
	{Name: "telnet", Category: Interactive, Transport: layers.ProtoTCP, Ports: []uint16{23}},
	{Name: "rlogin", Category: Interactive, Transport: layers.ProtoTCP, Ports: []uint16{513}},
	{Name: "X11", Category: Interactive, Transport: layers.ProtoTCP, Ports: []uint16{6000, 6001, 6002, 6003}},
	// name
	{Name: "DNS", Category: Name, Transport: 0, Ports: []uint16{53}},
	{Name: "Netbios-NS", Category: Name, Transport: layers.ProtoUDP, Ports: []uint16{137}},
	{Name: "SrvLoc", Category: Name, Transport: 0, Ports: []uint16{427}},
	// net-file
	{Name: "NFS", Category: NetFile, Transport: 0, Ports: []uint16{2049}},
	{Name: "Portmapper", Category: NetFile, Transport: 0, Ports: []uint16{111}},
	{Name: "NCP", Category: NetFile, Transport: layers.ProtoTCP, Ports: []uint16{524}},
	// net-mgnt
	{Name: "DHCP", Category: NetMgnt, Transport: layers.ProtoUDP, Ports: []uint16{67, 68}},
	{Name: "ident", Category: NetMgnt, Transport: layers.ProtoTCP, Ports: []uint16{113}},
	{Name: "NTP", Category: NetMgnt, Transport: layers.ProtoUDP, Ports: []uint16{123}},
	{Name: "SNMP", Category: NetMgnt, Transport: layers.ProtoUDP, Ports: []uint16{161, 162}},
	{Name: "NAV-ping", Category: NetMgnt, Transport: layers.ProtoUDP, Ports: []uint16{38293}},
	{Name: "SAP", Category: NetMgnt, Transport: layers.ProtoUDP, Ports: []uint16{9875}},
	{Name: "NetInfo-local", Category: NetMgnt, Transport: 0, Ports: []uint16{1033}},
	// streaming
	{Name: "RTSP", Category: Streaming, Transport: layers.ProtoTCP, Ports: []uint16{554}},
	{Name: "IPVideo", Category: Streaming, Transport: layers.ProtoUDP, Ports: []uint16{5004}},
	{Name: "RealStream", Category: Streaming, Transport: 0, Ports: []uint16{7070}},
	// web
	{Name: "HTTP", Category: Web, Transport: layers.ProtoTCP, Ports: []uint16{80, 8080}},
	{Name: "HTTPS", Category: Web, Transport: layers.ProtoTCP, Ports: []uint16{443}},
	// windows
	{Name: "CIFS", Category: Windows, Transport: layers.ProtoTCP, Ports: []uint16{445}},
	{Name: "Netbios-SSN", Category: Windows, Transport: layers.ProtoTCP, Ports: []uint16{139}},
	{Name: "Netbios-DGM", Category: Windows, Transport: layers.ProtoUDP, Ports: []uint16{138}},
	{Name: "DCE/RPC-EPM", Category: Windows, Transport: 0, Ports: []uint16{135}},
	// misc
	{Name: "Steltor", Category: Misc, Transport: layers.ProtoTCP, Ports: []uint16{5729}},
	{Name: "MetaSys", Category: Misc, Transport: layers.ProtoUDP, Ports: []uint16{11001}},
	{Name: "LPD", Category: Misc, Transport: layers.ProtoTCP, Ports: []uint16{515}},
	{Name: "IPP", Category: Misc, Transport: layers.ProtoTCP, Ports: []uint16{631}},
	{Name: "Oracle-SQL", Category: Misc, Transport: layers.ProtoTCP, Ports: []uint16{1521}},
	{Name: "MS-SQL", Category: Misc, Transport: layers.ProtoTCP, Ports: []uint16{1433}},
}

type portKey struct {
	transport uint8
	port      uint16
}

// hostPortKey scopes a dynamic registration to the host that announced
// it. Endpoint-mapped and PASV ports are meaningful only on the server
// that advertised them; a port-global mapping would misclassify
// unrelated connections whose ephemeral ports happen to collide, and
// would make classification depend on which other taps' traffic the
// same process had already analyzed (breaking the fleet differential).
// Bro's dynamic protocol expectations are host-scoped the same way.
type hostPortKey struct {
	host      netip.Addr
	transport uint8
	port      uint16
}

// Registry resolves ports to protocols. It starts with the Table 4
// well-known set; the analyzer registers DCE/RPC endpoint-mapped and FTP
// PASV ephemeral ports dynamically, scoped to the announcing server, the
// way the paper's Bro analysis did.
type Registry struct {
	mu      sync.RWMutex
	byPort  map[portKey]*Proto
	dynamic map[hostPortKey]*Proto
}

// NewRegistry returns a registry loaded with Table 4.
func NewRegistry() *Registry {
	r := &Registry{byPort: make(map[portKey]*Proto), dynamic: make(map[hostPortKey]*Proto)}
	for i := range wellKnown {
		p := &wellKnown[i]
		for _, port := range p.Ports {
			if p.Transport == 0 {
				r.byPort[portKey{layers.ProtoTCP, port}] = p
				r.byPort[portKey{layers.ProtoUDP, port}] = p
			} else {
				r.byPort[portKey{p.Transport, port}] = p
			}
		}
	}
	return r
}

// Register adds a dynamic port mapping (e.g. a DCE/RPC service port
// learned from Endpoint Mapper traffic) scoped to the host the service
// lives on.
func (r *Registry) Register(host netip.Addr, transport uint8, port uint16, name, category string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dynamic[hostPortKey{host, transport, port}] = &Proto{Name: name, Category: category, Transport: transport, Ports: []uint16{port}}
}

// lookup finds a protocol for a single endpoint: the well-known table
// first, then dynamic registrations for that specific host.
func (r *Registry) lookup(host netip.Addr, transport uint8, port uint16) *Proto {
	if p, ok := r.byPort[portKey{transport, port}]; ok {
		return p
	}
	r.mu.RLock()
	p := r.dynamic[hostPortKey{host, transport, port}]
	r.mu.RUnlock()
	return p
}

// Classify resolves a connection to (protocol name, category). The
// responder (destination) endpoint is consulted first, then the
// originator (for cases like FTP data where the server is the
// originator). Unknown ports fall into other-tcp / other-udp;
// non-TCP/UDP transports return ("", "").
func (r *Registry) Classify(transport uint8, orig, resp netip.Addr, origPort, respPort uint16) (string, string) {
	if transport != layers.ProtoTCP && transport != layers.ProtoUDP {
		return "", ""
	}
	if p := r.lookup(resp, transport, respPort); p != nil {
		return p.Name, p.Category
	}
	if p := r.lookup(orig, transport, origPort); p != nil {
		return p.Name, p.Category
	}
	if transport == layers.ProtoTCP {
		return "", OtherTCP
	}
	return "", OtherUDP
}

// WellKnown returns the name the static Table 4 set gives a port, or ""
// if it gives none. Classify consults the responder's well-known port
// before anything else, so a connection whose responder port is
// well-known has this name whatever is registered dynamically later.
func WellKnown(transport uint8, port uint16) string {
	for i := range wellKnown {
		p := &wellKnown[i]
		if (p.Transport == 0 || p.Transport == transport) && slices.Contains(p.Ports, port) {
			return p.Name
		}
	}
	return ""
}
