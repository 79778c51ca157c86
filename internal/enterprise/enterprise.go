// Package enterprise models the measured network: the LBNL-like site with
// two central routers, 18–22 subnets per dataset, thousands of internal
// hosts, designated application servers, remote (WAN) peers, and the
// paper's piecemeal tap-rotation methodology (each trace covers one subnet
// for the dataset's duration, seeing traffic to and from that subnet but
// not traffic that stays inside it).
//
// The five Config presets D0–D4 mirror Table 1: capture dates, durations,
// per-tap counts, subnet counts, and snap lengths, plus the vantage
// differences the paper repeatedly leans on — D0–D2 monitor the subnets
// holding the main SMTP/IMAP and user-authentication servers, while D3–D4
// monitor the subnets holding the main DNS and print servers instead.
//
// Everything here is static topology shared by the generator and the
// analyzer; it carries no analysis state and so no Cut/Merge
// obligations. DESIGN.md § "System inventory" maps these types to the
// rest of the system.
package enterprise

import (
	"fmt"
	"net/netip"
	"time"

	"enttrace/internal/layers"
)

// Host is one addressable endpoint.
type Host struct {
	Addr   netip.Addr
	MAC    layers.MAC
	Subnet int // -1 for remote hosts
	Remote bool
}

// Role names for well-known servers.
const (
	RoleSMTP    = "smtp"
	RoleIMAP    = "imap"
	RoleDNS1    = "dns1"
	RoleDNS2    = "dns2"
	RoleNBNS1   = "nbns1"
	RoleNBNS2   = "nbns2"
	RoleWeb     = "web"
	RoleNFS     = "nfs"
	RoleNCP     = "ncp"
	RoleAuth    = "auth"  // NetLogon/LsaRPC domain controller
	RolePrint   = "print" // Spoolss print server
	RoleBackupV = "veritas"
	RoleBackupD = "dantz"
	RoleFTP     = "ftp"
	RoleEPM     = "epm"
)

// Well-known subnet indexes for server placement. The monitored-subnet
// lists in the D0–D4 configs are chosen around these to reproduce the
// paper's vantage effects.
const (
	SubnetMail  = 0  // main SMTP + IMAP servers (monitored in D0–D2)
	SubnetAuth  = 1  // domain controller (monitored in D0–D2)
	SubnetDNS   = 30 // main DNS + Netbios/NS servers (monitored in D3–D4)
	SubnetPrint = 31 // print server (monitored in D3–D4)
)

// Config describes one dataset's capture campaign.
type Config struct {
	Name     string
	Date     time.Time
	Duration time.Duration // per-trace duration
	PerTap   int           // traces per monitored subnet
	Snaplen  uint32
	// Monitored lists the subnet indexes traced, in rotation order.
	Monitored []int
	// HostsPerSubnet is the number of client hosts in each subnet.
	HostsPerSubnet int
	// Scale multiplies workload volume (sessions per trace). 1.0 is the
	// default laptop-scale reproduction (≈10⁵ packets per dataset).
	Scale float64
	// Seed drives all randomness; datasets are fully deterministic.
	Seed int64
	// IMAPSecure reflects the D0→D1 policy change from IMAP4 to IMAP/S.
	IMAPSecure bool
}

func dsDate(s string) time.Time {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(err)
	}
	return t.UTC()
}

func monitoredRange(lo, hi int, extra ...int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return append(out, extra...)
}

// D0 is the 10-minute full-packet dataset (2004-10-04).
func D0() Config {
	return Config{
		Name: "D0", Date: dsDate("2004-10-04"),
		Duration: 10 * time.Minute, PerTap: 1, Snaplen: 1500,
		Monitored:      monitoredRange(0, 21), // includes mail+auth subnets
		HostsPerSubnet: 110,
		Scale:          1.0,
		Seed:           40,
		IMAPSecure:     false,
	}
}

// D1 is the first 1-hour header-only dataset (2004-12-15), two traces per
// tap.
func D1() Config {
	return Config{
		Name: "D1", Date: dsDate("2004-12-15"),
		Duration: time.Hour, PerTap: 2, Snaplen: 68,
		Monitored:      monitoredRange(0, 21),
		HostsPerSubnet: 95,
		Scale:          1.0,
		Seed:           41,
		IMAPSecure:     true,
	}
}

// D2 is the second 1-hour header-only dataset (2004-12-16).
func D2() Config {
	return Config{
		Name: "D2", Date: dsDate("2004-12-16"),
		Duration: time.Hour, PerTap: 1, Snaplen: 68,
		Monitored:      monitoredRange(0, 21),
		HostsPerSubnet: 95,
		Scale:          1.0,
		Seed:           42,
		IMAPSecure:     true,
	}
}

// D3 is the first full-packet 1-hour dataset (2005-01-06): 18 subnets
// including the DNS and print-server subnets, excluding mail and auth.
func D3() Config {
	return Config{
		Name: "D3", Date: dsDate("2005-01-06"),
		Duration: time.Hour, PerTap: 1, Snaplen: 1500,
		Monitored:      monitoredRange(2, 17, SubnetDNS, SubnetPrint),
		HostsPerSubnet: 87,
		Scale:          1.0,
		Seed:           43,
		IMAPSecure:     true,
	}
}

// D4 is the second full-packet 1-hour dataset (2005-01-07).
func D4() Config {
	return Config{
		Name: "D4", Date: dsDate("2005-01-07"),
		Duration: time.Hour, PerTap: 1, Snaplen: 1500,
		Monitored:      monitoredRange(2, 17, SubnetDNS, SubnetPrint),
		HostsPerSubnet: 87,
		Scale:          1.0,
		Seed:           44,
		IMAPSecure:     true,
	}
}

// AllDatasets returns D0–D4 in order.
func AllDatasets() []Config {
	return []Config{D0(), D1(), D2(), D3(), D4()}
}

// DatasetByName returns the preset called name (D0..D4).
func DatasetByName(name string) (Config, bool) {
	for _, c := range AllDatasets() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// Network instantiates the address plan for a Config.
type Network struct {
	cfg     Config
	clients map[int][]Host // subnet → client hosts
	servers map[string]Host
}

// EnterprisePrefix is the site's address block.
var EnterprisePrefix = netip.MustParsePrefix("128.3.0.0/16")

// NewNetwork builds the host plan for a dataset.
func NewNetwork(cfg Config) *Network {
	n := &Network{cfg: cfg, clients: make(map[int][]Host), servers: make(map[string]Host)}
	allSubnets := append(append([]int{}, cfg.Monitored...), SubnetMail, SubnetAuth, SubnetDNS, SubnetPrint)
	seen := make(map[int]bool)
	for _, s := range allSubnets {
		if seen[s] {
			continue
		}
		seen[s] = true
		for h := 0; h < cfg.HostsPerSubnet; h++ {
			n.clients[s] = append(n.clients[s], makeHost(s, 10+h))
		}
	}
	// Servers get low host numbers in their home subnets.
	place := func(role string, subnet, hostNum int) {
		n.servers[role] = makeHost(subnet, hostNum)
	}
	place(RoleSMTP, SubnetMail, 2)
	place(RoleIMAP, SubnetMail, 3)
	place(RoleAuth, SubnetAuth, 2)
	place(RoleEPM, SubnetAuth, 2) // EPM lives on the DC
	place(RoleDNS1, SubnetDNS, 2)
	place(RoleDNS2, SubnetDNS, 3)
	place(RoleNBNS1, SubnetDNS, 4)
	place(RoleNBNS2, SubnetDNS, 5)
	place(RolePrint, SubnetPrint, 2)
	// Generic servers spread over ordinary subnets.
	place(RoleWeb, 5, 2)
	place(RoleNFS, 6, 2)
	place(RoleNCP, 7, 2)
	place(RoleBackupV, 8, 2)
	place(RoleBackupD, 9, 2)
	place(RoleFTP, 10, 2)
	return n
}

func makeHost(subnet, num int) Host {
	addr := netip.AddrFrom4([4]byte{128, 3, byte(subnet), byte(num)})
	return Host{
		Addr:   addr,
		MAC:    layers.MAC{0x00, 0x0d, 0x93, byte(subnet), byte(num >> 8), byte(num)},
		Subnet: subnet,
	}
}

// Config returns the dataset configuration.
func (n *Network) Config() Config { return n.cfg }

// Clients returns the client hosts of a subnet.
func (n *Network) Clients(subnet int) []Host { return n.clients[subnet] }

// Server returns the host playing a role.
func (n *Network) Server(role string) Host {
	h, ok := n.servers[role]
	if !ok {
		panic(fmt.Sprintf("enterprise: unknown role %q", role))
	}
	return h
}

// ServerSubnet reports which subnet a role's server lives in.
func (n *Network) ServerSubnet(role string) int { return n.Server(role).Subnet }

// InternalHost fabricates an enterprise host by subnet and host number,
// for traffic whose far endpoint lies in an unmonitored subnet.
func InternalHost(subnet, num int) Host { return makeHost(subnet, num) }

// KnownScanners returns the site's two internal vulnerability scanners,
// which the paper removes by name rather than by heuristic.
func KnownScanners() []netip.Addr {
	return []netip.Addr{
		InternalHost(20, 4).Addr,
		InternalHost(21, 4).Addr,
	}
}

// RemoteHost deterministically fabricates the i-th WAN host.
func RemoteHost(i int) Host {
	// Spread across several plausible external /16s.
	blocks := [][2]byte{{131, 243}, {198, 128}, {64, 233}, {171, 64}, {18, 7}, {204, 99}}
	b := blocks[i%len(blocks)]
	return Host{
		Addr:   netip.AddrFrom4([4]byte{b[0], b[1], byte(i / 250 % 250), byte(2 + i%250)}),
		MAC:    layers.MAC{0x00, 0x30, 0x48, 0xff, byte(i >> 8), byte(i)}, // the border router's MAC in practice
		Subnet: -1,
		Remote: true,
	}
}

// IsLocal reports whether an address is inside the enterprise.
func IsLocal(a netip.Addr) bool { return EnterprisePrefix.Contains(a) }

// SubnetPrefix returns the /24 prefix of a subnet.
func SubnetPrefix(subnet int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{128, 3, byte(subnet), 0}), 24)
}
