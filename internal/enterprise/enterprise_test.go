package enterprise

import (
	"net/netip"
	"testing"
)

func TestDatasetPresetsMatchTable1(t *testing.T) {
	cases := []struct {
		cfg      Config
		duration string
		perTap   int
		subnets  int
		snaplen  uint32
	}{
		{D0(), "10m0s", 1, 22, 1500},
		{D1(), "1h0m0s", 2, 22, 68},
		{D2(), "1h0m0s", 1, 22, 68},
		{D3(), "1h0m0s", 1, 18, 1500},
		{D4(), "1h0m0s", 1, 18, 1500},
	}
	for _, c := range cases {
		if got := c.cfg.Duration.String(); got != c.duration {
			t.Errorf("%s duration = %s, want %s", c.cfg.Name, got, c.duration)
		}
		if c.cfg.PerTap != c.perTap {
			t.Errorf("%s perTap = %d", c.cfg.Name, c.cfg.PerTap)
		}
		if len(c.cfg.Monitored) != c.subnets {
			t.Errorf("%s subnets = %d, want %d", c.cfg.Name, len(c.cfg.Monitored), c.subnets)
		}
		if c.cfg.Snaplen != c.snaplen {
			t.Errorf("%s snaplen = %d", c.cfg.Name, c.cfg.Snaplen)
		}
	}
}

func TestVantageDifferences(t *testing.T) {
	contains := func(cfg Config, subnet int) bool {
		for _, s := range cfg.Monitored {
			if s == subnet {
				return true
			}
		}
		return false
	}
	for _, cfg := range []Config{D0(), D1(), D2()} {
		if !contains(cfg, SubnetMail) || !contains(cfg, SubnetAuth) {
			t.Errorf("%s should monitor mail and auth subnets", cfg.Name)
		}
		if contains(cfg, SubnetDNS) || contains(cfg, SubnetPrint) {
			t.Errorf("%s should not monitor DNS/print subnets", cfg.Name)
		}
	}
	for _, cfg := range []Config{D3(), D4()} {
		if contains(cfg, SubnetMail) || contains(cfg, SubnetAuth) {
			t.Errorf("%s should not monitor mail/auth subnets", cfg.Name)
		}
		if !contains(cfg, SubnetDNS) || !contains(cfg, SubnetPrint) {
			t.Errorf("%s should monitor DNS and print subnets", cfg.Name)
		}
	}
}

func TestIMAPPolicyChange(t *testing.T) {
	if D0().IMAPSecure {
		t.Error("D0 predates the IMAP/S policy")
	}
	for _, cfg := range []Config{D1(), D2(), D3(), D4()} {
		if !cfg.IMAPSecure {
			t.Errorf("%s should use IMAP/S", cfg.Name)
		}
	}
}

func TestNetworkHostPlan(t *testing.T) {
	n := NewNetwork(D0())
	c := n.Clients(0)
	if len(c) != D0().HostsPerSubnet {
		t.Fatalf("subnet 0 has %d clients", len(c))
	}
	seen := make(map[netip.Addr]bool)
	for _, h := range c {
		if seen[h.Addr] {
			t.Fatalf("duplicate address %v", h.Addr)
		}
		seen[h.Addr] = true
		if !SubnetPrefix(0).Contains(h.Addr) {
			t.Errorf("host %v not in subnet 0", h.Addr)
		}
		if !IsLocal(h.Addr) {
			t.Errorf("client %v not local", h.Addr)
		}
	}
}

func TestServersDistinct(t *testing.T) {
	n := NewNetwork(D3())
	roles := []string{RoleSMTP, RoleIMAP, RoleDNS1, RoleDNS2, RoleNBNS1, RoleNBNS2, RoleWeb, RoleNFS, RoleNCP, RoleAuth, RolePrint, RoleBackupV, RoleBackupD, RoleFTP}
	seen := make(map[netip.Addr]string)
	for _, r := range roles {
		h := n.Server(r)
		if prev, dup := seen[h.Addr]; dup && prev != r {
			// EPM intentionally shares the DC.
			if !(r == RoleEPM || prev == RoleEPM) {
				t.Errorf("roles %s and %s share %v", prev, r, h.Addr)
			}
		}
		seen[h.Addr] = r
		if !IsLocal(h.Addr) {
			t.Errorf("server %s not local", r)
		}
	}
	if n.ServerSubnet(RoleSMTP) != SubnetMail || n.ServerSubnet(RolePrint) != SubnetPrint {
		t.Error("server placement wrong")
	}
}

func TestUnknownRolePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown role should panic")
		}
	}()
	NewNetwork(D0()).Server("nonexistent")
}

func TestRemoteHosts(t *testing.T) {
	seen := make(map[netip.Addr]bool)
	for i := 0; i < 1000; i++ {
		h := RemoteHost(i)
		if IsLocal(h.Addr) {
			t.Fatalf("remote host %v is local", h.Addr)
		}
		if !h.Remote || h.Subnet != -1 {
			t.Fatalf("remote host fields: %+v", h)
		}
		seen[h.Addr] = true
	}
	if len(seen) < 900 {
		t.Errorf("only %d distinct remote hosts in 1000", len(seen))
	}
	// Determinism.
	if RemoteHost(5) != RemoteHost(5) {
		t.Error("remote hosts must be deterministic")
	}
}

func TestSubnetHelpers(t *testing.T) {
	a := netip.MustParseAddr("128.3.7.22")
	if !SubnetPrefix(7).Contains(a) || SubnetPrefix(6).Contains(a) {
		t.Error("prefix mismatch")
	}
	if remote := netip.MustParseAddr("8.8.8.8"); IsLocal(remote) {
		t.Errorf("%v is local", remote)
	}
}
