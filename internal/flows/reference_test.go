package flows

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
)

// refTable is the flow table keyed the way it was before the live key:
// a map from the canonical layers.FlowKey, built per packet by FlowKeyOf
// and FlowKey.Canonical. Allocation, expiry and TCP tracking are the
// Table's own; the keying, and every method that reads the live map, are
// the old code.
type refTable struct {
	Table
	live map[layers.FlowKey]*Conn
}

func newRefTable(cfg Config) *refTable {
	return &refTable{Table: Table{cfg: cfg.withDefaults()}, live: make(map[layers.FlowKey]*Conn)}
}

func (t *refTable) Packet(ts time.Time, p *layers.Packet, wireLen int) (conn *Conn, dir Dir, isNew bool) {
	t.maybeSweep(ts)
	key, ok := layers.FlowKeyOf(p)
	if !ok {
		return nil, DirOrig, false
	}
	if p.Layers.Has(layers.LayerICMP) {
		// Echo exchanges pair request and reply into one flow by ID.
		key.SrcPort, key.DstPort = 0, 0
		if p.ICMP.Type == layers.ICMPEchoRequest || p.ICMP.Type == layers.ICMPEchoReply {
			key.SrcPort = p.ICMP.ID
			key.DstPort = p.ICMP.ID
		}
	}
	canon, flipped := key.Canonical()
	conn = t.live[canon]
	if conn != nil && t.expired(conn, ts) {
		t.finish(conn)
		conn = nil
	}
	isNew = conn == nil
	if isNew {
		conn = t.alloc()
		*conn = Conn{Key: key, Proto: key.Proto, Start: ts, Last: ts, flipped: flipped, ord: int64(len(t.conns) - 1)}
		if p.Eth.Dst.Multicast() {
			conn.Multicast = true
		}
		if dst, ok := p.NetDst(); ok && dst.Is4() && dst.IsMulticast() {
			conn.Multicast = true
		}
		t.live[canon] = conn
		t.enforceCap(conn)
	}
	if flipped != conn.flipped {
		dir = DirResp
	}
	conn.Last = ts
	conn.WireBytes += int64(wireLen)
	payload := int64(p.PayloadLen)
	if dir == DirOrig {
		conn.OrigPkts++
		conn.OrigBytes += payload
	} else {
		conn.RespPkts++
		conn.RespBytes += payload
	}
	if payload > 0 {
		conn.DataPkts++
	}
	if p.Layers.Has(layers.LayerTCP) {
		t.tcpUpdate(conn, dir, &p.TCP, p.PayloadLen)
	}
	return conn, dir, isNew
}

func (t *refTable) finish(c *Conn) {
	c.finished = true
	canon, _ := c.Key.Canonical()
	if t.live[canon] == c {
		delete(t.live, canon)
	}
}

func (t *refTable) sweep(now time.Time) {
	for _, c := range t.live {
		if now.Sub(c.Last) > t.cfg.IdleTimeout {
			t.finish(c)
			t.agedEvicted++
		}
	}
}

func (t *refTable) maybeSweep(now time.Time) {
	if t.cfg.IdleTimeout <= 0 {
		return
	}
	if t.lastSweep.IsZero() {
		t.lastSweep = now
		return
	}
	if now.Sub(t.lastSweep) >= t.cfg.IdleTimeout/2 {
		t.sweep(now)
		t.lastSweep = now
	}
}

func (t *refTable) enforceCap(just *Conn) {
	for t.cfg.MaxConns > 0 && len(t.live) > t.cfg.MaxConns {
		var victim *Conn
		for _, c := range t.live {
			if c == just {
				continue
			}
			if victim == nil || c.Last.Before(victim.Last) ||
				(c.Last.Equal(victim.Last) && (c.Start.Before(victim.Start) ||
					c.Start.Equal(victim.Start) && c.ord < victim.ord)) {
				victim = c
			}
		}
		if victim == nil {
			return
		}
		t.finish(victim)
		t.capEvicted++
	}
}

func (t *refTable) Flush() {
	for _, c := range t.live {
		c.finished = true
	}
	t.live = make(map[layers.FlowKey]*Conn)
}

func (t *refTable) Conns() []*Conn {
	if len(t.live) == 0 {
		return t.conns
	}
	done := make([]*Conn, 0, len(t.conns)-len(t.live))
	for _, c := range t.conns {
		if c.finished {
			done = append(done, c)
		}
	}
	return done
}

func (t *refTable) Live() int { return len(t.live) }

// differ feeds one frame stream through layers.Decode to a Table and to
// the reference, and fails at the first packet where the two disagree:
// the connection (by creation index), its direction, whether it is new,
// every field of it, the live count and the eviction counters.
type differ struct {
	tb           testing.TB
	got          *Table
	want         *refTable
	idx, wantIdx map[*Conn]int
	p            layers.Packet
	n            int
	keyPaths     map[string]bool
}

func newDiffer(tb testing.TB, cfg Config) *differ {
	return &differ{tb: tb, got: NewTable(cfg), want: newRefTable(cfg),
		idx: map[*Conn]int{}, wantIdx: map[*Conn]int{}, keyPaths: map[string]bool{}}
}

func (d *differ) frame(ts time.Time, frame []byte, origLen int) {
	d.tb.Helper()
	d.n++
	// A frame Decode rejects still reaches both tables: whatever layers
	// it did fill must key the same way.
	_ = layers.Decode(frame, origLen, &d.p)
	d.notePath()
	gc, gdir, gnew := d.got.Packet(ts, &d.p, origLen)
	wc, wdir, wnew := d.want.Packet(ts, &d.p, origLen)
	if (gc == nil) != (wc == nil) || gdir != wdir || gnew != wnew {
		d.tb.Fatalf("packet %d: (conn %v, %v, new %v), reference (conn %v, %v, new %v)",
			d.n, gc != nil, gdir, gnew, wc != nil, wdir, wnew)
	}
	if gc != nil {
		if gnew {
			d.idx[gc], d.wantIdx[wc] = len(d.idx), len(d.wantIdx)
		}
		if d.idx[gc] != d.wantIdx[wc] {
			d.tb.Fatalf("packet %d: connection #%d, reference #%d", d.n, d.idx[gc], d.wantIdx[wc])
		}
		if !reflect.DeepEqual(*gc, *wc) {
			d.tb.Fatalf("packet %d: connection\n %+v\nreference\n %+v", d.n, *gc, *wc)
		}
	}
	ga, gcap := d.got.EvictStats()
	wa, wcap := d.want.EvictStats()
	if d.got.Live() != d.want.Live() || ga != wa || gcap != wcap {
		d.tb.Fatalf("packet %d: live %d, evicted (%d, %d); reference live %d, evicted (%d, %d)",
			d.n, d.got.Live(), ga, gcap, d.want.Live(), wa, wcap)
	}
}

// notePath records which way the packet keys, so a test can show its
// input reached every path.
func (d *differ) notePath() {
	p := &d.p
	fam := ""
	switch {
	case p.Layers.Has(layers.LayerIPv4):
		fam = "ipv4"
	case p.Layers.Has(layers.LayerIPv6):
		fam = "ipv6"
	default:
		d.keyPaths["no addresses"] = true
		return
	}
	switch {
	case p.Layers.Has(layers.LayerTCP) || p.Layers.Has(layers.LayerUDP):
		d.keyPaths[fam+" ports"] = true
	case p.Layers.Has(layers.LayerICMP) && (p.ICMP.Type == layers.ICMPEchoRequest || p.ICMP.Type == layers.ICMPEchoReply):
		d.keyPaths[fam+" echo"] = true
	default:
		d.keyPaths[fam+" zero ports"] = true
	}
}

// finish compares Conns before and after Flush: the same connections,
// field for field, in the same order.
func (d *differ) finish() {
	d.tb.Helper()
	same := func(when string, got, want []*Conn) {
		if len(got) != len(want) {
			d.tb.Fatalf("%s: %d connections, reference %d", when, len(got), len(want))
		}
		for i := range got {
			if d.idx[got[i]] != d.wantIdx[want[i]] || !reflect.DeepEqual(*got[i], *want[i]) {
				d.tb.Fatalf("%s: connection %d differs\n %+v\nreference\n %+v", when, i, *got[i], *want[i])
			}
		}
	}
	same("before Flush", d.got.Conns(), d.want.Conns())
	d.got.Flush()
	d.want.Flush()
	same("after Flush", d.got.Conns(), d.want.Conns())
}

var (
	ip6A = netip.MustParseAddr("2001:db8::1")
	ip6B = netip.MustParseAddr("2001:db8::2")
	ip6C = netip.MustParseAddr("fe80::9")
	// ipA and ipB as IPv4-mapped IPv6 addresses: other hosts than theirs.
	ipAMapped = netip.AddrFrom16(ipA.As16())
	ipBMapped = netip.AddrFrom16(ipB.As16())
)

// asIPv6 rewrites an Ethernet/IPv4 frame with a 20-byte header as
// Ethernet/IPv6 with the same transport bytes; nothing in the flow table
// reads a checksum.
func asIPv6(v4 []byte, src, dst netip.Addr) []byte {
	body := v4[14+20:]
	f := make([]byte, 14+40+len(body))
	copy(f, v4[:12])
	binary.BigEndian.PutUint16(f[12:14], layers.EtherTypeIPv6)
	ip := f[14:]
	ip[0] = 6 << 4
	binary.BigEndian.PutUint16(ip[4:6], uint16(len(body)))
	ip[6], ip[7] = v4[14+9], 64
	s, d := src.As16(), dst.As16()
	copy(ip[8:24], s[:])
	copy(ip[24:40], d[:])
	copy(ip[40:], body)
	return f
}

// handFrame builds one frame of the mixed stream: TCP, UDP or ICMP over
// IPv4 or IPv6 between src and dst, with the given flags or ICMP type.
func handFrame(proto uint8, src, dst netip.Addr, sp, dp uint16, flags uint8, payload int) []byte {
	fo := layers.FrameOpts{SrcMAC: macA, DstMAC: macB, SrcIP: src, DstIP: dst}
	if !src.Is4() {
		fo.SrcIP, fo.DstIP = ipA, ipB // built as IPv4, rewritten below
	}
	var f []byte
	switch proto {
	case layers.ProtoTCP:
		f = layers.BuildTCP(layers.TCPOpts{FrameOpts: fo, SrcPort: sp, DstPort: dp, Seq: uint32(sp) * 1000, Flags: flags, Payload: make([]byte, payload)})
	case layers.ProtoUDP:
		f = layers.BuildUDP(layers.UDPOpts{FrameOpts: fo, SrcPort: sp, DstPort: dp, Payload: make([]byte, payload)})
	default:
		f = layers.BuildICMP(layers.ICMPOpts{FrameOpts: fo, Type: flags, ID: sp, Seq: dp, Payload: make([]byte, payload)})
	}
	if !src.Is4() {
		f = asIPv6(f, src, dst)
	}
	return f
}

// fragment sets an IPv4 frame's flags and fragment offset word: 0x2000
// makes it a first fragment (more fragments), 0x0020 a later one at
// offset 256.
func fragment(f []byte, word uint16) []byte {
	g := append([]byte(nil), f...)
	binary.BigEndian.PutUint16(g[14+6:14+8], word)
	return g
}

type stamped struct {
	ts      time.Time
	frame   []byte
	origLen int
}

// handStream is the cases no generator emits, as one stream of frames
// 50 ms apart: IPv6 flows, ICMP echo by ID and non-echo ICMP, later
// fragments and transport headers cut short by the snaplen (zero ports),
// self-addressed flows (the port tie-break), a late SYN that reorients
// its connection, UDP flows idle past their timeout, and IPv4 beside its
// IPv4-mapped IPv6 twin.
func handStream() []stamped {
	var out []stamped
	at := t0(0)
	add := func(f []byte, cut int) {
		orig := len(f)
		if cut > 0 && cut < len(f) {
			f = f[:cut]
		}
		out = append(out, stamped{at, f, orig})
		at = at.Add(50 * time.Millisecond)
	}
	tcp, udp, icmp := layers.ProtoTCP, layers.ProtoUDP, layers.ProtoICMP
	for _, pair := range [][2]netip.Addr{{ipA, ipB}, {ip6A, ip6B}, {ip6C, ip6A}, {ipAMapped, ipBMapped}} {
		a, b := pair[0], pair[1]
		// A handshake, data both ways, and a FIN.
		add(handFrame(tcp, a, b, 3000, 80, layers.TCPSyn, 0), 0)
		add(handFrame(tcp, b, a, 80, 3000, layers.TCPSyn|layers.TCPAck, 0), 0)
		add(handFrame(tcp, a, b, 3000, 80, layers.TCPAck, 100), 0)
		add(handFrame(tcp, b, a, 80, 3000, layers.TCPAck, 1400), 0)
		// Late SYN: the server speaks first.
		add(handFrame(tcp, b, a, 445, 3001, layers.TCPAck, 10), 0)
		add(handFrame(tcp, a, b, 3001, 445, layers.TCPSyn, 0), 0)
		add(handFrame(tcp, b, a, 445, 3001, layers.TCPSyn|layers.TCPAck, 0), 0)
		// UDP both ways, and ICMP echo by ID, both ways, then non-echo.
		add(handFrame(udp, a, b, 5000, 53, 0, 30), 0)
		add(handFrame(udp, b, a, 53, 5000, 0, 90), 0)
		add(handFrame(icmp, a, b, 7, 1, layers.ICMPEchoRequest, 56), 0)
		add(handFrame(icmp, b, a, 7, 1, layers.ICMPEchoReply, 56), 0)
		add(handFrame(icmp, a, b, 8, 1, layers.ICMPEchoRequest, 56), 0)
		add(handFrame(icmp, b, a, 0, 0, layers.ICMPUnreachable, 28), 0)
		add(handFrame(icmp, a, b, 0, 0, layers.ICMPTimeExceed, 28), 0)
		// Transport headers the snaplen cuts short: zero ports, and an
		// echo too short for its ID.
		hdr := 14 + 20
		if !a.Is4() {
			hdr = 14 + 40
		}
		add(handFrame(tcp, a, b, 3002, 139, layers.TCPSyn, 0), hdr+12)
		add(handFrame(tcp, b, a, 139, 3002, layers.TCPAck, 0), hdr+4)
		add(handFrame(udp, a, b, 5001, 137, 0, 50), hdr+6)
		add(handFrame(icmp, a, b, 9, 1, layers.ICMPEchoRequest, 56), hdr+6)
		add(handFrame(tcp, a, b, 3003, 80, layers.TCPAck, 0), hdr)
		// Self-addressed: the port decides the orientation.
		add(handFrame(tcp, a, a, 7, 5, layers.TCPAck, 1), 0)
		add(handFrame(tcp, a, a, 5, 7, layers.TCPAck, 1), 0)
		add(handFrame(udp, b, b, 9, 9, 0, 1), 0)
	}
	// Later fragments key with zero ports; a first fragment keeps them.
	frag := handFrame(udp, ipB, ipC, 2049, 800, 0, 1200)
	add(fragment(frag, 0x2000), 0)
	add(fragment(frag, 0x0020), 0)
	add(fragment(handFrame(udp, ipC, ipB, 800, 2049, 0, 600), 0x0020), 0)
	add(fragment(handFrame(tcp, ipA, ipC, 1, 2, layers.TCPAck, 600), 0x0020), 0)
	// UDP idle past its 30 s timeout splits; an echo past 10 s too.
	at = at.Add(31 * time.Second)
	add(handFrame(udp, ipA, ipB, 5000, 53, 0, 30), 0)
	add(handFrame(udp, ip6B, ip6A, 53, 5000, 0, 30), 0)
	add(handFrame(icmp, ipB, ipA, 7, 2, layers.ICMPEchoReply, 56), 0)
	// ARP forms no connection.
	add(layers.BuildARP(layers.ARPOpts{SrcMAC: macA, DstMAC: layers.Broadcast, Op: 1, SenderHW: macA, SenderIP: ipA, TargetIP: ipB}), 0)
	return out
}

// mixedStream is n frames at random over a small mixed IPv4/IPv6
// population — few enough endpoints that tuples recur — with gaps up to
// 4 s, so idle timeouts, the sweep and a small MaxConns all fire. A
// quarter of the gaps are zero, as in a burst of a real capture: then
// connections tie on their last and first packet times, and only creation
// order tells the MaxConns victim.
func mixedStream(seed int64, n int) []stamped {
	rng := rand.New(rand.NewSource(seed))
	hosts := []netip.Addr{ipA, ipB, ipC, ipAMapped}
	hosts6 := []netip.Addr{ip6A, ip6B, ip6C, ipAMapped}
	flags := []uint8{layers.TCPSyn, layers.TCPSyn | layers.TCPAck, layers.TCPAck, layers.TCPAck | layers.TCPFin, layers.TCPRst}
	icmpTypes := []uint8{layers.ICMPEchoRequest, layers.ICMPEchoReply, layers.ICMPUnreachable}
	var out []stamped
	at := t0(0)
	for i := 0; i < n; i++ {
		pool := hosts
		if rng.Intn(2) == 0 {
			pool = hosts6
		}
		a, b := pool[rng.Intn(3)], pool[rng.Intn(len(pool))]
		if a.Is4() != b.Is4() {
			b = a
		}
		sp, dp := uint16(1+rng.Intn(3)), uint16(1+rng.Intn(3))
		var f []byte
		switch rng.Intn(3) {
		case 0:
			f = handFrame(layers.ProtoTCP, a, b, sp, dp, flags[rng.Intn(len(flags))], rng.Intn(3))
		case 1:
			f = handFrame(layers.ProtoUDP, a, b, sp, dp, 0, rng.Intn(3))
		default:
			f = handFrame(layers.ProtoICMP, a, b, sp, dp, icmpTypes[rng.Intn(len(icmpTypes))], 8)
		}
		orig := len(f)
		if rng.Intn(8) == 0 {
			f = f[:14+rng.Intn(len(f)-14)]
		}
		out = append(out, stamped{at, f, orig})
		if rng.Intn(4) != 0 {
			at = at.Add(time.Duration(1+rng.Intn(4000)) * time.Millisecond)
		}
	}
	return out
}

var diffConfigs = []Config{
	{},
	{IdleTimeout: 3 * time.Second},
	{MaxConns: 5},
	{UDPTimeout: time.Second, ICMPTimeout: 2 * time.Second, IdleTimeout: 6 * time.Second, MaxConns: 7},
}

// TestTableMatchesReference holds the live key to the FlowKey-keyed table
// it replaced, packet by packet, over generated D0–D4 traces (D1 and D2
// keep 68 bytes a frame), the evasion scenarios, and the hand-built and
// random mixed streams no generator emits.
func TestTableMatchesReference(t *testing.T) {
	paths := map[string]bool{}
	var aged, capped int64
	run := func(name string, cfg Config, frames []stamped) {
		d := newDiffer(t, cfg)
		for _, f := range frames {
			d.frame(f.ts, f.frame, f.origLen)
		}
		a, c := d.got.EvictStats()
		aged, capped = aged+a, capped+c
		d.finish()
		for p := range d.keyPaths {
			paths[p] = true
		}
		if d.got.Live() != 0 || len(d.got.Conns()) == 0 {
			t.Fatalf("%s: %d connections, %d live after Flush", name, len(d.got.Conns()), d.got.Live())
		}
	}
	if !testing.Short() {
		for _, cfg := range enterprise.AllDatasets() {
			cfg.Scale = 0.05
			cfg.Monitored, cfg.PerTap = cfg.Monitored[:1], 1
			for _, tr := range gen.GenerateDataset(cfg).Traces {
				var frames []stamped
				for _, pk := range tr.Packets {
					frames = append(frames, stamped{pk.Timestamp, pk.Data, pk.OrigLen})
				}
				run(cfg.Name, Config{}, frames)
				run(cfg.Name+" aged", Config{IdleTimeout: 30 * time.Second}, frames)
			}
		}
	}
	for _, sc := range gen.EvasionScenarios() {
		var frames []stamped
		for _, pk := range sc.Build().Packets {
			frames = append(frames, stamped{pk.Timestamp, pk.Data, pk.OrigLen})
		}
		run(sc.Name, Config{}, frames)
	}
	for _, cfg := range diffConfigs {
		run("hand-built", cfg, handStream())
		for seed := int64(1); seed <= 4; seed++ {
			run("mixed", cfg, mixedStream(seed, 3000))
		}
	}
	if aged == 0 || capped == 0 {
		t.Errorf("the sweep evicted %d connections and the cap %d: input too tame", aged, capped)
	}
	for _, p := range []string{"ipv4 ports", "ipv4 echo", "ipv4 zero ports", "ipv6 ports", "ipv6 echo", "ipv6 zero ports", "no addresses"} {
		if !paths[p] {
			t.Errorf("no packet keyed by the %s path", p)
		}
	}
}

// FuzzTableMatchesReference runs fuzzed frame sequences through
// layers.Decode into both tables. The input is a config selector and
// records of (gap in 100 ms steps, bytes past the snaplen / 8, frame
// length, frame); a zero gap repeats the time, so connections can tie
// for the MaxConns victim.
func FuzzTableMatchesReference(f *testing.F) {
	encode := func(frames []stamped) []byte {
		var b []byte
		prev := frames[0].ts
		for _, s := range frames {
			if len(s.frame) > 255 {
				continue
			}
			gap := min(s.ts.Sub(prev)/(100*time.Millisecond), 255)
			b = append(b, byte(gap), byte(min((s.origLen-len(s.frame))/8, 255)), byte(len(s.frame)))
			b = append(b, s.frame...)
			prev = s.ts
		}
		return b
	}
	for i := range diffConfigs {
		f.Add(byte(i), encode(handStream()))
		f.Add(byte(i), encode(mixedStream(int64(i), 40)))
	}
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		d := newDiffer(t, diffConfigs[int(sel)%len(diffConfigs)])
		at := t0(0)
		for len(data) >= 3 {
			gap, extra, n := data[0], data[1], int(data[2])
			data = data[3:]
			if n > len(data) {
				n = len(data)
			}
			frame := data[:n:n]
			data = data[n:]
			at = at.Add(time.Duration(gap) * 100 * time.Millisecond)
			d.frame(at, frame, n+8*int(extra))
		}
		d.finish()
	})
}
