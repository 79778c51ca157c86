package core

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"enttrace/internal/categories"
	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/gen"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
	"enttrace/internal/stats"
)

// perPacketCensus is the reference the per-connection census must equal:
// the host sets and the network-layer counter as the sink used to build
// them, from every frame, through a string-keyed counter and the address
// maps.
type perPacketCensus struct {
	monitored                         netip.Prefix
	netLayer                          *stats.Counter
	monHosts, localHosts, remoteHosts map[netip.Addr]struct{}
}

func newPerPacketCensus(monitored netip.Prefix) *perPacketCensus {
	return &perPacketCensus{
		monitored:   monitored,
		netLayer:    stats.NewCounter(),
		monHosts:    make(map[netip.Addr]struct{}),
		localHosts:  make(map[netip.Addr]struct{}),
		remoteHosts: make(map[netip.Addr]struct{}),
	}
}

func (c *perPacketCensus) countNetLayer(p *layers.Packet) {
	switch {
	case p.Layers.Has(layers.LayerIPv4), p.Layers.Has(layers.LayerIPv6):
		c.netLayer.Inc("IP")
	case p.Layers.Has(layers.LayerARP):
		c.netLayer.Inc("ARP")
	case p.Layers.Has(layers.LayerIPX):
		c.netLayer.Inc("IPX")
	default:
		c.netLayer.Inc("Other")
	}
}

func (c *perPacketCensus) recordHosts(p *layers.Packet) {
	record := func(addr netip.Addr) {
		if !addr.IsValid() || addr.IsMulticast() {
			return
		}
		switch {
		case c.monitored.Contains(addr):
			c.monHosts[addr] = struct{}{}
			c.localHosts[addr] = struct{}{}
		case enterprise.IsLocal(addr):
			c.localHosts[addr] = struct{}{}
		default:
			c.remoteHosts[addr] = struct{}{}
		}
	}
	if src, ok := p.NetSrc(); ok {
		record(src)
	}
	if dst, ok := p.NetDst(); ok {
		record(dst)
	}
}

// censusPair feeds one shard's callbacks to the real sink and to the
// reference, and notes where each connection's first packet came from so
// the test can tell that a reorientation happened.
type censusPair struct {
	sink     *shardSink
	ref      *perPacketCensus
	firstSrc map[*flows.Conn]netip.Addr
}

func (c *censusPair) Packet(idx int64, pk *pcap.Packet, p *layers.Packet, conn *flows.Conn, dir flows.Dir) {
	c.ref.countNetLayer(p)
	c.ref.recordHosts(p)
	if conn != nil && idx == conn.FirstIdx {
		c.firstSrc[conn], _ = p.NetSrc()
	}
	c.sink.Packet(idx, pk, p, conn, dir)
}

func (c *censusPair) Undecodable(idx int64) {
	c.ref.netLayer.Inc("undecodable")
	c.sink.Undecodable(idx)
}

func (c *censusPair) Publish(through int64, more bool) { c.sink.Publish(through, more) }

// testFeed is the feed into a throwaway analyzer's replay shards, for
// tests that drive the packet stage themselves at that analyzer's width,
// ready for one trace: the caller calls finish after it.
func testFeed(opts Options) *traceFeed {
	f := NewAnalyzer(opts).ensureFeed()
	f.start(opts.KnownScanners, opts.PayloadAnalysis)
	return f
}

// censusStats is what one compared run exercised.
type censusStats struct {
	packets    int64
	conns      int
	reoriented int
	classes    map[string]int64
}

// compareCensus runs pkts through the packet stage at the given width and
// flow-table configuration and requires, shard by shard, that the sink's
// census equals the per-packet reference: the same three host sets, and a
// network-layer counter with the same keys and the same values.
func compareCensus(t *testing.T, label string, prefix netip.Prefix, pkts []*pcap.Packet, workers int, fcfg flows.Config, payload bool) censusStats {
	t.Helper()
	opts := Options{PayloadAnalysis: payload, Workers: workers}
	registry := categories.NewRegistry()
	feed := testFeed(opts)
	defer feed.finish()
	var pairs []*censusPair
	res, err := pipeline.Run(pcap.NewSliceSource(pkts), pipeline.Config{
		Workers: workers,
		Flows:   fcfg,
		NewSink: func(shard int, base time.Time) pipeline.Sink {
			p := &censusPair{
				sink:     newShardSink(&opts, registry, prefix, base, feed, shard),
				ref:      newPerPacketCensus(prefix),
				firstSrc: make(map[*flows.Conn]netip.Addr),
			}
			pairs = append(pairs, p)
			return p
		},
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	st := censusStats{packets: res.Packets, classes: make(map[string]int64)}
	for shard, p := range pairs {
		got := stats.NewCounter()
		p.sink.foldNetLayer(got)
		if !reflect.DeepEqual(countsOf(got), countsOf(p.ref.netLayer)) {
			t.Errorf("%s shard %d: net-layer counter %v, per-packet reference %v", label, shard, got, p.ref.netLayer)
		}
		for _, e := range got.Entries() {
			st.classes[e.Key] += e.N
		}
		for _, set := range []struct {
			name      string
			got, want map[netip.Addr]struct{}
		}{
			{"monitored", p.sink.monHosts, p.ref.monHosts},
			{"local", p.sink.localHosts, p.ref.localHosts},
			{"remote", p.sink.remoteHosts, p.ref.remoteHosts},
		} {
			if !reflect.DeepEqual(set.got, set.want) {
				t.Errorf("%s shard %d: %s hosts: per-connection census has %d, per-packet reference %d",
					label, shard, set.name, len(set.got), len(set.want))
			}
		}
		for conn, src := range p.firstSrc {
			if conn.Key.Src != src {
				st.reoriented++
			}
		}
		for _, rec := range res.Shards[shard].Conns {
			if app := connStreamsOf(rec.Conn); app != nil {
				app.release()
			}
		}
		st.conns += len(res.Shards[shard].Conns)
	}
	return st
}

// synLessStart rewrites a trace as a capture that began a moment too late
// would have seen it: every TCP handshake loses its place to the reply, so
// the first packet of each such connection comes from the responder and
// the (retransmitted-looking) SYN follows it. Timestamps stay where they
// were; only the frames trade places.
func synLessStart(pkts []*pcap.Packet) []*pcap.Packet {
	out := make([]*pcap.Packet, len(pkts))
	for i, p := range pkts {
		cp := *p
		out[i] = &cp
	}
	type pending struct {
		at  int
		key layers.FlowKey
	}
	var syns []pending
	var p layers.Packet
	for i, pk := range out {
		if layers.Decode(pk.Data, pk.OrigLen, &p) != nil || !p.Layers.Has(layers.LayerTCP) {
			continue
		}
		key, _ := layers.FlowKeyOf(&p)
		switch p.TCP.Flags & (layers.TCPSyn | layers.TCPAck) {
		case layers.TCPSyn:
			syns = append(syns, pending{at: i, key: key})
		case layers.TCPSyn | layers.TCPAck:
			for j, s := range syns {
				if s.key == key.Reverse() {
					a, b := out[s.at], out[i]
					a.Data, b.Data = b.Data, a.Data
					a.OrigLen, b.OrigLen = b.OrigLen, a.OrigLen
					syns = append(syns[:j], syns[j+1:]...)
					break
				}
			}
		}
	}
	return out
}

// countedAs is what a Counter counts: every key's count and the total,
// whatever order the keys came in (the per-packet reference meets the
// classes in packet order, the sink folds them in class order).
type countedAs struct {
	counts map[string]int64
	total  int64
}

func countsOf(c *stats.Counter) countedAs {
	out := countedAs{total: c.Total()}
	if entries := c.Entries(); entries != nil {
		out.counts = make(map[string]int64, len(entries))
		for _, e := range entries {
			out.counts[e.Key] = e.N
		}
	}
	return out
}

// TestPerConnectionCensusMatchesPerPacket pins that taking the host
// census once per connection and counting network-layer classes in
// integers loses nothing against doing both on every packet — over all
// five datasets, every evasion scenario (trunc-headers brings runts, bad
// IHL, fragments, ARP and both IPX encapsulations), idle eviction
// splitting flows into several connections, and a capture that starts
// without its SYNs so connections reorient after their first packet.
func TestPerConnectionCensusMatchesPerPacket(t *testing.T) {
	total := censusStats{classes: make(map[string]int64)}
	add := func(st censusStats) {
		total.packets += st.packets
		total.conns += st.conns
		total.reoriented += st.reoriented
		for k, v := range st.classes {
			total.classes[k] += v
		}
	}

	for _, cfg := range enterprise.AllDatasets() {
		cfg.Scale = 0.05
		cfg.Monitored = cfg.Monitored[:2]
		cfg.PerTap = 1
		payload := cfg.Snaplen >= 1500
		for _, tr := range gen.GenerateDataset(cfg).Traces {
			for _, workers := range []int{1, 4} {
				add(compareCensus(t, cfg.Name, tr.Prefix, tr.Packets, workers, flows.Config{}, payload))
			}
			// A one-second horizon cuts any flow with a pause into several
			// connections, each of which takes the census again.
			whole := compareCensus(t, cfg.Name+"/whole", tr.Prefix, tr.Packets, 4, flows.Config{}, payload)
			split := compareCensus(t, cfg.Name+"/idle-evict", tr.Prefix, tr.Packets, 4, flows.Config{IdleTimeout: time.Second}, payload)
			if split.conns <= whole.conns {
				t.Errorf("%s: idle eviction split nothing (%d connections with it, %d without)", cfg.Name, split.conns, whole.conns)
			}
			st := compareCensus(t, cfg.Name+"/syn-less", tr.Prefix, synLessStart(tr.Packets), 4, flows.Config{}, payload)
			if st.reoriented == 0 {
				t.Errorf("%s: the SYN-less capture reoriented no connection", cfg.Name)
			}
			add(st)
		}
	}

	for _, sc := range gen.EvasionScenarios() {
		tr := sc.Build()
		for _, workers := range []int{1, 4} {
			st := compareCensus(t, sc.Name, tr.Prefix, tr.Packets, workers, flows.Config{}, true)
			if sc.Expect.Undecodable && st.classes["undecodable"] == 0 {
				t.Errorf("%s: no undecodable frame reached the census", sc.Name)
			}
			add(st)
		}
	}

	for _, class := range []string{"IP", "ARP", "IPX", "undecodable"} {
		if total.classes[class] == 0 {
			t.Errorf("no %s frame in any input: the comparison never exercised that class", class)
		}
	}
	t.Logf("%d packets, %d connections (%d reoriented), classes %v", total.packets, total.conns, total.reoriented, total.classes)
}
