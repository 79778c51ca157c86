package core

import (
	"net/netip"
	"time"

	"enttrace/internal/appproto/cifs"
	"enttrace/internal/appproto/http"
	"enttrace/internal/appproto/ncp"
	"enttrace/internal/appproto/smtp"
	"enttrace/internal/appproto/sunrpc"
	"enttrace/internal/categories"
	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/reassembly"
	"enttrace/internal/stats"
)

// bufferedProtos are the TCP protocols whose payloads are reassembled,
// with the per-direction byte limit replay sees: a stream parser stops
// reading there, a buffer stops growing. newConnStreams decides what each
// one's reassembled bytes are delivered into — for all but FTP, the
// Endpoint Mapper and dynamically mapped Spoolss that is a parser, when
// the responder's port fixes the name.
var bufferedProtos = map[string]int{
	"HTTP":        4 << 20,
	"FTP":         1 << 20,
	"SMTP":        1 << 20,
	"IMAP4":       1 << 20,
	"CIFS":        2 << 20,
	"Netbios-SSN": 2 << 20,
	"NCP":         2 << 20,
	"NFS":         2 << 20,
	"DCE/RPC-EPM": 1 << 20,
	"Spoolss":     1 << 20, // dynamically mapped DCE/RPC service ports
}

// unknownStreamLimit bounds reassembly for TCP connections the registry
// cannot classify when they attach. An unclassified ephemeral-port
// service may be registered later in the trace (DCE/RPC endpoint
// mapping, FTP PASV), so the stream is kept around for the
// deterministic replay to classify and parse. The limit matches the
// Spoolss entry above — the one dynamically mapped protocol the replay
// actually parses. This buffering is part of the streaming pipeline's
// main memory trade-off: up to 2 MB per unclassified high-port connection
// until trace end (see DESIGN.md §3).
const unknownStreamLimit = 1 << 20

// shardSink is the analysis layer's per-shard state: packet-level
// accumulators that merge cheaply after the run, plus the reassembled
// application streams and captured UDP messages that the deterministic
// replay consumes. It is owned by one pipeline worker; nothing here is
// shared while packets flow except through feed, to which the sink
// publishes its batch's connections and datagrams.
type shardSink struct {
	opts      *Options
	registry  *categories.Registry
	monitored netip.Prefix
	// baseSec and baseNsec are the trace's first packet time, fixed by the
	// router before any worker starts, as Unix seconds and nanoseconds:
	// the origin of bins.
	baseSec  int64
	baseNsec int
	feed     *traceFeed
	// shard is the sink's pipeline shard, in is its side of feed.
	shard int
	in    *feedIn

	// Packet-level accumulators (merged across shards in shard order).
	// netLayer counts frames per network-layer class; the host sets are
	// fed once per connection (see Packet).
	netLayer                          [numNetClasses]int64
	monHosts, localHosts, remoteHosts map[netip.Addr]struct{}
	// bins holds wire bytes per second since the trace's first packet.
	bins []int64
	// maxTS is this shard's event-time high-water mark; the trace
	// watermark (max across shards, read after all workers drain) drives
	// window completion in windowed mode.
	maxTS time.Time

	// The batch's connections and datagrams are in in, until Publish
	// hands them to feed. A connection's streams are not: its
	// connStreams hangs off its flows.Conn (the App slot) and reaches
	// replay with the connection.
	//
	// udpSlab is the open chunk of the storage the udp payloads are copied
	// into. A chunk is appended to and never regrown — a full one is left
	// to the payload slices that point into it — so those slices stay
	// valid and nothing but payload bytes is held.
	udpSlab []byte
}

// The udpSlab chunks double from udpSlabMin to udpSlabMax: a sink that
// captures a handful of datagrams holds about their bytes, one that
// captures thousands allocates rarely.
const (
	udpSlabMin = 1 << 10
	udpSlabMax = 64 << 10
)

// udpEvent is one captured datagram for an application protocol the
// paper parses per message (DNS, Netbios/NS, NFS-over-UDP).
type udpEvent struct {
	idx              int64
	ts               time.Time
	src, dst         netip.Addr
	srcPort, dstPort uint16
	// payload is the sink's own copy (a slice of its udpSlab).
	payload []byte
}

// connStreams reassembles one TCP connection's two directions and holds
// what replay needs of them: the parsed records alone where the protocol
// was known when the connection attached and its stream could be parsed
// as it arrived (http, smtp, cifs, ncp, nfs), the bytes themselves
// (cliBuf/srvBuf, or the EPM segment buffers) where replay must classify
// or register before it can parse, nothing where replay reads nothing.
// The streams are embedded by value (one allocation per connection), and
// every byte buffer underneath them is pooled: replayApps releases the
// whole structure back to the reassembly buffer pool at end of trace.
type connStreams struct {
	// buffered reports whether the streams below are live.
	buffered             bool
	cliStream, srvStream reassembly.Stream
	cliBuf, srvBuf       reassembly.BufferConsumer
	// At most one of these replaces the buffers, for a connection whose
	// protocol is fixed by its responder's well-known port: the streams
	// feed the two directions' parsers directly and no stream byte is
	// kept. cifs serves both framings (CIFS and Netbios-SSN).
	http *parserPair[http.StreamParser]
	smtp *parserPair[smtp.StreamParser]
	cifs *parserPair[cifs.StreamParser]
	ncp  *parserPair[ncp.StreamParser]
	nfs  *parserPair[sunrpc.StreamParser]
	// epmCli/epmSrv replace the buffers for Endpoint Mapper connections,
	// preserving gap boundaries so replay can resynchronize PDU parsing
	// exactly where the incremental parser would have.
	epmCli, epmSrv *segBuffer
	// released makes release idempotent. Every connection reaches replay
	// (the flow table surfaces evicted ones too) and is released there by
	// the one worker that owns its host pair.
	released bool
	// Hostile-input signals observed at packet time. rstSeen flags any
	// RST on the connection; bogusRST counts RSTs whose sequence number
	// disagrees with the receiver's reassembly cursor (the blind-reset /
	// evasion shape); postRSTData counts payload segments that keep
	// flowing after a RST was seen.
	rstSeen     bool
	bogusRST    int64
	postRSTData int64
}

func newShardSink(opts *Options, registry *categories.Registry, monitored netip.Prefix, base time.Time, feed *traceFeed, shard int) *shardSink {
	return &shardSink{
		opts:        opts,
		registry:    registry,
		monitored:   monitored,
		baseSec:     base.Unix(),
		baseNsec:    base.Nanosecond(),
		feed:        feed,
		shard:       shard,
		in:          feed.in[shard],
		monHosts:    make(map[netip.Addr]struct{}),
		localHosts:  make(map[netip.Addr]struct{}),
		remoteHosts: make(map[netip.Addr]struct{}),
	}
}

// The network-layer classes of Table 2, as indices into
// shardSink.netLayer, and the report's name for each.
const (
	netIP = iota
	netARP
	netIPX
	netOther
	netUndecodable
	numNetClasses
)

var netClassNames = [numNetClasses]string{"IP", "ARP", "IPX", "Other", "undecodable"}

// foldNetLayer adds the shard's frame counts to c. A class no frame fell
// in adds no key, as if it had never been incremented.
func (s *shardSink) foldNetLayer(c *stats.Counter) {
	for class, n := range s.netLayer {
		if n > 0 {
			c.Add(netClassNames[class], n)
		}
	}
}

// connStreamsOf returns the streams the sink hung on conn, or nil.
func connStreamsOf(conn *flows.Conn) *connStreams {
	app, _ := conn.App.(*connStreams)
	return app
}

// Undecodable implements pipeline.Sink.
func (s *shardSink) Undecodable(idx int64) {
	s.netLayer[netUndecodable]++
}

// Packet implements pipeline.Sink. pk may come from a recycled-buffer
// source, and is the source's again once this call returns: whatever
// outlives it is copied out of pk.Data (out-of-order TCP segments,
// buffered streams and split HTTP heads by reassembly and its consumers,
// UDP payloads by captureUDP), or a reused buffer would leak other
// packets' bytes into the analysis.
//
// Nothing here hashes per packet. The host census is taken when a
// connection is created: every later packet of it names the same two
// addresses, and a frame outside any connection is one that carries no
// network-layer address to record. A TCP connection's streams are found
// through conn.App.
func (s *shardSink) Packet(idx int64, pk *pcap.Packet, p *layers.Packet, conn *flows.Conn, dir flows.Dir) {
	s.netLayer[netClass(p)]++
	if conn != nil && idx == conn.FirstIdx {
		s.recordHost(conn.Key.Src)
		s.recordHost(conn.Key.Dst)
		s.in.batchConns = append(s.in.batchConns, fedConn{conn: conn, idx: idx,
			shard: int32(pairShard(conn.Key.Src, conn.Key.Dst, len(s.in.batchUDP))), settled: conn.Settled()})
	}
	s.bin(pk.Timestamp, pk.OrigLen)
	if pk.Timestamp.After(s.maxTS) {
		s.maxTS = pk.Timestamp
	}
	if !s.opts.PayloadAnalysis || conn == nil {
		return
	}
	if p.Layers.Has(layers.LayerUDP) {
		s.captureUDP(idx, pk, p)
		return
	}
	if !p.Layers.Has(layers.LayerTCP) {
		return
	}
	app := connStreamsOf(conn)
	if app == nil {
		name, _ := s.registry.Classify(conn.Proto, conn.Key.Src, conn.Key.Dst, conn.Key.SrcPort, conn.Key.DstPort)
		app = newConnStreams(name, conn, !s.opts.bufferStreams)
		conn.App = app
	}
	if len(p.Payload) > 0 && app.rstSeen {
		app.postRSTData++
	}
	if !app.buffered {
		if p.TCP.Flags&layers.TCPRst != 0 {
			app.rstSeen = true
		}
		return
	}
	stream := &app.cliStream
	if dir == flows.DirResp {
		stream = &app.srvStream
	}
	if p.TCP.Flags&layers.TCPRst != 0 {
		// A reset whose sequence number disagrees with the sender's own
		// stream cursor is the blind-reset evasion shape: an injected RST
		// would tear the monitor's state down while the endpoints (which
		// check sequence numbers) keep talking.
		if stream.Started() && p.TCP.Seq != stream.NextSeq() {
			app.bogusRST++
		}
		app.rstSeen = true
	}
	if p.TCP.Flags&layers.TCPSyn != 0 {
		stream.SetISN(p.TCP.Seq + 1)
		return
	}
	if len(p.Payload) > 0 {
		stream.Segment(p.TCP.Seq, p.Payload)
	}
}

// parserPair is the parse state of one connection's two directions.
type parserPair[P any] struct {
	cli, srv P
}

// nullConsumer reassembles a stream for its ledger alone.
type nullConsumer struct{}

func (nullConsumer) Data([]byte) {}
func (nullConsumer) Gap(int)     {}

// newConnStreams decides, from the attach-time classification, whether
// and how a connection's payload is kept for replay; parse allows stream
// parsers where the name is fixed.
func newConnStreams(name string, conn *flows.Conn, parse bool) *connStreams {
	app := &connStreams{}
	limit, buffered := bufferedProtos[name]
	// A name that comes from the responder's well-known port is the one
	// verdict no later dynamic registration can change (Classify looks
	// there first), so what replay will do with the stream is known now.
	// A name matched through the originator's port is not: such a stream
	// keeps its bytes for whatever replay classifies it as.
	fixed := parse && buffered && categories.WellKnown(conn.Proto, conn.Key.DstPort) == name
	switch {
	case name == "FTP" && conn.Key.DstPort == 21:
		// Control channel. Replay reads the server side before it
		// classifies any later connection, to register the PASV data
		// ports announced within the limit.
		app.buffer(limit)
	case name == "DCE/RPC-EPM":
		app.epmCli = &segBuffer{room: limit}
		app.epmSrv = &segBuffer{room: limit}
		app.consume(app.epmCli, app.epmSrv)
	case fixed && name == "HTTP":
		// Replay needs the message heads and body lengths only: parse
		// them out of the chunks as reassembly delivers them.
		app.http = &parserPair[http.StreamParser]{}
		app.http.cli.InitRequests(limit)
		app.http.srv.InitResponses(limit)
		app.consume(&app.http.cli, &app.http.srv)
	case fixed && name == "SMTP":
		app.smtp = &parserPair[smtp.StreamParser]{}
		app.smtp.cli.InitClient(limit)
		app.smtp.srv.InitServer(limit)
		app.consume(&app.smtp.cli, &app.smtp.srv)
	case fixed && (name == "CIFS" || name == "Netbios-SSN"):
		app.cifs = &parserPair[cifs.StreamParser]{}
		app.cifs.cli.Init(name == "Netbios-SSN", limit)
		app.cifs.srv.Init(name == "Netbios-SSN", limit)
		app.consume(&app.cifs.cli, &app.cifs.srv)
	case fixed && name == "NCP":
		app.ncp = &parserPair[ncp.StreamParser]{}
		app.ncp.cli.Init(limit)
		app.ncp.srv.Init(limit)
		app.consume(&app.ncp.cli, &app.ncp.srv)
	case fixed && name == "NFS":
		app.nfs = &parserPair[sunrpc.StreamParser]{}
		app.nfs.cli.Init(limit)
		app.nfs.srv.Init(limit)
		app.consume(&app.nfs.cli, &app.nfs.srv)
	case fixed && name == "IMAP4":
		// Replay parses nothing of IMAP4 (the email figures are
		// transport-level); the streams run for the hostile-input ledger.
		app.consume(nullConsumer{}, nullConsumer{})
	default:
		if !buffered && name == "" && conn.Key.DstPort > 1023 {
			// Unclassified ephemeral port: it may be endpoint-mapped
			// later in the trace. Well-known unregistered ports cannot
			// be (EPM and PASV always map ephemeral ports), so scan
			// probes and other low-port junk are not buffered.
			limit, buffered = unknownStreamLimit, true
		}
		if buffered {
			app.buffer(limit)
		}
	}
	return app
}

// consume starts the connection's two streams, delivering into cli and
// srv.
func (app *connStreams) consume(cli, srv reassembly.Consumer) {
	app.buffered = true
	app.cliStream.Init(cli)
	app.srvStream.Init(srv)
}

// buffer starts the two streams delivering into cliBuf and srvBuf, each
// keeping its first limit bytes.
func (app *connStreams) buffer(limit int) {
	app.cliBuf.Limit, app.srvBuf.Limit = limit, limit
	app.consume(&app.cliBuf, &app.srvBuf)
}

// release sends every pooled byte buffer under this connection's streams
// back to the reassembly pool and drops the parsed transactions. Any
// slice of the stream buffers taken during replay is invalid afterwards;
// parse results that outlive replay hold copies (strings or owned
// structs), never stream sub-slices.
func (app *connStreams) release() {
	if !app.buffered || app.released {
		return
	}
	app.released = true
	// Streams the replay never parsed still hold out-of-order data.
	app.cliStream.Discard()
	app.srvStream.Discard()
	app.cliBuf.Release()
	app.srvBuf.Release()
	app.http, app.smtp, app.cifs, app.ncp, app.nfs = nil, nil, nil, nil, nil
	if app.epmCli != nil {
		app.epmCli.release()
		app.epmSrv.release()
	}
}

// captureUDP records datagrams for the message-based analyzers, copying
// each payload into the sink's slab: the packet goes back to its source
// when the batch is released, and its bytes with it.
func (s *shardSink) captureUDP(idx int64, pk *pcap.Packet, p *layers.Packet) {
	if len(p.Payload) == 0 || !udpAppPorts(p.UDP.SrcPort, p.UDP.DstPort) {
		return
	}
	if len(p.Payload) > cap(s.udpSlab)-len(s.udpSlab) {
		next := min(max(2*cap(s.udpSlab), udpSlabMin), udpSlabMax)
		s.udpSlab = make([]byte, 0, max(next, len(p.Payload)))
	}
	at := len(s.udpSlab)
	s.udpSlab = append(s.udpSlab, p.Payload...)
	src, _ := p.NetSrc()
	dst, _ := p.NetDst()
	b := s.in.batchUDP
	r := pairShard(src, dst, len(b))
	b[r] = append(b[r], udpEvent{
		idx: idx, ts: pk.Timestamp, src: src, dst: dst,
		srcPort: p.UDP.SrcPort, dstPort: p.UDP.DstPort,
		payload: s.udpSlab[at:len(s.udpSlab):len(s.udpSlab)],
	})
}

// Publish implements pipeline.Sink: it hands the batch's connections and
// datagrams to the feed and wakes the UDP passes the publish made due.
func (s *shardSink) Publish(through int64, more bool) {
	s.feed.publish(s.shard, through, more)
	if !s.opts.PayloadAnalysis {
		return // no datagram is ever captured, no pass runs
	}
	for r, due := range s.in.due {
		if due {
			kick(s.feed.wake[r])
		}
	}
}

// netClass is the frame's row of Table 2.
func netClass(p *layers.Packet) int {
	switch {
	case p.Layers.Has(layers.LayerIPv4), p.Layers.Has(layers.LayerIPv6):
		return netIP
	case p.Layers.Has(layers.LayerARP):
		return netARP
	case p.Layers.Has(layers.LayerIPX):
		return netIPX
	default:
		return netOther
	}
}

// recordHost enters one address in the host census.
func (s *shardSink) recordHost(addr netip.Addr) {
	if !addr.IsValid() || addr.IsMulticast() {
		return
	}
	switch {
	case s.monitored.Contains(addr):
		s.monHosts[addr] = struct{}{}
		s.localHosts[addr] = struct{}{}
	case enterprise.IsLocal(addr):
		s.localHosts[addr] = struct{}{}
	default:
		s.remoteHosts[addr] = struct{}{}
	}
}

// binIndex is the second of ts since the base: int(ts.Sub(base) /
// time.Second) clamped at 0, from Unix seconds and nanoseconds, with no
// Duration arithmetic per packet. A non-negative difference divides
// truncated as it floors, and a negative one clamps to 0 either way. The
// two agree for any ts within a Duration (±292 years) of the base, which
// holds every pcap timestamp.
func binIndex(baseSec int64, baseNsec int, ts time.Time) int {
	sec := ts.Unix() - baseSec
	if ts.Nanosecond() < baseNsec {
		sec--
	}
	return int(max(sec, 0))
}

func (s *shardSink) bin(ts time.Time, wireLen int) {
	sec := binIndex(s.baseSec, s.baseNsec, ts)
	if sec >= len(s.bins) {
		// Fill the gap in one step: a long idle stretch in a trace must
		// cost one grow, not one append per missing second. Capacity
		// doubles, so n quiet-then-busy traces stay amortized O(1)/packet.
		if sec < cap(s.bins) {
			// The unused capacity is already zeroed: bins never shrink,
			// and nothing past len has ever been written.
			s.bins = s.bins[:sec+1]
		} else {
			newCap := 2 * cap(s.bins)
			if newCap <= sec {
				newCap = sec + 1
			}
			grown := make([]int64, sec+1, newCap)
			copy(grown, s.bins)
			s.bins = grown
		}
	}
	s.bins[sec] += int64(wireLen)
}

// segBuffer accumulates a reassembled stream as gap-delimited contiguous
// segments. PDU parsers resynchronize at segment boundaries, mirroring
// the incremental parser's buffer reset on Gap. Segment storage is drawn
// from the reassembly buffer pool and recycled by release.
type segBuffer struct {
	segs [][]byte
	cur  []byte
	// room is how many more bytes are kept, over all segments; the rest
	// of the stream is dropped.
	room int
}

// Data implements reassembly.Consumer, copying the borrowed chunk.
func (b *segBuffer) Data(d []byte) {
	d = d[:min(len(d), b.room)]
	b.room -= len(d)
	b.cur = reassembly.AppendPooled(b.cur, d)
}

// release recycles every pooled segment.
func (b *segBuffer) release() {
	for i := range b.segs {
		reassembly.PutBuffer(b.segs[i])
		b.segs[i] = nil
	}
	b.segs = nil
	reassembly.PutBuffer(b.cur)
	b.cur = nil
}

// Gap implements reassembly.Consumer.
func (b *segBuffer) Gap(n int) {
	if len(b.cur) > 0 {
		b.segs = append(b.segs, b.cur)
		b.cur = nil
	}
}

// segments returns every contiguous stream region in order.
func (b *segBuffer) segments() [][]byte {
	if len(b.cur) > 0 {
		return append(b.segs, b.cur)
	}
	return b.segs
}
