// Package gen is the synthetic-traffic engine: it turns the enterprise
// model and per-application workload descriptions into byte-exact packet
// streams. Every connection is emitted with a real TCP state machine —
// handshake (or rejection, or silence), MSS segmentation, delayed ACKs,
// RTT pacing, optional segment retransmission, keep-alive probes, and FIN
// teardown — so the analyzer measures connection outcomes, durations,
// sizes, and retransmission rates from the wire, never from generator
// ground truth.
package gen

import (
	"cmp"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
)

// MSS is the TCP segment payload bound. It is chosen so a full data frame
// (14 Ethernet + 20 IP + 20 TCP + MSS = 1500 bytes) exactly fits the
// paper's full-packet snap length: a standard 1460-byte MSS yields
// 1514-byte frames that a 1500-byte snaplen silently truncates by
// 14 payload bytes per segment, which would corrupt every reassembled
// application stream at the analyzer (precisely the capture-loss artifact
// the paper mentions observing).
const MSS = 1446

// Turn is one application-level send within a session.
type Turn struct {
	FromClient bool
	// Delay is think time before this turn (beyond the RTT pacing the
	// emitter applies between turns).
	Delay time.Duration
	Data  []byte
}

// Outcome selects the fate of a TCP connection attempt.
type Outcome int

// Connection outcomes.
const (
	Established Outcome = iota
	Rejected            // SYN answered by RST from the responder
	Unanswered          // SYN (and retries) never answered
)

// TCPOpts describes one TCP session to emit.
type TCPOpts struct {
	Client, Server enterprise.Host
	ClientPort     uint16
	ServerPort     uint16
	Start          time.Time
	RTT            time.Duration
	Turns          []Turn
	Outcome        Outcome
	// LossProb duplicates each data segment with this probability,
	// modeling loss downstream of the monitoring point (the monitor sees
	// both the original and the retransmission).
	LossProb float64
	// KeepAlives appends this many 1-byte snd_nxt-1 probes from the
	// client after the last turn, spaced KeepAliveGap apart (the NCP
	// idle-connection pattern).
	KeepAlives   int
	KeepAliveGap time.Duration
	// NoFin leaves the connection open (end of trace cuts it off).
	NoFin bool
}

// Emitter builds the timestamped frames of one trace, each exactly once
// and at capture length, into storage its owner provides: a chunked
// arena when the trace is materialized (Packets), the pooled packet
// itself when a StreamSource drives it.
type Emitter struct {
	rng  *rand.Rand
	ipid uint16
	// snaplen is the capture length frames are built at: at most this
	// many bytes of a frame are written, OrigLen keeps the wire length.
	// 0 builds whole frames.
	snaplen int

	// stream, when set, owns the frames: each is built in one of its
	// pooled packets and parked in its reorder heap. Otherwise they
	// collect in pkts, in emission order, their bytes in the arena.
	stream *StreamSource
	pkts   []pcap.Packet
	arena  arena
}

// NewEmitter returns an emitter seeded deterministically. It builds
// whole frames; the trace generators set the dataset's capture length.
func NewEmitter(seed int64) *Emitter {
	return &Emitter{rng: rand.New(rand.NewSource(seed))}
}

// RNG exposes the emitter's deterministic random source for workload
// shaping.
func (e *Emitter) RNG() *rand.Rand { return e.rng }

// arena is the frame storage of a materialized trace: frames laid end to
// end in chunks, so a trace costs a few large pointer-free allocations
// instead of one per frame. A frame never spans chunks, and every frame
// handed out is a three-index slice (cap == len), so a consumer's append
// to a packet's Data reallocates instead of writing into its neighbour.
// A chunk lives as long as any frame in it is referenced.
type arena struct {
	chunk []byte // len is the part handed out
}

// arenaChunk is the size chunks grow to (from an eighth of it, so a
// trace of a few frames does not hold 256 KiB): large enough that the
// unused tail when a full-size frame does not fit is under 1 %.
const arenaChunk = 256 << 10

// room returns an empty slice with capacity for n bytes at the tail of
// the current chunk, starting a new chunk if that is too short. What is
// then appended to it, up to n bytes, lands in the arena; take claims it.
func (a *arena) room(n int) []byte {
	if cap(a.chunk)-len(a.chunk) < n {
		size := min(max(2*cap(a.chunk), arenaChunk/8), arenaChunk)
		a.chunk = make([]byte, 0, max(size, n))
	}
	return a.chunk[len(a.chunk):]
}

// take claims the n bytes appended to room's slice.
func (a *arena) take(n int) []byte {
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	return a.chunk[start : start+n : start+n]
}

// begin returns the packet the next frame is to be appended to: Data is
// empty, with room for room bytes (less when the capture length cuts the
// frame shorter). The pointer is good until the next begin.
func (e *Emitter) begin(ts time.Time, room int) *pcap.Packet {
	if e.stream != nil {
		return e.stream.newFrame(ts)
	}
	if e.snaplen > 0 {
		room = min(room, e.snaplen)
	}
	if len(e.pkts) == cap(e.pkts) {
		// Double: append grows a large slice by a quarter, which would
		// copy each 64-byte struct some five times over a trace.
		e.pkts = slices.Grow(e.pkts, max(len(e.pkts), 1024))
	}
	e.pkts = append(e.pkts, pcap.Packet{Timestamp: ts, Data: e.arena.room(room)})
	return &e.pkts[len(e.pkts)-1]
}

// end hands the built frame to its owner.
func (e *Emitter) end(p *pcap.Packet) {
	if e.stream != nil {
		e.stream.park(p)
		return
	}
	p.Data = e.arena.take(len(p.Data))
}

func (e *Emitter) tcp(ts time.Time, o *layers.TCPOpts) {
	p := e.begin(ts, layers.MaxHeaderLen+len(o.Payload))
	p.Data, p.OrigLen = layers.AppendTCP(p.Data, o, e.snaplen)
	e.end(p)
}

func (e *Emitter) udp(ts time.Time, o *layers.UDPOpts) {
	p := e.begin(ts, layers.MaxHeaderLen+len(o.Payload))
	p.Data, p.OrigLen = layers.AppendUDP(p.Data, o, e.snaplen)
	e.end(p)
}

func (e *Emitter) icmp(ts time.Time, o *layers.ICMPOpts) {
	p := e.begin(ts, layers.MaxHeaderLen+len(o.Payload))
	p.Data, p.OrigLen = layers.AppendICMP(p.Data, o, e.snaplen)
	e.end(p)
}

// frame emits a frame some other code built (the link-layer background,
// the evasion family's corrupt frames), copying what the capture length
// keeps of it.
func (e *Emitter) frame(ts time.Time, data []byte) {
	p := e.begin(ts, len(data))
	p.Data, p.OrigLen = layers.AppendRaw(p.Data, data, e.snaplen)
	e.end(p)
}

func (e *Emitter) nextID() uint16 {
	e.ipid++
	return e.ipid
}

// Packets returns all emitted frames sorted by timestamp, frames with
// equal timestamps in emission order. It sorts 16-byte (timestamp,
// emission index) keys rather than the packets: the index makes the
// order total, so any sort yields the one a stable sort by timestamp
// would, and the 64-byte packets are then moved once. Callers take
// ownership; the emitter is spent.
func (e *Emitter) Packets() []*pcap.Packet {
	type key struct {
		ts  int64 // Unix nanoseconds: trace times sit within a few hours of the dataset's date
		idx int
	}
	keys := make([]key, len(e.pkts))
	for i := range e.pkts {
		keys[i] = key{e.pkts[i].Timestamp.UnixNano(), i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	sorted := make([]pcap.Packet, len(keys))
	out := make([]*pcap.Packet, len(keys))
	for i, k := range keys {
		sorted[i] = e.pkts[k.idx]
		out[i] = &sorted[i]
	}
	e.pkts = nil
	return out
}

func frameOpts(src, dst enterprise.Host, id uint16) layers.FrameOpts {
	return layers.FrameOpts{
		SrcMAC: src.MAC, DstMAC: dst.MAC,
		SrcIP: src.Addr, DstIP: dst.Addr,
		IPID: id,
	}
}

// tcpEndpoint tracks one side's sequence state.
type tcpEndpoint struct {
	host enterprise.Host
	port uint16
	seq  uint32
}

// TCPSession emits one full TCP conversation and returns the time the
// last packet was sent.
func (e *Emitter) TCPSession(o TCPOpts) time.Time {
	owd := o.RTT / 2
	if owd <= 0 {
		owd = 100 * time.Microsecond
	}
	cli := &tcpEndpoint{host: o.Client, port: o.ClientPort, seq: e.rng.Uint32()}
	srv := &tcpEndpoint{host: o.Server, port: o.ServerPort, seq: e.rng.Uint32()}
	now := o.Start

	sendFlags := func(from, to *tcpEndpoint, ts time.Time, flags uint8, ack uint32, payload []byte) {
		e.tcp(ts, &layers.TCPOpts{
			FrameOpts: frameOpts(from.host, to.host, e.nextID()),
			SrcPort:   from.port, DstPort: to.port,
			Seq: from.seq, Ack: ack, Flags: flags, Payload: payload,
		})
	}

	// SYN.
	sendFlags(cli, srv, now, layers.TCPSyn, 0, nil)
	switch o.Outcome {
	case Unanswered:
		// Classic exponential SYN retry, then give up.
		sendFlags(cli, srv, now.Add(3*time.Second), layers.TCPSyn, 0, nil)
		sendFlags(cli, srv, now.Add(9*time.Second), layers.TCPSyn, 0, nil)
		return now.Add(9 * time.Second)
	case Rejected:
		now = now.Add(owd)
		// RST from the server, with the server's seq zero-ish.
		e.tcp(now, &layers.TCPOpts{
			FrameOpts: frameOpts(o.Server, o.Client, e.nextID()),
			SrcPort:   o.ServerPort, DstPort: o.ClientPort,
			Seq: 0, Ack: cli.seq + 1, Flags: layers.TCPRst | layers.TCPAck,
		})
		return now
	}
	cli.seq++
	now = now.Add(owd)
	sendFlags(srv, cli, now, layers.TCPSyn|layers.TCPAck, cli.seq, nil)
	srv.seq++
	now = now.Add(owd)
	sendFlags(cli, srv, now, layers.TCPAck, srv.seq, nil)

	// Data turns.
	for _, turn := range o.Turns {
		now = now.Add(turn.Delay)
		from, to := srv, cli
		if turn.FromClient {
			from, to = cli, srv
		}
		data := turn.Data
		segIdx := 0
		for len(data) > 0 {
			n := len(data)
			if n > MSS {
				n = MSS
			}
			seg := data[:n]
			data = data[n:]
			sendFlags(from, to, now, layers.TCPAck|layers.TCPPsh, to.seq, seg)
			if o.LossProb > 0 && e.rng.Float64() < o.LossProb {
				// Retransmission of the same segment an RTO later.
				sendFlags(from, to, now.Add(200*time.Millisecond), layers.TCPAck|layers.TCPPsh, to.seq, seg)
			}
			from.seq += uint32(n)
			segIdx++
			if segIdx%2 == 0 {
				// Delayed ACK from the receiver.
				sendFlags(to, from, now.Add(owd), layers.TCPAck, from.seq, nil)
			}
			now = now.Add(12 * time.Microsecond) // serialization spacing
		}
		// Final ACK for the turn.
		sendFlags(to, from, now.Add(owd), layers.TCPAck, from.seq, nil)
		now = now.Add(owd)
	}

	// Keep-alive probes (1 byte at snd_nxt-1).
	if o.KeepAlives > 0 {
		gap := o.KeepAliveGap
		if gap == 0 {
			gap = time.Minute
		}
		for i := 0; i < o.KeepAlives; i++ {
			now = now.Add(gap)
			e.tcp(now, &layers.TCPOpts{
				FrameOpts: frameOpts(o.Client, o.Server, e.nextID()),
				SrcPort:   o.ClientPort, DstPort: o.ServerPort,
				Seq: cli.seq - 1, Ack: srv.seq, Flags: layers.TCPAck, Payload: []byte{0},
			})
			// Keep-alive ACK response.
			e.tcp(now.Add(owd), &layers.TCPOpts{
				FrameOpts: frameOpts(o.Server, o.Client, e.nextID()),
				SrcPort:   o.ServerPort, DstPort: o.ClientPort,
				Seq: srv.seq, Ack: cli.seq, Flags: layers.TCPAck,
			})
		}
	}

	if !o.NoFin {
		sendFlags(cli, srv, now, layers.TCPFin|layers.TCPAck, srv.seq, nil)
		cli.seq++
		now = now.Add(owd)
		sendFlags(srv, cli, now, layers.TCPFin|layers.TCPAck, cli.seq, nil)
		srv.seq++
		now = now.Add(owd)
		sendFlags(cli, srv, now, layers.TCPAck, srv.seq, nil)
	}
	return now
}

// UDPExchange emits a request datagram and optional reply, returning the
// reply time (or request time if unanswered).
func (e *Emitter) UDPExchange(client, server enterprise.Host, cport, sport uint16, start time.Time, rtt time.Duration, req, reply []byte) time.Time {
	e.udp(start, &layers.UDPOpts{
		FrameOpts: frameOpts(client, server, e.nextID()),
		SrcPort:   cport, DstPort: sport, Payload: req,
	})
	if reply == nil {
		return start
	}
	at := start.Add(rtt)
	e.udp(at, &layers.UDPOpts{
		FrameOpts: frameOpts(server, client, e.nextID()),
		SrcPort:   sport, DstPort: cport, Payload: reply,
	})
	return at
}

// UDPSend emits a single one-way datagram (announcements, multicast).
func (e *Emitter) UDPSend(src, dst enterprise.Host, sport, dport uint16, ts time.Time, payload []byte) {
	e.udp(ts, &layers.UDPOpts{
		FrameOpts: frameOpts(src, dst, e.nextID()),
		SrcPort:   sport, DstPort: dport, Payload: payload,
	})
}

// ICMPEcho emits an echo request and, when answered, its reply.
func (e *Emitter) ICMPEcho(client, server enterprise.Host, id, seq uint16, start time.Time, rtt time.Duration, answered bool) {
	e.icmp(start, &layers.ICMPOpts{
		FrameOpts: frameOpts(client, server, e.nextID()),
		Type:      layers.ICMPEchoRequest, ID: id, Seq: seq, Payload: make([]byte, 56),
	})
	if answered {
		e.icmp(start.Add(rtt), &layers.ICMPOpts{
			FrameOpts: frameOpts(server, client, e.nextID()),
			Type:      layers.ICMPEchoReply, ID: id, Seq: seq, Payload: make([]byte, 56),
		})
	}
}

// ARPExchange emits a broadcast who-has and its unicast reply.
func (e *Emitter) ARPExchange(asker, owner enterprise.Host, ts time.Time) {
	e.frame(ts, layers.BuildARP(layers.ARPOpts{
		SrcMAC: asker.MAC, DstMAC: layers.Broadcast,
		Op:       1,
		SenderHW: asker.MAC, SenderIP: asker.Addr,
		TargetIP: owner.Addr,
	}))
	e.frame(ts.Add(300*time.Microsecond), layers.BuildARP(layers.ARPOpts{
		SrcMAC: owner.MAC, DstMAC: asker.MAC,
		Op:       2,
		SenderHW: owner.MAC, SenderIP: owner.Addr,
		TargetHW: asker.MAC, TargetIP: asker.Addr,
	}))
}

// IPXBroadcast emits a Novell SAP-style broadcast.
func (e *Emitter) IPXBroadcast(src enterprise.Host, ts time.Time, payload []byte, raw8023 bool) {
	e.frame(ts, layers.BuildIPX(layers.IPXOpts{
		SrcMAC: src.MAC, DstMAC: layers.Broadcast,
		SrcNet: 1, DstNet: 0,
		SrcSocket: 0x0452, DstSocket: 0x0452, // SAP
		PacketType: 4,
		Payload:    payload,
		Raw8023:    raw8023,
	}))
}

// MulticastHost fabricates a pseudo-host for a multicast group so the
// generic emitters can address it.
func MulticastHost(group [4]byte) enterprise.Host {
	addr := netip.AddrFrom4(group)
	return enterprise.Host{
		Addr: addr,
		MAC:  layers.MulticastMAC(addr),
	}
}
