// Package flows implements transport-level connection tracking in the
// style of Bro's connection summaries, which the paper's analysis is built
// on. It groups decoded packets into bidirectional connections (TCP by
// handshake state, UDP and ICMP by canonical flow key with an inactivity
// timeout), accounts payload bytes per direction using header-implied
// lengths (so snaplen-truncated traces are counted correctly), classifies
// TCP connection outcomes (successful / rejected / unanswered — the
// categories of the paper's Table 9), and detects retransmissions and TCP
// keep-alives in sequence space (the inputs to Figure 10).
//
// A packet costs one probe of the live table, keyed by the canonical flow
// key as five words read from the decoded header. The table is open
// addressing with a hash seeded per table, so a crafted trace cannot aim
// its flows at one probe run, and it compares the words one by one: no
// generic map hash, no netip.Addr to compare. A connection's
// layers.FlowKey is built once, when its first packet creates it.
//
// Epoch obligations: none directly — a Table is per-shard, lives for a
// whole trace, and connections may straddle window boundaries. The
// windowed layer above (internal/core) banks a connection into the epoch
// of its first packet and cuts its own aggregates; Pairs and FanInOut are
// per trace, read from the trace's census (scan.TakeCensus), and bank
// whole. See DESIGN.md § "Epoch cuts and windowed reports: the
// Cut/Merge/watermark contract".
package flows

import (
	"sync/atomic"
	"time"

	"enttrace/internal/layers"
)

// Dir distinguishes the two directions of a connection.
type Dir int

// Direction values.
const (
	DirOrig Dir = iota // originator → responder
	DirResp            // responder → originator
)

// State summarizes a TCP connection's fate, mirroring the paper's
// "successful / rejected / unanswered" accounting. Non-TCP connections are
// always StateActive.
type State int

// Connection states.
const (
	// StateActive covers UDP/ICMP flows and TCP connections seen only
	// mid-stream (no handshake observed in the trace).
	StateActive State = iota
	// StateAttempted is a SYN with no response at all ("unanswered").
	StateAttempted
	// StateRejected is a SYN answered by RST.
	StateRejected
	// StateEstablished is a completed SYN / SYN-ACK handshake.
	StateEstablished
)

// String names the state as the paper's tables do.
func (s State) String() string {
	switch s {
	case StateAttempted:
		return "unanswered"
	case StateRejected:
		return "rejected"
	case StateEstablished:
		return "successful"
	default:
		return "active"
	}
}

// dirTrack carries per-direction TCP sequence tracking.
type dirTrack struct {
	maxSeqEnd uint32 // highest seq+len observed
	seen      bool
}

// Conn is one tracked connection.
type Conn struct {
	// Key is oriented originator → responder.
	Key   layers.FlowKey
	Start time.Time
	Last  time.Time
	// Packet and header-implied payload byte counts per direction.
	OrigPkts, RespPkts   int64
	OrigBytes, RespBytes int64
	// WireBytes is total frame bytes in both directions (for load).
	WireBytes int64
	State     State
	// sawSYN/sawSYNACK/sawRST drive state classification.
	sawSYN, sawSYNACK bool
	sawRSTFromResp    bool
	sawFin            [2]bool
	Proto             uint8 // beside the flags, where the padding had room
	// Retransmission accounting (TCP only).
	Retrans          int64 // retransmitted data packets, keep-alives excluded
	KeepAliveRetrans int64 // 1-byte snd_nxt-1 probes (NCP/SSH keep-alives)
	// DataPkts counts payload-carrying packets (the denominator of the
	// paper's retransmission rate).
	DataPkts int64
	track    [2]dirTrack
	// Multicast marks flows addressed to a multicast group.
	Multicast bool
	// finished marks connections that have left the live table (timeout,
	// eviction, or Flush).
	finished bool
	// flipped records whether Key is the reverse of its canonical form: a
	// packet runs originator → responder exactly when its own key flips
	// the same way.
	flipped bool
	// ord is the connection's place in the table's creation order, the
	// last tie-break of the MaxConns victim.
	ord int64

	// FirstIdx and App belong to the table's caller, which fills them when
	// Packet reports the connection new; the table never reads them. They
	// are what keeps per-connection work off the per-packet path: the one
	// probe of the live table finds the connection, and everything a caller
	// decided at its first packet is a field load away. FirstIdx is the
	// caller's ordering key (the pipeline's global index of the
	// connection's first packet); App is one slot for whatever state the
	// packet consumer keeps per connection.
	FirstIdx int64
	App      any
}

// Duration is the time between the first and last packet.
func (c *Conn) Duration() time.Duration { return c.Last.Sub(c.Start) }

// PayloadBytes is total payload in both directions.
func (c *Conn) PayloadBytes() int64 { return c.OrigBytes + c.RespBytes }

// Packets is total packets in both directions.
func (c *Conn) Packets() int64 { return c.OrigPkts + c.RespPkts }

// Successful reports whether the connection counts as successful for the
// paper's success-rate metrics: an established TCP handshake, or any
// non-TCP flow that saw a response.
func (c *Conn) Successful() bool {
	if c.Proto == layers.ProtoTCP {
		return c.State == StateEstablished || c.State == StateActive && c.RespPkts > 0
	}
	return c.RespPkts > 0
}

// Settled reports whether the connection's originator is final: it is
// not TCP, or it saw a pure SYN, which fixes the originator. Until then a
// pure SYN from the responder side reorients it (Key reversed). Like the
// table, it belongs to the goroutine that feeds the table packets.
func (c *Conn) Settled() bool { return c.Proto != layers.ProtoTCP || c.sawSYN }

// HostPair returns the unordered endpoint pair.
func (c *Conn) HostPair() layers.HostPair {
	return layers.NewHostPair(c.Key.Src, c.Key.Dst)
}

// Config parameterizes a Table.
type Config struct {
	// UDPTimeout ends a UDP flow after this much inactivity. Default 30 s.
	UDPTimeout time.Duration
	// ICMPTimeout is the ICMP flow inactivity bound. Default 10 s.
	ICMPTimeout time.Duration
	// IdleTimeout, when > 0, ends any connection — TCP included — idle
	// past it, and arms the periodic sweep that evicts such connections
	// from the live table, bounding memory on indefinite runs. A
	// connection that speaks again after the horizon is tracked as a
	// new one; because the split is decided against the flow's own
	// timestamps, it is identical for any shard count, and the sweep
	// itself (which only reclaims memory earlier) never changes what is
	// reported. Protocols with a shorter default timeout keep it.
	IdleTimeout time.Duration
	// MaxConns, when > 0, hard-bounds the live table: an insert beyond
	// it evicts the least-recently-active connection first. This is a
	// lossy backstop for hostile or misconfigured workloads — when it
	// fires, which connection splits depends on shard load, so reports
	// are no longer worker-count-invariant; the eviction count is
	// surfaced so a run that tripped it is identifiable.
	MaxConns int
	// LiveGauge, when non-nil, tracks the live-connection count; shards
	// of one analysis share a single gauge, so it reads as the whole
	// run's resident connection total.
	LiveGauge *atomic.Int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.UDPTimeout == 0 {
		out.UDPTimeout = 30 * time.Second
	}
	if out.ICMPTimeout == 0 {
		out.ICMPTimeout = 10 * time.Second
	}
	return out
}

// Table tracks all live connections in a trace. Feed it decoded packets in
// timestamp order via Packet, then call Flush; Conns returns every
// connection observed.
type Table struct {
	cfg  Config
	live liveTable
	// conns is every connection the table has created, in creation order;
	// the ones not in live are finished.
	conns []*Conn
	// slab batches Conn allocations: connection tracking creates one Conn
	// per flow, and carving them from a block cuts the hot path's
	// allocation count without changing lifetimes (all of a trace's
	// connections live until the analysis drops the whole table).
	slab []Conn
	// lastSweep is the event time of the last idle sweep (zero until
	// the first packet arms it).
	lastSweep time.Time
	// agedEvicted/capEvicted count connections removed from the live
	// table by the idle sweep and the MaxConns backstop respectively.
	agedEvicted, capEvicted int64
}

// NewTable returns an empty connection table.
func NewTable(cfg Config) *Table {
	return &Table{cfg: cfg.withDefaults()}
}

// Packet feeds one decoded packet. wireLen is the frame's original wire
// length. It returns the connection, the packet's direction within it, and
// whether this packet created the connection; the connection is nil for
// frames with no network-layer addresses (ARP, IPX). The probe of the
// live table is the only hashing a packet costs here.
func (t *Table) Packet(ts time.Time, p *layers.Packet, wireLen int) (conn *Conn, dir Dir, isNew bool) {
	t.maybeSweep(ts)
	var key liveKey
	flipped, ok := key.fromPacket(p)
	if !ok {
		return nil, DirOrig, false
	}
	slot := &t.live.slots[t.live.find(&key)]
	conn = slot.conn
	if conn != nil && t.expired(conn, ts) {
		conn.finished = true // its successor takes its slot below
		conn = nil
	}
	isNew = conn == nil
	if isNew {
		conn = t.alloc()
		fk := key.flowKey(flipped)
		*conn = Conn{Key: fk, Proto: fk.Proto, Start: ts, Last: ts, flipped: flipped, ord: int64(len(t.conns) - 1),
			Multicast: p.Eth.Dst.Multicast() || fk.Dst.Is4() && fk.Dst.IsMulticast()}
		if slot.conn != nil {
			slot.conn = conn // the live count stays
		} else {
			*slot = liveSlot{key, conn}
			t.live.added()
			if t.cfg.LiveGauge != nil {
				t.cfg.LiveGauge.Add(1)
			}
			t.enforceCap(conn)
		}
	}
	// Direction relative to the connection's originator. Both keys share
	// one canonical form, so they are equal or reversed, and the flip bits
	// tell which. (A key that is its own reverse never flips, so such a
	// flow is all originator, as a key comparison would have it.)
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

// alloc carves one Conn from the slab.
func (t *Table) alloc() *Conn {
	if len(t.slab) == 0 {
		t.slab = make([]Conn, 128)
	}
	c := &t.slab[0]
	t.slab = t.slab[1:]
	t.conns = append(t.conns, c)
	return c
}

func (t *Table) expired(c *Conn, now time.Time) bool {
	if t.cfg.IdleTimeout > 0 && now.Sub(c.Last) > t.cfg.IdleTimeout {
		return true
	}
	switch c.Proto {
	case layers.ProtoUDP:
		return now.Sub(c.Last) > t.cfg.UDPTimeout
	case layers.ProtoICMP:
		return now.Sub(c.Last) > t.cfg.ICMPTimeout
	}
	return false
}

// sweep finishes every live connection idle past the IdleTimeout
// horizon at event time now. Because shard timestamps are
// non-decreasing, any connection the sweep evicts would also have been
// split by expired() at its next packet — the sweep only reclaims the
// memory earlier, so reports are unchanged by when (or whether) it
// runs.
//
// It collects the idle connections first and finishes them after the
// walk: a delete shifts entries back, and could move one the walk has yet
// to visit into a slot it has passed.
func (t *Table) sweep(now time.Time) {
	var idle []*Conn
	for i := range t.live.slots {
		if c := t.live.slots[i].conn; c != nil && now.Sub(c.Last) > t.cfg.IdleTimeout {
			idle = append(idle, c)
		}
	}
	for _, c := range idle {
		t.finish(c)
		t.agedEvicted++
	}
}

// maybeSweep runs the idle sweep at most once per half horizon of
// event time — often enough that the live table holds at most one
// extra horizon's worth of dead flows, rarely enough to stay off the
// hot path.
func (t *Table) maybeSweep(now time.Time) {
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

// enforceCap evicts the least-recently-active connection when an
// insert pushed the live table over MaxConns. Ties break toward the
// earliest-started connection, and then the earliest-created, so the
// victim is one connection whatever order the slots hold them in; the
// just-inserted one is never the victim.
func (t *Table) enforceCap(just *Conn) {
	for t.cfg.MaxConns > 0 && t.live.n > t.cfg.MaxConns {
		var victim *Conn
		for i := range t.live.slots {
			c := t.live.slots[i].conn
			if c == nil || c == just {
				continue
			}
			if victim == nil || colder(c, victim) {
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

// colder reports whether a goes before b in the MaxConns eviction order:
// less recently active, then earlier started, then earlier created.
func colder(a, b *Conn) bool {
	if !a.Last.Equal(b.Last) {
		return a.Last.Before(b.Last)
	}
	if !a.Start.Equal(b.Start) {
		return a.Start.Before(b.Start)
	}
	return a.ord < b.ord
}

// EvictStats returns how many connections the idle sweep (aged) and the
// MaxConns backstop (capped) have evicted from the live table.
func (t *Table) EvictStats() (aged, capped int64) { return t.agedEvicted, t.capEvicted }

// CapEvicted returns the MaxConns backstop's eviction count alone.
func (t *Table) CapEvicted() int64 { return t.capEvicted }

func (t *Table) tcpUpdate(c *Conn, dir Dir, tcp *layers.TCP, payloadLen int) {
	syn := tcp.Flags&layers.TCPSyn != 0
	ack := tcp.Flags&layers.TCPAck != 0
	rst := tcp.Flags&layers.TCPRst != 0
	fin := tcp.Flags&layers.TCPFin != 0

	if syn && !ack {
		// Pure SYN defines the originator. If the first packet we saw was
		// actually from the responder (e.g. simultaneous capture start),
		// reorient the connection.
		if dir == DirResp && !c.sawSYN {
			c.reorient()
			dir = DirOrig
		}
		c.sawSYN = true
	}
	if syn && ack && dir == DirResp {
		c.sawSYNACK = true
	}
	if rst && dir == DirResp && c.sawSYN && !c.sawSYNACK {
		c.sawRSTFromResp = true
	}
	if fin {
		c.sawFin[dir] = true
	}
	c.State = c.classify()

	// Sequence-space retransmission detection, per direction.
	tr := &c.track[dir]
	seqEnd := tcp.Seq + uint32(payloadLen)
	if syn || fin {
		seqEnd++
	}
	if !tr.seen {
		tr.seen = true
		tr.maxSeqEnd = seqEnd
		return
	}
	if payloadLen > 0 && int32(seqEnd-tr.maxSeqEnd) <= 0 {
		// Entirely old data: a retransmission. The paper excludes TCP
		// keep-alives (1 garbage byte at snd_nxt-1) from load analysis.
		if payloadLen == 1 && tcp.Seq == tr.maxSeqEnd-1 {
			c.KeepAliveRetrans++
		} else {
			c.Retrans++
		}
		return
	}
	if int32(seqEnd-tr.maxSeqEnd) > 0 {
		tr.maxSeqEnd = seqEnd
	}
}

// reorient swaps originator and responder on a connection whose first
// packet turned out to be from the responder.
func (c *Conn) reorient() {
	c.Key = c.Key.Reverse()
	c.flipped = !c.flipped
	c.OrigPkts, c.RespPkts = c.RespPkts, c.OrigPkts
	c.OrigBytes, c.RespBytes = c.RespBytes, c.OrigBytes
	c.track[0], c.track[1] = c.track[1], c.track[0]
	c.sawFin[0], c.sawFin[1] = c.sawFin[1], c.sawFin[0]
}

func (c *Conn) classify() State {
	switch {
	case c.sawSYNACK:
		return StateEstablished
	case c.sawRSTFromResp:
		return StateRejected
	case c.sawSYN && c.RespPkts == 0:
		return StateAttempted
	case c.sawSYN && c.RespPkts > 0:
		// Response seen but no SYN-ACK captured (e.g. truncated trace
		// start); treat as established for success accounting.
		return StateEstablished
	default:
		return StateActive
	}
}

func (t *Table) finish(c *Conn) {
	c.finished = true
	var k liveKey // rebuilt from the connection's FlowKey, once per connection
	k.setAddrs(c.Key.Proto, c.Key.Src, c.Key.Dst, c.Key.SrcPort, c.Key.DstPort)
	if t.live.remove(&k, c) && t.cfg.LiveGauge != nil {
		t.cfg.LiveGauge.Add(-1)
	}
}

// Flush finalizes all live connections (end of trace). The table keeps
// its slots, empty.
func (t *Table) Flush() {
	for i := range t.live.slots {
		if c := t.live.slots[i].conn; c != nil {
			c.finished = true
		}
	}
	if t.cfg.LiveGauge != nil {
		t.cfg.LiveGauge.Add(-int64(t.live.n))
	}
	t.live.reset()
}

// Conns returns all finalized connections in the order they were created
// (the order of their first packets). Call Flush first to include
// still-live flows.
func (t *Table) Conns() []*Conn {
	if t.live.n == 0 {
		return t.conns
	}
	done := make([]*Conn, 0, len(t.conns)-t.live.n)
	for _, c := range t.conns {
		if c.finished {
			done = append(done, c)
		}
	}
	return done
}

// Live returns the number of currently tracked connections.
func (t *Table) Live() int { return t.live.n }
