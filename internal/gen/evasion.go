package gen

import (
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/layers"
)

// This file is the adversarial workload family (ROADMAP item 3b): traffic
// shaped the way evasion tools shape it — overlapping retransmissions
// with conflicting payload bytes, bogus RSTs, sequence wraps, deliberate
// gap abuse, retransmit storms, and corrupt headers. Each scenario is a
// small, fully deterministic trace whose hostile-input census signature
// is known exactly, so the differential harness (internal/advtest) can
// assert both determinism across the worker grid and the presence of the
// specific counter each attack must light up.

// EvasionExpect declares which hostile-input census counters a scenario
// is guaranteed to drive above zero.
type EvasionExpect struct {
	ConflictBytes  bool
	DuplicateBytes bool
	BogusRSTs      bool
	WrapEvents     bool
	GapEvents      bool
	Undecodable    bool
}

// EvasionScenario is one named adversarial trace.
type EvasionScenario struct {
	Name        string
	Description string
	Expect      EvasionExpect
	Build       func() Trace
}

// EvasionScenarios returns the full scenario family, in stable order.
func EvasionScenarios() []EvasionScenario {
	return []EvasionScenario{
		{
			Name:        "overlap-conflict",
			Description: "out-of-order retransmissions of the same range carrying different bytes (first copy must win)",
			Expect:      EvasionExpect{ConflictBytes: true, DuplicateBytes: true},
			Build:       buildOverlapConflict,
		},
		{
			Name:        "bogus-rst",
			Description: "mid-stream RST with an out-of-window sequence number, data keeps flowing after it",
			Expect:      EvasionExpect{BogusRSTs: true},
			Build:       buildBogusRST,
		},
		{
			Name:        "seq-wrap",
			Description: "connection whose data crosses the 32-bit sequence-number wrap",
			Expect:      EvasionExpect{WrapEvents: true},
			Build:       buildSeqWrap,
		},
		{
			Name:        "gap-unfilled",
			Description: "a hole the sender never fills, flushed as a gap at close",
			Expect:      EvasionExpect{GapEvents: true},
			Build:       buildGapUnfilled,
		},
		{
			Name:        "gap-maxpending",
			Description: "out-of-order backlog driven past MaxPending, forcing a mid-stream gap skip",
			Expect:      EvasionExpect{GapEvents: true},
			Build:       buildGapMaxPending,
		},
		{
			Name:        "retrans-storm",
			Description: "every segment transmitted four times (identical copies)",
			Expect:      EvasionExpect{DuplicateBytes: true},
			Build:       buildRetransStorm,
		},
		{
			Name:        "trunc-headers",
			Description: "frames with truncated or corrupt link/IP/TCP headers mixed into benign traffic",
			Expect:      EvasionExpect{Undecodable: true},
			Build:       buildTruncHeaders,
		},
	}
}

// EvasionScenarioByName returns the named scenario (false if unknown).
func EvasionScenarioByName(name string) (EvasionScenario, bool) {
	for _, sc := range EvasionScenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return EvasionScenario{}, false
}

// evasionBase is the fixed clock origin for every scenario; determinism
// across runs requires that nothing here reads the wall clock.
var evasionBase = time.Unix(1100000000, 0).UTC()

// evasionSubnet is the monitored subnet every scenario taps.
const evasionSubnet = 1

func evasionTrace(e *Emitter) Trace {
	return Trace{
		Subnet:  evasionSubnet,
		Tap:     0,
		Packets: e.Packets(),
		Prefix:  enterprise.SubnetPrefix(evasionSubnet),
	}
}

// evasionConn emits one TCP connection with raw control over sequence
// numbers — the evasion shapes need exactly the segments TCPSession's
// well-behaved state machine refuses to produce.
type evasionConn struct {
	e            *Emitter
	cli, srv     enterprise.Host
	cport, sport uint16
	cliISS       uint32 // first data byte from the client (ISN+1)
	srvISS       uint32
	now          time.Time
	owd          time.Duration
}

func newEvasionConn(e *Emitter, hostNum int, cport, sport uint16, cliISN uint32, start time.Time) *evasionConn {
	return &evasionConn{
		e:     e,
		cli:   enterprise.InternalHost(evasionSubnet, hostNum),
		srv:   enterprise.RemoteHost(hostNum),
		cport: cport, sport: sport,
		cliISS: cliISN + 1,
		srvISS: 0x20000000*uint32(hostNum) + 1,
		now:    start,
		owd:    500 * time.Microsecond,
	}
}

// raw emits one segment with explicit sequence/flags. fromClient selects
// the direction; off is the byte offset into that side's stream.
func (c *evasionConn) raw(fromClient bool, off uint32, flags uint8, payload []byte) {
	src, dst := c.cli, c.srv
	sport, dport := c.cport, c.sport
	seq := c.cliISS + off
	ack := c.srvISS
	if !fromClient {
		src, dst = c.srv, c.cli
		sport, dport = c.sport, c.cport
		seq = c.srvISS + off
		ack = c.cliISS
	}
	c.e.tcp(c.now, &layers.TCPOpts{
		FrameOpts: frameOpts(src, dst, c.e.nextID()),
		SrcPort:   sport, DstPort: dport,
		Seq: seq, Ack: ack, Flags: flags, Payload: payload,
	})
	c.now = c.now.Add(c.owd)
}

// rawSeq emits a segment at an absolute sequence number (for RST probes
// whose sequence deliberately disagrees with the stream cursor).
func (c *evasionConn) rawSeq(fromClient bool, seq uint32, flags uint8, payload []byte) {
	src, dst := c.cli, c.srv
	sport, dport := c.cport, c.sport
	ack := c.srvISS
	if !fromClient {
		src, dst = c.srv, c.cli
		sport, dport = c.sport, c.cport
		ack = c.cliISS
	}
	c.e.tcp(c.now, &layers.TCPOpts{
		FrameOpts: frameOpts(src, dst, c.e.nextID()),
		SrcPort:   sport, DstPort: dport,
		Seq: seq, Ack: ack, Flags: flags, Payload: payload,
	})
	c.now = c.now.Add(c.owd)
}

// handshake emits SYN / SYN-ACK / ACK with the connection's fixed ISNs.
func (c *evasionConn) handshake() {
	c.e.tcp(c.now, &layers.TCPOpts{
		FrameOpts: frameOpts(c.cli, c.srv, c.e.nextID()),
		SrcPort:   c.cport, DstPort: c.sport,
		Seq: c.cliISS - 1, Flags: layers.TCPSyn,
	})
	c.now = c.now.Add(c.owd)
	c.e.tcp(c.now, &layers.TCPOpts{
		FrameOpts: frameOpts(c.srv, c.cli, c.e.nextID()),
		SrcPort:   c.sport, DstPort: c.cport,
		Seq: c.srvISS - 1, Ack: c.cliISS, Flags: layers.TCPSyn | layers.TCPAck,
	})
	c.now = c.now.Add(c.owd)
	c.raw(true, 0, layers.TCPAck, nil)
}

// fin tears the connection down cleanly so the flow layer records a
// completed connection. cliOff/srvOff are each side's stream lengths.
func (c *evasionConn) fin(cliOff, srvOff uint32) {
	c.raw(true, cliOff, layers.TCPFin|layers.TCPAck, nil)
	c.raw(false, srvOff, layers.TCPFin|layers.TCPAck, nil)
	c.raw(true, cliOff+1, layers.TCPAck, nil)
}

// fill returns n deterministic payload bytes for stream offset off.
func fill(off uint32, n int, salt byte) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte((off+uint32(i))*37) ^ salt
	}
	return d
}

// buildOverlapConflict: the client sends a prelude, then two out-of-order
// copies of the same 300-byte range with different content, then a third
// copy half-identical to the first, then fills the hole. First copy wins;
// the census must see conflicting and duplicate overlap bytes.
func buildOverlapConflict() Trace {
	e := NewEmitter(42)
	c := newEvasionConn(e, 2, 2001, 80, 0x1000, evasionBase)
	c.handshake()
	c.raw(true, 0, layers.TCPAck|layers.TCPPsh, fill(0, 100, 0))
	// Out-of-order: [400,700) first copy (salt 0), then a fully
	// conflicting copy (salt 0xFF), then a half-shifted copy overlapping
	// [550,700) with matching content and spilling new bytes to 850.
	c.raw(true, 400, layers.TCPAck|layers.TCPPsh, fill(400, 300, 0))
	c.raw(true, 400, layers.TCPAck|layers.TCPPsh, fill(400, 300, 0xFF))
	c.raw(true, 550, layers.TCPAck|layers.TCPPsh, fill(550, 300, 0))
	// Fill the hole [100,400); everything drains in order.
	c.raw(true, 100, layers.TCPAck|layers.TCPPsh, fill(100, 300, 0))
	// Server answers enough to look like a real service.
	c.raw(false, 0, layers.TCPAck|layers.TCPPsh, fill(0, 200, 0x55))
	c.fin(850, 200)
	return evasionTrace(e)
}

// buildBogusRST: an injected RST whose sequence number is far outside the
// stream, followed by more data (the endpoints ignored it; a naive
// monitor would have torn its state down).
func buildBogusRST() Trace {
	e := NewEmitter(43)
	c := newEvasionConn(e, 3, 2002, 80, 0x2000, evasionBase)
	c.handshake()
	c.raw(true, 0, layers.TCPAck|layers.TCPPsh, fill(0, 500, 0))
	// Blind reset: attacker guesses a sequence number 5000 bytes ahead.
	c.rawSeq(true, c.cliISS+5000, layers.TCPRst, nil)
	// The endpoints keep talking.
	c.raw(true, 500, layers.TCPAck|layers.TCPPsh, fill(500, 500, 0))
	c.raw(false, 0, layers.TCPAck|layers.TCPPsh, fill(0, 300, 0x55))
	c.fin(1000, 300)
	return evasionTrace(e)
}

// buildSeqWrap: the client's ISN sits just below 2^32, so its data
// stream crosses the wrap in order; the server side wraps inside a
// buffered out-of-order cluster.
func buildSeqWrap() Trace {
	e := NewEmitter(44)
	c := newEvasionConn(e, 4, 2003, 80, 0xFFFFFE00, evasionBase)
	c.handshake()
	// 0x1FF bytes to the boundary; 1200 bytes crosses it in-order.
	c.raw(true, 0, layers.TCPAck|layers.TCPPsh, fill(0, 600, 0))
	c.raw(true, 600, layers.TCPAck|layers.TCPPsh, fill(600, 600, 0))
	c.raw(false, 0, layers.TCPAck|layers.TCPPsh, fill(0, 100, 0x55))
	c.fin(1200, 100)
	return evasionTrace(e)
}

// buildGapUnfilled: a hole the sender never fills — the bytes beyond it
// sit buffered until close, where the flush declares the gap.
func buildGapUnfilled() Trace {
	e := NewEmitter(45)
	c := newEvasionConn(e, 5, 2004, 80, 0x3000, evasionBase)
	c.handshake()
	c.raw(true, 0, layers.TCPAck|layers.TCPPsh, fill(0, 100, 0))
	// [500,800) arrives; [100,500) never does.
	c.raw(true, 500, layers.TCPAck|layers.TCPPsh, fill(500, 300, 0))
	c.raw(false, 0, layers.TCPAck|layers.TCPPsh, fill(0, 150, 0x55))
	c.fin(800, 150)
	return evasionTrace(e)
}

// buildGapMaxPending: the client holds back one early segment and keeps
// sending, pushing the out-of-order backlog past the reassembler's
// MaxPending budget (256 KB) so it must declare the gap mid-stream and
// skip forward — with pending memory staying bounded throughout.
func buildGapMaxPending() Trace {
	e := NewEmitter(46)
	c := newEvasionConn(e, 6, 2005, 80, 0x4000, evasionBase)
	c.owd = 20 * time.Microsecond
	c.handshake()
	c.raw(true, 0, layers.TCPAck|layers.TCPPsh, fill(0, 64, 0))
	// Cluster starting at 1024: (256 KB + slack) of contiguous data, the
	// [64,1024) hole never filled.
	const total = 260 << 10
	for off := uint32(1024); off < 1024+total; off += MSS {
		n := MSS
		if rem := 1024 + total - off; rem < uint32(n) {
			n = int(rem)
		}
		c.raw(true, off, layers.TCPAck|layers.TCPPsh, fill(off, n, 0))
	}
	c.raw(false, 0, layers.TCPAck|layers.TCPPsh, fill(0, 80, 0x55))
	c.fin(1024+total, 80)
	return evasionTrace(e)
}

// buildRetransStorm: every data segment is transmitted four times.
func buildRetransStorm() Trace {
	e := NewEmitter(47)
	c := newEvasionConn(e, 7, 2006, 80, 0x5000, evasionBase)
	c.handshake()
	for seg := uint32(0); seg < 8; seg++ {
		off := seg * 256
		for copies := 0; copies < 4; copies++ {
			c.raw(true, off, layers.TCPAck|layers.TCPPsh, fill(off, 256, 0))
		}
	}
	c.raw(false, 0, layers.TCPAck|layers.TCPPsh, fill(0, 120, 0x55))
	c.fin(8*256, 120)
	return evasionTrace(e)
}

// buildTruncHeaders: a benign connection with corrupt frames woven in —
// runt Ethernet frames, bad IP version/IHL, bad TCP data offset — which
// the decoder must reject (never crash on), plus option-bearing variants
// it must parse.
func buildTruncHeaders() Trace {
	e := NewEmitter(48)
	c := newEvasionConn(e, 8, 2007, 80, 0x6000, evasionBase)
	c.handshake()
	c.raw(true, 0, layers.TCPAck|layers.TCPPsh, fill(0, 400, 0))

	corruptAt := c.now
	inject := func(data []byte) {
		corruptAt = corruptAt.Add(50 * time.Microsecond)
		e.frame(corruptAt, data)
	}
	valid := layers.BuildTCP(layers.TCPOpts{
		FrameOpts: frameOpts(c.cli, c.srv, e.nextID()),
		SrcPort:   c.cport, DstPort: 80,
		Seq: c.cliISS + 400, Flags: layers.TCPAck, Payload: fill(400, 32, 0),
	})
	// Runt Ethernet frame (shorter than the 14-byte header).
	inject(valid[:10])
	// IPv4 version field corrupted to 5.
	bad := append([]byte(nil), valid...)
	bad[14] = 0x55
	inject(bad)
	// IPv4 IHL below the minimum header size.
	bad = append([]byte(nil), valid...)
	bad[14] = 0x44
	inject(bad)
	// TCP data offset below the minimum header size.
	bad = append([]byte(nil), valid...)
	bad[14+20+12] = 4 << 4
	inject(bad)
	c.now = corruptAt.Add(time.Millisecond)

	c.raw(true, 400, layers.TCPAck|layers.TCPPsh, fill(400, 200, 0))
	c.raw(false, 0, layers.TCPAck|layers.TCPPsh, fill(0, 160, 0x55))
	c.fin(600, 160)
	return evasionTrace(e)
}
