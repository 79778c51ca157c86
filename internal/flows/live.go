package flows

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"net/netip"

	"enttrace/internal/layers"
)

// liveKey is a connection's identity in the live table: its canonical
// flow key as words, read from the decoded header. Endpoint a is the
// lower one; an address is two big-endian words, an IPv4 one its 32 bits
// in the low word. meta packs the ports, the protocol and a family bit,
// which keeps an IPv4 address apart from the IPv6 address with the same
// low word. The live table hashes the five words under its seed and
// compares them one by one.
type liveKey struct {
	aHi, aLo, bHi, bLo uint64
	meta               uint64 // a's port<<48 | b's port<<32 | proto<<8 | 1 for IPv6
}

const metaIPv6 = 1

// v4Word and v6Words are an address's words in a liveKey.
func v4Word(x netip.Addr) uint64 {
	b := x.As4()
	return uint64(binary.BigEndian.Uint32(b[:]))
}

func v6Words(x netip.Addr) (hi, lo uint64) {
	b := x.As16()
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

// set fills k with the key of the flow src:sp → dst:dp, oriented the way
// FlowKey.Canonical orients — lower address first, lower port first
// between equal addresses — by integer compare, which is Addr.Compare's
// order within one family. It reports whether the flow was flipped.
func (k *liveKey) set(sHi, sLo, dHi, dLo uint64, sp, dp uint16, meta uint64) (flipped bool) {
	flipped = sHi > dHi || sHi == dHi && (sLo > dLo || sLo == dLo && sp > dp)
	if flipped {
		sHi, sLo, sp, dHi, dLo, dp = dHi, dLo, dp, sHi, sLo, sp
	}
	*k = liveKey{sHi, sLo, dHi, dLo, uint64(sp)<<48 | uint64(dp)<<32 | meta}
	return flipped
}

// setAddrs is set for a flow's addresses, whose family picks the words.
func (k *liveKey) setAddrs(proto uint8, src, dst netip.Addr, sp, dp uint16) (flipped bool) {
	if src.Is4() {
		return k.set(0, v4Word(src), 0, v4Word(dst), sp, dp, uint64(proto)<<8)
	}
	sHi, sLo := v6Words(src)
	dHi, dLo := v6Words(dst)
	return k.set(sHi, sLo, dHi, dLo, sp, dp, uint64(proto)<<8|metaIPv6)
}

// fromPacket sets k to a decoded packet's key; ok is false for frames
// with no network-layer addresses. Ports are zero where Decode parsed no
// TCP or UDP header, except that ICMP echo keys both ports by ID,
// pairing request and reply into one flow.
func (k *liveKey) fromPacket(p *layers.Packet) (flipped, ok bool) {
	var sp, dp uint16
	switch {
	case p.Layers.Has(layers.LayerTCP):
		sp, dp = p.TCP.SrcPort, p.TCP.DstPort
	case p.Layers.Has(layers.LayerUDP):
		sp, dp = p.UDP.SrcPort, p.UDP.DstPort
	case p.Layers.Has(layers.LayerICMP) && (p.ICMP.Type == layers.ICMPEchoRequest || p.ICMP.Type == layers.ICMPEchoReply):
		sp, dp = p.ICMP.ID, p.ICMP.ID
	}
	switch {
	case p.Layers.Has(layers.LayerIPv4): // inlined: the path nearly every packet takes
		return k.set(0, v4Word(p.IP4.Src), 0, v4Word(p.IP4.Dst), sp, dp, uint64(p.IP4.Protocol)<<8), true
	case p.Layers.Has(layers.LayerIPv6):
		return k.setAddrs(p.IP6.NextHeader, p.IP6.Src, p.IP6.Dst, sp, dp), true
	}
	return false, false
}

// flowKey turns k back into a FlowKey, reversed if flipped: the key of
// the packet k was built from.
func (k *liveKey) flowKey(flipped bool) layers.FlowKey {
	addr := func(hi, lo uint64) netip.Addr {
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], hi)
		binary.BigEndian.PutUint64(b[8:], lo)
		if k.meta&metaIPv6 == 0 {
			return netip.AddrFrom4([4]byte(b[12:]))
		}
		return netip.AddrFrom16(b)
	}
	fk := layers.FlowKey{Proto: uint8(k.meta >> 8), Src: addr(k.aHi, k.aLo), Dst: addr(k.bHi, k.bLo),
		SrcPort: uint16(k.meta >> 48), DstPort: uint16(k.meta >> 32)}
	if flipped {
		return fk.Reverse()
	}
	return fk
}

// liveSlot is one slot of the live table; a nil conn marks it empty.
type liveSlot struct {
	key  liveKey
	conn *Conn
}

// liveTable maps live keys to connections by open addressing: linear
// probing over a power-of-two slot array, at most 3/4 full, deleting by
// backward shift, so no tombstone ever lengthens a probe run.
//
// The keys come from the trace, and a trace can be hostile. A hash an
// attacker can predict lets a crafted trace put every flow in one probe
// run and make each packet cost a walk of the whole table. The hash is
// therefore seeded, per table, from math/rand/v2 when the table first
// allocates: without the seed a trace cannot aim its keys, and two tables
// (two shards, two traces) lay the same keys out differently.
//
// The zero value is an empty table; it allocates at its first lookup,
// which on an empty table is always followed by an insert.
type liveTable struct {
	slots []liveSlot
	n     int // occupied slots
	seed  [6]uint64
}

// minLiveSlots is a table's first allocation.
const minLiveSlots = 16

// fold is the 64×64→128-bit multiply, its halves xored.
func fold(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	return hi ^ lo
}

// hash mixes the five words of k under the table's seed. Each address's
// two words fold together under seed words of their own, the results fold
// with meta, and that folds once more with the last seed word, so every
// word passes through two seeded multiplies. After one, keys that differ
// only in meta's port bits land on an arithmetic progression of slots,
// and for some seeds the progression packs into one long run. No word is
// xored into another before a seeded multiply, so no difference between
// two keys cancels for every seed.
func (m *liveTable) hash(k *liveKey) uint64 {
	a := fold(k.aHi^m.seed[0], k.aLo^m.seed[1])
	b := fold(k.bHi^m.seed[2], k.bLo^m.seed[3])
	return fold(fold(a^k.meta, b^m.seed[4]), m.seed[5])
}

// find returns the index of the slot holding k, or, when k is absent,
// of the empty slot that ends its probe run, where an insert puts it (see
// added).
func (m *liveTable) find(k *liveKey) uint64 {
	if m.slots == nil {
		for i := range m.seed {
			m.seed[i] = rand.Uint64()
		}
		m.slots = make([]liveSlot, minLiveSlots)
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.hash(k) & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		// Word by word, the words that differ most often first: a struct
		// compare of the 40 bytes is a memequal call.
		if s.conn == nil || s.key.aLo == k.aLo && s.key.bLo == k.bLo && s.key.meta == k.meta &&
			s.key.aHi == k.aHi && s.key.bHi == k.bHi {
			return i
		}
	}
}

// added counts a key the caller just put in the empty slot find
// returned, and grows the table once it is more than 3/4 full, which
// moves every entry.
func (m *liveTable) added() {
	m.n++
	if m.n <= len(m.slots)/4*3 {
		return
	}
	old := m.slots
	m.slots = make([]liveSlot, 2*len(old))
	mask := uint64(len(m.slots) - 1)
	for _, s := range old {
		if s.conn == nil {
			continue
		}
		i := m.hash(&s.key) & mask
		for m.slots[i].conn != nil {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// remove deletes k if its slot holds c, which is not nil, and reports
// whether it did. The entries after it in its probe run shift back over
// the hole, each as far as its home slot allows, so every run stays
// unbroken.
func (m *liveTable) remove(k *liveKey, c *Conn) bool {
	if m.n == 0 {
		return false
	}
	hole := m.find(k)
	if c == nil || m.slots[hole].conn != c {
		return false
	}
	mask := uint64(len(m.slots) - 1)
	for j := (hole + 1) & mask; m.slots[j].conn != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies cyclically
		// after the hole, in (hole, j].
		if (j-m.hash(&m.slots[j].key))&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole] = liveSlot{}
	m.n--
	return true
}

// reset empties the table and keeps its slots.
func (m *liveTable) reset() {
	clear(m.slots)
	m.n = 0
}
