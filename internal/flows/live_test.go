package flows

import (
	"math/rand"
	"net/netip"
	"testing"

	"enttrace/internal/layers"
)

// fuzzKeys is the key population of FuzzLiveTable: an IPv4 key and its
// IPv4-mapped IPv6 twin (equal low address bits, told apart by the family
// bit and the mapped prefix), a UDP key beside each, an IPv6 key, every
// single-word variant of those, and plain IPv4 keys to fill the table
// past a few growths.
var fuzzKeys = func() []liveKey {
	var bases []liveKey
	for _, f := range []struct {
		proto    uint8
		src, dst netip.Addr
	}{
		{layers.ProtoTCP, ipA, ipB}, {layers.ProtoTCP, ipAMapped, ipBMapped},
		{layers.ProtoUDP, ipA, ipB}, {layers.ProtoUDP, ipAMapped, ipBMapped},
		{layers.ProtoTCP, ip6A, ip6B},
	} {
		var k liveKey
		k.setAddrs(f.proto, f.src, f.dst, 1000, 80)
		bases = append(bases, k)
	}
	keys := append([]liveKey(nil), bases...)
	for _, k := range bases {
		for w := 0; w < 5; w++ {
			for _, bit := range []uint64{1, 1 << 63} {
				v := [5]uint64{k.aHi, k.aLo, k.bHi, k.bLo, k.meta}
				v[w] ^= bit
				keys = append(keys, liveKey{v[0], v[1], v[2], v[3], v[4]})
			}
		}
	}
	for i := 0; len(keys) < 256; i++ {
		var k liveKey
		k.set(0, 0x0a000000|uint64(i), 0, 0x0a010001, uint16(i), 445, uint64(layers.ProtoTCP)<<8)
		keys = append(keys, k)
	}
	return keys
}()

// FuzzLiveTable runs sequences of inserts, lookups, deletes, sweeps and
// resets against the live table and a Go map, and fails at the first
// disagreement. A record is two bytes: the operation and the key (an
// index into fuzzKeys). After every operation the table's count must be
// the map's; at the end every entry must be where a lookup finds it, and
// a lookup of every key must find what the map holds.
func FuzzLiveTable(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 200, 2000} {
		var b []byte
		for range n {
			op := rng.Intn(6) // inserts, lookups and deletes, and now and then a sweep or a reset
			if rng.Intn(50) == 0 {
				op = 6 + rng.Intn(2)
			}
			key := rng.Intn(256)
			if rng.Intn(2) == 0 {
				key = rng.Intn(55) // the twins and their single-word variants, together in one table
			}
			b = append(b, byte(op), byte(key))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m liveTable
		ref := map[liveKey]*Conn{}
		var made int64
		for ; len(data) >= 2; data = data[2:] {
			op, k := data[0], fuzzKeys[int(data[1])%len(fuzzKeys)]
			switch op % 8 {
			case 0, 1, 2: // insert
				i := m.find(&k)
				if got := m.slots[i].conn; got != ref[k] {
					t.Fatalf("insert %v: found %p, reference %p", k, got, ref[k])
				}
				if m.slots[i].conn == nil {
					c := &Conn{ord: made}
					made++
					m.slots[i] = liveSlot{key: k, conn: c}
					m.added()
					ref[k] = c
				}
			case 3, 4: // lookup
				if got := m.slots[m.find(&k)].conn; got != ref[k] {
					t.Fatalf("lookup %v: %p, reference %p", k, got, ref[k])
				}
			case 5: // delete, or a delete naming another connection
				c := ref[k]
				if data[1]&1 == 1 {
					c = &Conn{}
				}
				want := c != nil && ref[k] == c
				if got := m.remove(&k, c); got != want {
					t.Fatalf("remove %v: %v, reference %v", k, got, want)
				}
				if want {
					delete(ref, k)
				}
			case 6: // sweep: collect, then remove, every entry of one residue
				mod := int64(data[1]%7) + 2
				var doomed []liveSlot
				for _, s := range m.slots {
					if s.conn != nil && s.conn.ord%mod == 0 {
						doomed = append(doomed, s)
					}
				}
				for _, s := range doomed {
					if !m.remove(&s.key, s.conn) {
						t.Fatalf("sweep: %v not removed", s.key)
					}
				}
				for key, c := range ref {
					if c.ord%mod == 0 {
						delete(ref, key)
					}
				}
			case 7:
				m.reset()
				clear(ref)
			}
			if m.n != len(ref) {
				t.Fatalf("%d entries, reference %d", m.n, len(ref))
			}
		}
		seen := 0
		for i, s := range m.slots {
			if s.conn == nil {
				continue
			}
			seen++
			if ref[s.key] != s.conn || m.find(&s.key) != uint64(i) {
				t.Fatalf("slot %d: %v holds %p, reference %p, lookup finds slot %d", i, s.key, s.conn, ref[s.key], m.find(&s.key))
			}
		}
		if seen != len(ref) {
			t.Fatalf("%d occupied slots, reference %d entries", seen, len(ref))
		}
		for _, k := range fuzzKeys {
			if m.slots[m.find(&k)].conn != ref[k] {
				t.Fatalf("lookup %v: %p, reference %p", k, m.slots[m.find(&k)].conn, ref[k])
			}
		}
	})
}

// longestRun is the longest stretch of occupied slots: no probe, for a
// key present or absent, walks further than it.
func (m *liveTable) longestRun() int {
	longest, run := 0, 0
	// Twice round, so a run across the end of the array counts whole.
	for i := 0; i < 2*len(m.slots); i++ {
		if m.slots[i%len(m.slots)].conn == nil {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
	}
	return min(longest, len(m.slots))
}

// maxProbeRun bounds the longest run of occupied slots in a 65 536-slot
// table at 3/4 load. Over 300 seeds for each shape below, the longest run
// measured 87–283 slots (median 134), as for a uniform hash; a hash with
// one multiply left for meta measured up to 1 213 on the ports shape, and
// a collapse to one run is 49 152.
const maxProbeRun = 512

// TestLiveTableProbeLength fills tables to 3/4 load with scanner-shaped
// keys, which differ from each other in one word only, and checks that
// no probe run grows long: the hash must spread every word, under the
// seed. It also checks that two tables lay the same keys out
// differently, which a hash that ignores its seed cannot do.
func TestLiveTableProbeLength(t *testing.T) {
	const slots = 1 << 16
	const n = slots / 4 * 3
	tcp := uint64(layers.ProtoTCP) << 8
	shapes := []struct {
		name string
		key  func(i int) liveKey
	}{
		// A scanner sweeping a /16 on port 445, from below the targets
		// (b's low word varies) and from above them (a's low word varies).
		{"sweep up", func(i int) (k liveKey) {
			k.set(0, 0x0a000001, 0, 0x0a010000|uint64(i), 40000, 445, tcp)
			return
		}},
		{"sweep down", func(i int) (k liveKey) {
			k.set(0, 0xc0a80909, 0, 0x0a010000|uint64(i), 40000, 445, tcp)
			return
		}},
		// Every port of one host pair (meta varies).
		{"ports", func(i int) (k liveKey) {
			k.set(0, 0x0a000001, 0, 0x0a000002, 40000, uint16(i+1), tcp)
			return
		}},
		// An IPv6 sweep across /64s, from below and from above (a high
		// word varies).
		{"v6 prefixes up", func(i int) (k liveKey) {
			k.set(0x20010db8_00000000, 1, 0x20010db8_00010000|uint64(i), 1, 40000, 445, tcp|metaIPv6)
			return
		}},
		{"v6 prefixes down", func(i int) (k liveKey) {
			k.set(0xfe800000_00000000, 1, 0x20010db8_00010000|uint64(i), 1, 40000, 445, tcp|metaIPv6)
			return
		}},
	}
	for _, sh := range shapes {
		var tables [2]liveTable
		for ti := range tables {
			m := &tables[ti]
			for i := 0; i < n; i++ {
				k := sh.key(i)
				s := &m.slots[m.find(&k)]
				if s.conn != nil {
					t.Fatalf("%s: key %d repeats", sh.name, i)
				}
				*s = liveSlot{key: k, conn: &Conn{}}
				m.added()
			}
			if len(m.slots) != slots || m.n != n {
				t.Fatalf("%s: %d of %d slots, want %d of %d", sh.name, m.n, len(m.slots), n, slots)
			}
			if run := m.longestRun(); run > maxProbeRun {
				t.Errorf("%s: a probe run of %d slots at 3/4 load (bound %d)", sh.name, run, maxProbeRun)
			}
		}
		same := 0
		for i := range tables[0].slots {
			if tables[0].slots[i].conn != nil && tables[1].slots[i].conn != nil && tables[0].slots[i].key == tables[1].slots[i].key {
				same++
			}
		}
		// Two independent layouts agree on a handful of slots.
		if same > n/100 {
			t.Errorf("%s: two tables hold the same key in %d of %d slots: the seed does not move the hash", sh.name, same, n)
		}
	}
}
