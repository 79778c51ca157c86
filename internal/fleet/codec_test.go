package fleet

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"enttrace/internal/stats"
)

// wireFixture exercises every encoding path the real snapshot graph
// uses: unexported fields, nested structs, narrow integers, maps with
// composite keys, sets, maps of pointers and of maps, slices of structs,
// pointers, special-cased types and a type that contains itself.
// refused stays nil: it is on the wire only when the fuzzer sets its
// flag, and then refused, so every op of a check program is reached.
type wireFixture struct {
	name    string
	count   int64
	ratio   float64
	small   uint16
	flag    bool
	addr    netip.Addr
	when    time.Time
	dist    stats.Dist
	pairs   Map[pairKey, uint8]
	byName  Map[string, int64]
	nested  innerFixture
	ptr     *innerFixture
	nilPtr  *innerFixture
	items   []innerFixture
	raw     []byte
	arr     [2]netip.Addr
	narrow  uint32
	counter *stats.Counter
	set     Map[netip.Addr, struct{}]
	byLabel Map[string, *innerFixture]
	sets    Map[string, Map[uint16, struct{}]]
	chain   *chain
	refused *any
}

type pairKey struct{ a, b netip.Addr }

type innerFixture struct {
	label string
	n     int
	frac  float64
}

func mkFixture() *wireFixture {
	d := stats.Dist{}
	for _, v := range []float64{5, 1, 1, 3, math.Inf(1), math.NaN(), 2, 2, 2} {
		d.Observe(v)
	}
	c := stats.NewCounter()
	c.Add("tcp", 3)
	c.Add("udp", 1)
	return &wireFixture{
		name:  "site-a",
		count: -42,
		ratio: 0.125,
		small: 65535,
		flag:  true,
		addr:  netip.MustParseAddr("10.1.2.3"),
		when:  time.Date(2026, 8, 8, 12, 0, 0, 12345, time.UTC),
		dist:  d,
		pairs: map[pairKey]uint8{
			{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")}: 3,
			{netip.MustParseAddr("10.0.0.3"), netip.MustParseAddr("10.0.0.4")}: 1,
		},
		byName: map[string]int64{"tcp": 100, "udp": 7, "icmp": 1},
		nested: innerFixture{label: "in", n: 9, frac: 1.5},
		ptr:    &innerFixture{label: "p", n: -1},
		items:  []innerFixture{{label: "x"}, {label: "y", n: 2}},
		raw:    []byte{0, 1, 2, 255},
		arr: [2]netip.Addr{
			netip.MustParseAddr("192.168.0.1"),
			netip.MustParseAddr("fe80::1"),
		},
		narrow:  1<<31 + 5,
		counter: c,
		set:     map[netip.Addr]struct{}{netip.MustParseAddr("10.0.0.9"): {}, netip.MustParseAddr("10.0.0.7"): {}},
		byLabel: map[string]*innerFixture{"a": {label: "x", n: 1}, "nil": nil},
		sets:    map[string]Map[uint16, struct{}]{"a": {7: {}, 300: {}}, "empty": {}},
		chain:   mkChain(),
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := mkFixture()
	b, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out wireFixture
	if err := unmarshal(b, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	chain := mkChain()
	chain.next.kids = nil // an empty slice decodes nil
	if out.name != in.name || out.count != in.count || out.ratio != in.ratio ||
		out.small != in.small || out.flag != in.flag || out.addr != in.addr ||
		!out.when.Equal(in.when) || out.nested != in.nested ||
		*out.ptr != *in.ptr || out.nilPtr != nil ||
		len(out.items) != len(in.items) || out.items[1] != in.items[1] ||
		!bytes.Equal(out.raw, in.raw) || out.arr != in.arr {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", &out, in)
	}
	if len(out.pairs) != len(in.pairs) || out.pairs[pairKey{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")}] != 3 {
		t.Fatalf("pairs mismatch: %v", out.pairs)
	}
	if len(out.byName) != 3 || out.byName["tcp"] != 100 {
		t.Fatalf("byName mismatch: %v", out.byName)
	}
	if out.narrow != in.narrow || out.counter.Get("tcp") != 3 || out.counter.Total() != 4 ||
		!reflect.DeepEqual(out.set, in.set) || !reflect.DeepEqual(out.byLabel, in.byLabel) ||
		!reflect.DeepEqual(out.sets, in.sets) || !reflect.DeepEqual(out.chain, chain) || out.refused != nil {
		t.Fatalf("round-trip mismatch in the maps, counter or chain:\n got %+v\nwant %+v", &out, in)
	}
	if out.dist.N() != in.dist.N() || out.dist.Quantile(0.5) != in.dist.Quantile(0.5) {
		t.Fatalf("dist mismatch: n=%d median=%v", out.dist.N(), out.dist.Quantile(0.5))
	}
}

// TestUnmarshalOverwrites holds the decode to its rule: a zero value,
// folded into. Decoding into a value that already holds other contents —
// every map, slice and pointer set, map keys the bytes lack, a longer
// slice — gives what a decode into a fresh value gives, and re-encodes to
// the bytes' canonical form. The bytes of the zero fixture must clear
// every one of them. The decode runs the same walk as MergeFrom, so this
// is where the receiver's contents would leak into a decode.
func TestUnmarshalOverwrites(t *testing.T) {
	full := mkFixture()
	full.nilPtr = &innerFixture{label: "set", n: 3}
	for name, in := range map[string]*wireFixture{"full": full, "zero": {}} {
		b, err := Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var fresh wireFixture
		if err := unmarshal(b, &fresh); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := filledFixture()
		if err := unmarshal(b, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, &fresh) {
			t.Errorf("%s: decoding into a filled value differs from a fresh decode:\n got %+v\nwant %+v", name, got, &fresh)
		}
		if re, err := Marshal(got); err != nil || !bytes.Equal(re, canonical(t, b, freshFixture)) {
			t.Errorf("%s: decoding into a filled value re-encodes differently from the canonical form (%v):\n%x\n%x", name, err, re, b)
		}
	}
}

// filledFixture holds what no test fixture encodes: other scalars, map
// keys beside the fixture's, other values under the fixture's keys, a
// longer slice, a dist with pending samples.
func filledFixture() *wireFixture {
	f := mkFixture()
	f.name, f.count, f.ratio, f.small, f.flag = "stale", 7, -1, 1, false
	f.addr = netip.MustParseAddr("fe80::9")
	f.when = f.when.Add(time.Hour)
	f.dist.Observe(99)
	f.pairs[pairKey{netip.MustParseAddr("10.9.9.9"), netip.MustParseAddr("10.9.9.8")}] = 9
	f.pairs[pairKey{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")}] = 200
	f.byName["stale"], f.byName["tcp"] = 5, 1
	f.nested = innerFixture{label: "stale", n: -9, frac: 2}
	f.ptr.n = 77
	f.nilPtr = &innerFixture{label: "stale", n: 8}
	f.items = append(f.items, innerFixture{label: "z", n: 4})
	f.raw = []byte{9, 9, 9, 9, 9, 9}
	f.arr[0] = netip.MustParseAddr("10.3.3.3")
	f.narrow = 9
	f.counter.Add("stale", 2)
	f.set[netip.MustParseAddr("10.9.9.9")] = struct{}{}
	f.byLabel["a"].n, f.byLabel["stale"] = 5, &innerFixture{label: "stale"}
	f.sets["a"][9], f.sets["stale"] = struct{}{}, nil
	f.chain.next.id = 99
	refused := any(3)
	f.refused = &refused
	return f
}

// TestCodecDeterministic pins that two values with the same content —
// built with different map insertion orders — encode to identical
// bytes, and that encoding is stable across repeated calls.
func TestCodecDeterministic(t *testing.T) {
	a := mkFixture()
	b := mkFixture()
	// Rebuild b's maps in reverse insertion order.
	m := make(map[string]int64, len(b.byName))
	for _, k := range []string{"icmp", "udp", "tcp"} {
		m[k] = b.byName[k]
	}
	b.byName = m
	ba, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		bb, err := Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("iteration %d: same content, different bytes (%d vs %d)", i, len(ba), len(bb))
		}
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := Marshal(wireFixture{}); err == nil {
		t.Error("Marshal accepted a non-pointer")
	}
	var out wireFixture
	if err := unmarshal(nil, out); err == nil {
		t.Error("the decode accepted a non-pointer")
	}
	b, err := Marshal(mkFixture())
	if err != nil {
		t.Fatal(err)
	}
	if err := unmarshal(append(b, 0xFF), &out); err == nil {
		t.Error("the decode accepted trailing bytes")
	}
	for cut := 0; cut < len(b); cut += 7 {
		if err := unmarshal(b[:cut], &out); err == nil {
			t.Errorf("the decode accepted truncation at %d", cut)
		}
	}
	type withIface struct{ v any }
	if _, err := Marshal(&withIface{v: 3}); err == nil {
		t.Error("Marshal accepted an interface field")
	}
	// A binary form the codec does not know is refused by name, not
	// walked field by field.
	type withPrefix struct{ p netip.Prefix }
	_, merr := Marshal(&withPrefix{})
	for name, err := range map[string]error{
		"Marshal":    merr,
		"decode":     unmarshal([]byte{0}, new(withPrefix)),
		"MergeError": MergeError(&withPrefix{}),
	} {
		if err == nil || !strings.Contains(err.Error(), "netip.Prefix has a binary form") {
			t.Errorf("%s of a netip.Prefix field: %v, want it to name the type", name, err)
		}
	}
}

// TestAddrWireForm: an address is written as its own MarshalBinary
// form, length first, for every kind of address.
func TestAddrWireForm(t *testing.T) {
	type holder struct{ a netip.Addr }
	for _, a := range []netip.Addr{
		{},
		netip.MustParseAddr("10.1.2.3"),
		netip.MustParseAddr("fe80::1"),
		netip.MustParseAddr("fe80::1%eth0"),
		netip.MustParseAddr("::ffff:10.1.2.3"),
	} {
		raw, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want := append(binary.AppendUvarint(nil, uint64(len(raw))), raw...)
		got, err := Marshal(&holder{a})
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%v: Marshal = %x, %v; want %x", a, got, err, want)
		}
		var back holder
		if err := unmarshal(got, &back); err != nil || back.a != a {
			t.Errorf("%v: decode = %v, %v", a, back.a, err)
		}
	}
}

func TestSchemaOf(t *testing.T) {
	a := SchemaOf(&wireFixture{})
	if a != SchemaOf(&wireFixture{}) {
		t.Fatal("schema hash unstable")
	}
	if a != SchemaOf(wireFixture{}) {
		t.Fatal("pointer vs value schema mismatch")
	}
	// Pinned: how the hash is computed may change, the hash may not — a
	// site built before the change must still pass HELLO.
	if want := uint64(0x6e026065f2e016aa); a != want {
		t.Fatalf("wireFixture schema hash drifted: %#x, want %#x", a, want)
	}
	type renamed struct {
		namex string // one field name differs from wireFixture.name
		count int64
	}
	type sameShape struct {
		name  string
		count int64
	}
	if SchemaOf(&renamed{}) == SchemaOf(&sameShape{}) {
		t.Fatal("field rename did not change schema hash")
	}
	type widened struct {
		name  string
		count int32
	}
	if SchemaOf(&widened{}) == SchemaOf(&sameShape{}) {
		t.Fatal("field type change did not change schema hash")
	}
}

// TestCodecDistMergesAfterDecode pins the property core relies on: a
// decoded snapshot keeps merging exactly.
func TestCodecDistMergesAfterDecode(t *testing.T) {
	type holder struct{ d stats.Dist }
	var h holder
	for i := 0; i < 1000; i++ {
		h.d.Observe(float64(i % 37))
	}
	b, err := Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var got holder
	if err := unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	ref, m := stats.NewDist(), stats.NewDist()
	for i := 0; i < 2; i++ {
		ref.Merge(&h.d)
		m.Merge(&got.d)
	}
	if m.N() != ref.N() || m.Quantile(0.9) != ref.Quantile(0.9) || m.Sum() != ref.Sum() {
		t.Fatalf("decoded dist merges differently: n=%d q90=%v", m.N(), m.Quantile(0.9))
	}
}
