package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"enttrace/internal/stats"
)

// lattice is a Join type: the larger value wins.
type lattice uint8

func (a lattice) Join(b lattice) lattice { return max(a, b) }

type box struct{ n int64 }

// mergeFixture has a field of every kind the plan merges, and pairing
// state beside them.
type mergeFixture struct {
	count   int64
	peak    int64 `agg:"max"`
	seen    bool
	sums    Map[string, int64]
	set     Map[string, struct{}]
	boxes   Map[string, *box]
	nested  Map[string, Map[int, struct{}]]
	joins   Map[int, lattice]
	log     []int
	inner   *box
	counter *stats.Counter
	dist    *stats.Dist
	pending Map[int, string] `agg:"pairing"`
	label   string           `agg:"pairing"`
}

// fullFixture returns a fixture with every pointer and map set, holding
// what seed says.
func fullFixture(seed int64) *mergeFixture {
	f := &mergeFixture{
		count:   seed,
		peak:    seed * 10,
		sums:    map[string]int64{"a": seed},
		set:     map[string]struct{}{"s" + string(rune('0'+seed)): {}},
		boxes:   map[string]*box{"a": {n: seed}},
		nested:  Map[string, Map[int, struct{}]]{"a": {int(seed): {}}},
		joins:   map[int]lattice{1: lattice(seed)},
		log:     []int{int(seed)},
		inner:   &box{n: seed},
		counter: stats.NewCounter(),
		dist:    stats.NewDist(),
		pending: map[int]string{int(seed): "in flight"},
		label:   "worker",
	}
	f.counter.Add("k", seed)
	f.dist.Observe(float64(seed))
	return f
}

func TestMergeRules(t *testing.T) {
	dst, src := fullFixture(1), fullFixture(2)
	src.seen = true
	src.boxes["b"] = &box{n: 5}
	src.nested["b"] = map[int]struct{}{7: {}}
	Merge(dst, src)

	if dst.count != 3 || dst.peak != 20 || !dst.seen {
		t.Errorf("scalars: count %d peak %d seen %v", dst.count, dst.peak, dst.seen)
	}
	if dst.sums["a"] != 3 || len(dst.set) != 2 || dst.boxes["a"].n != 3 || dst.boxes["b"].n != 5 {
		t.Errorf("maps: sums %v set %v boxes a=%d b=%d", dst.sums, dst.set, dst.boxes["a"].n, dst.boxes["b"].n)
	}
	if len(dst.nested["a"]) != 2 || len(dst.nested["b"]) != 1 || dst.joins[1] != 2 {
		t.Errorf("nested %v joins %v", dst.nested, dst.joins)
	}
	if !reflect.DeepEqual(dst.log, []int{1, 2}) || dst.inner.n != 3 || dst.counter.Get("k") != 3 || dst.dist.N() != 2 {
		t.Errorf("log %v inner %d counter %d dist %d", dst.log, dst.inner.n, dst.counter.Get("k"), dst.dist.N())
	}
	if len(dst.pending) != 1 || dst.pending[1] == "" || dst.label != "worker" {
		t.Errorf("pairing state was merged: %v %q", dst.pending, dst.label)
	}
	// Into a full receiver an entry it lacked is copied, not shared.
	if dst.boxes["b"] == src.boxes["b"] || reflect.ValueOf(dst.nested["b"]).UnsafePointer() == reflect.ValueOf(src.nested["b"]).UnsafePointer() {
		t.Error("a copied map entry aliases its source")
	}
	src.boxes["b"].n = 100
	if dst.boxes["b"].n != 5 {
		t.Error("writing the source changed the receiver")
	}

	// A sparse receiver adopts what it lacks.
	var sparse mergeFixture
	Merge(&sparse, src)
	if sparse.inner != src.inner || sparse.counter != src.counter ||
		reflect.ValueOf(sparse.sums).UnsafePointer() != reflect.ValueOf(src.sums).UnsafePointer() {
		t.Error("a nil pointer or map field did not adopt the source's")
	}
	if sparse.pending != nil {
		t.Error("a sparse receiver adopted pairing state")
	}
}

func TestCutMovesAllButPairing(t *testing.T) {
	src := fullFixture(4)
	src.dist = stats.NewDist() // banked nothing
	sums, counter, inner, dist, pending := src.sums, src.counter, src.inner, src.dist, src.pending
	d := Cut(src)
	if d == nil {
		t.Fatal("cut of a populated value returned nil")
	}
	if d.count != 4 || src.count != 0 || d.peak != 40 || src.peak != 0 {
		t.Errorf("scalars not moved: cut %d/%d, source %d/%d", d.count, d.peak, src.count, src.peak)
	}
	if reflect.ValueOf(d.sums).UnsafePointer() != reflect.ValueOf(sums).UnsafePointer() || src.sums == nil || len(src.sums) != 0 {
		t.Error("a map is moved out and replaced by an empty one")
	}
	if d.counter != counter || src.counter == nil || src.counter.Len() != 0 {
		t.Error("a Counter is moved out and replaced by a zero one")
	}
	if d.inner == inner || d.inner.n != 4 || src.inner != inner || src.inner.n != 0 {
		t.Error("a struct pointee is cut field by field, its pointer left in place")
	}
	if d.dist != nil || src.dist != dist {
		t.Error("a field that banked nothing stays where it is")
	}
	if d.pending != nil || d.label != "" || !reflect.DeepEqual(src.pending, pending) || src.label != "worker" {
		t.Error("pairing state travelled with the cut")
	}
	if Cut(src) != nil {
		t.Error("a second cut with nothing banked is not nil")
	}

	// Merging every cut reproduces the value never cut.
	whole, cuts := fullFixture(1), fullFixture(1)
	merged := fullFixture(0)
	Cut(merged) // full, and empty
	Merge(merged, Cut(cuts))
	for i := int64(2); i < 4; i++ {
		Merge(whole, fullFixture(i))
		Merge(cuts, fullFixture(i))
		Merge(merged, Cut(cuts))
	}
	if whole.count != merged.count || whole.peak != merged.peak || !reflect.DeepEqual(whole.sums, merged.sums) ||
		!reflect.DeepEqual(whole.log, merged.log) || whole.counter.Get("k") != merged.counter.Get("k") ||
		whole.dist.N() != merged.dist.N() || !reflect.DeepEqual(whole.joins, merged.joins) {
		t.Errorf("merge of cuts differs from the uncut value:\n got %+v\nwant %+v", merged, whole)
	}
}

func TestMergeErrorNamesTheField(t *testing.T) {
	type withString struct {
		n    int
		name string
	}
	type withHook struct{ hook func() }
	type excused struct {
		n    int
		name string `agg:"pairing"`
		hook func() `agg:"pairing"`
	}
	type typo struct {
		n int `agg:"maximum"`
	}
	type nested struct{ inner Map[string, *withString] }
	type plainMap struct{ m map[string]int64 }
	for v, want := range map[any]string{
		&withString{}: "withString.name: cannot merge string",
		&withHook{}:   "withHook.hook: cannot merge func()",
		&typo{}:       `unknown tag agg:"maximum"`,
		&nested{}:     "withString.name",
		&plainMap{}:   "plainMap.m: fleet: map type map[string]int64 has no kernel",
	} {
		if err := MergeError(v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%T: MergeError = %v, want it to say %q", v, err, want)
		}
	}
	if err := MergeError(&excused{}); err != nil {
		t.Errorf("tagged fields are excused: %v", err)
	}
	if err := MergeError(&mergeFixture{}); err != nil {
		t.Errorf("mergeFixture: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Merge of a type with an unmergeable field did not panic")
		}
	}()
	Merge(&withString{}, &withString{})
}

// TestMergeFromMatchesMerge holds the fold off the wire to Merge of the
// decoded value, receiver by receiver: full, sparse (a nil field is
// folded into fresh, where Merge adopts the decoded one),
// holding nil entries, and holding empty maps (which a fold may swap for
// ones sized from the wire); sources with nil and empty entries, and
// empty.
func TestMergeFromMatchesMerge(t *testing.T) {
	srcs := map[string]func() *mergeFixture{
		"full": func() *mergeFixture {
			f := fullFixture(2)
			f.seen = true
			f.boxes["b"] = &box{n: 5}
			f.nested["b"] = map[int]struct{}{7: {}}
			f.joins[2] = 9
			return f
		},
		"nil and empty entries": func() *mergeFixture {
			f := fullFixture(3)
			f.boxes["a"], f.boxes["z"] = nil, nil
			f.nested["a"], f.nested["e"] = nil, map[int]struct{}{}
			f.sums, f.set, f.log = map[string]int64{}, nil, []int{}
			return f
		},
		"empty": func() *mergeFixture { return &mergeFixture{} },
	}
	dsts := map[string]func() *mergeFixture{
		"full":   func() *mergeFixture { return fullFixture(1) },
		"sparse": func() *mergeFixture { return &mergeFixture{} },
		"nil entries": func() *mergeFixture {
			f := fullFixture(1)
			f.boxes["b"], f.nested["a"] = nil, nil
			f.sums, f.counter, f.inner, f.dist = nil, nil, nil, nil
			return f
		},
		"empty entries": func() *mergeFixture {
			f := fullFixture(1)
			f.nested["a"], f.nested["b"] = map[int]struct{}{}, map[int]struct{}{}
			f.sums, f.set = map[string]int64{}, map[string]struct{}{}
			return f
		},
	}
	for sname, src := range srcs {
		b, err := Marshal(src())
		if err != nil {
			t.Fatal(err)
		}
		for dname, dst := range dsts {
			want, got := dst(), dst()
			decoded := new(mergeFixture)
			if err := unmarshal(b, decoded); err != nil {
				t.Fatal(err)
			}
			Merge(want, decoded)
			if err := MergeFrom(got, b); err != nil {
				t.Fatalf("%s into %s: %v", sname, dname, err)
			}
			wb, _ := Marshal(want)
			gb, _ := Marshal(got)
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s into %s: MergeFrom differs from Merge of the decoded value:\n got %+v\nwant %+v", sname, dname, got, want)
			}
		}
	}
}

// TestMergeFromZeroesNewSliceElements: a slice's new elements are folded
// into from zero, whatever the receiver's spare capacity holds — as
// Merge appends the source's elements over it.
func TestMergeFromZeroesNewSliceElements(t *testing.T) {
	b, err := Marshal(&mergeFixture{log: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	stale := []int{1, 7, 7, 7}
	got := &mergeFixture{log: stale[:1]}
	if err := MergeFrom(got, b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.log, []int{1, 2, 3}) {
		t.Errorf("folded into a slice with stale spare capacity: %v, want [1 2 3]", got.log)
	}
}

// TestMapKeysInEncoderOrder: a map whose keys repeat or run backwards is
// refused by the decode and Check alike — a map, and a stats.Counter,
// whose check has a loop of its own. Decoded, a repeated key keeps one
// entry; folded, it would merge twice.
func TestMapKeysInEncoderOrder(t *testing.T) {
	type sums struct{ m Map[string, int64] }
	type counted struct{ c stats.Counter }
	var c counted
	c.c.Add("a", 1)
	c.c.Add("b", 2)
	for name, in := range map[string]struct {
		v     any
		check func([]byte) error
	}{
		"map":     {&sums{m: map[string]int64{"a": 1, "b": 2}}, Check[sums]},
		"counter": {&c, Check[counted]},
	} {
		b, err := Marshal(in.v)
		if err != nil {
			t.Fatal(err)
		}
		// "a" and "b" are the only bytes 0x61 and 0x62: every other
		// byte is a flag, a count, a key length or a small varint.
		a, z := bytes.IndexByte(b, 'a'), bytes.LastIndexByte(b, 'b')
		for mname, mut := range map[string]func(b []byte){
			"repeated":  func(b []byte) { b[z] = 'a' },
			"backwards": func(b []byte) { b[a], b[z] = 'b', 'a' },
		} {
			bad := bytes.Clone(b)
			mut(bad)
			if err := unmarshal(bad, reflect.New(reflect.TypeOf(in.v).Elem()).Interface()); err == nil {
				t.Errorf("%s %s: the decode accepted %x", name, mname, bad)
			}
			if err := in.check(bad); err == nil {
				t.Errorf("%s %s: Check accepted %x", name, mname, bad)
			}
		}
	}
}

// TestMergeFromRefusesWhatCheckRefuses: MergeFrom fails on exactly the
// bytes Check refuses, with the same error, into a sparse receiver (whose
// nil fields the fold fills fresh) and a full one alike —
// every truncation of a full fixture, and map keys that repeat or run
// backwards.
func TestMergeFromRefusesWhatCheckRefuses(t *testing.T) {
	b, err := Marshal(fullFixture(2))
	if err != nil {
		t.Fatal(err)
	}
	for cut := range len(b) + 1 {
		want := Check[mergeFixture](b[:cut])
		for name, dst := range map[string]*mergeFixture{"sparse": {}, "full": fullFixture(1)} {
			if err := MergeFrom(dst, b[:cut]); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Errorf("cut at %d into %s: MergeFrom %v, Check %v", cut, name, err, want)
			}
		}
	}
	type sums struct{ m Map[string, int64] }
	b, err = Marshal(&sums{m: map[string]int64{"a": 1, "b": 2}})
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(b []byte){
		"repeated":  func(b []byte) { b[len(b)-2] = 'a' },
		"backwards": func(b []byte) { b[3], b[len(b)-2] = 'b', 'a' },
	} {
		bad := bytes.Clone(b)
		mut(bad)
		for dname, dst := range map[string]*sums{"sparse": {}, "full": {m: map[string]int64{"a": 1}}} {
			if err := MergeFrom(dst, bad); err == nil {
				t.Errorf("%s into %s: MergeFrom accepted %x", name, dname, bad)
			}
		}
	}
}
