package fleet

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"enttrace/internal/stats"
)

// unmarshal decodes b into *v by the codec's one read rule: *v is
// zeroed and b folded into it. MergeFrom is that fold for a type that
// merges; this takes any type the codec reads, the fixture included,
// which cannot merge.
func unmarshal(b []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errNotPointer
	}
	rv.Elem().SetZero()
	return planOf(rv.Type().Elem()).foldBytes(b, rv.UnsafePointer())
}

// canonical is the canonical form of accepted bytes b: what the
// reference walk re-encodes its decode of b to. A decode folds into a
// zero value, where a present but empty slice or map field stays nil, so
// bytes that carry one have a shorter canonical form; canonical bytes
// are their own.
func canonical(t testing.TB, b []byte, fresh func() any) []byte {
	t.Helper()
	v := fresh()
	if err := refUnmarshal(b, v); err != nil {
		t.Fatal(err)
	}
	c, err := refMarshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// diffUnmarshal decodes b through the plans and through the reference
// walk into two fresh targets and fails unless the two agree: on
// accepting b at all, on the error's text, on the decoded value, and on
// what that value re-encodes to through either encoder. It returns the
// re-encoding (nil when b is rejected): b's canonical form.
func diffUnmarshal(t testing.TB, b []byte, fresh func() any) []byte {
	t.Helper()
	got, want := fresh(), fresh()
	err, refErr := unmarshal(b, got), refUnmarshal(b, want)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("decode disagrees\n     plan: %v\nreference: %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		// DeepEqual holds NaN unequal to itself. A value that carries one
		// is not even equal to a second reference decode of the same
		// bytes; then only the re-encodings below can judge.
		again := fresh()
		if err := refUnmarshal(b, again); err != nil || reflect.DeepEqual(want, again) {
			t.Fatalf("decoded values differ\n     plan: %+v\nreference: %+v", got, want)
		}
	}
	out := make([][]byte, 0, 4)
	for _, v := range []any{got, want} {
		re, err := Marshal(v)
		if err != nil {
			t.Fatalf("plan re-encode: %v", err)
		}
		refRe, err := refMarshal(v)
		if err != nil {
			t.Fatalf("reference re-encode: %v", err)
		}
		out = append(out, re, refRe)
	}
	for _, re := range out[1:] {
		if !bytes.Equal(re, out[0]) {
			t.Fatalf("re-encodings differ (plan and reference encoders over both decodes):\n%x\n%x", out[0], re)
		}
	}
	return out[0]
}

func freshFixture() any { return new(wireFixture) }

// TestCodecMatchesReferenceWalk is the fixture-sized differential: the
// plans and the reference walk produce the same bytes for the same
// value, decode them to the same value, and what a decode re-encodes to
// is canonical — decoding and re-encoding it changes nothing. Over the
// fixture's truncations and substitutions, the check program refuses
// exactly what the fold refuses, with the same error.
func TestCodecMatchesReferenceWalk(t *testing.T) {
	for name, in := range map[string]*wireFixture{"full": mkFixture(), "zero": {}} {
		b, err := Marshal(in)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		ref, err := refMarshal(in)
		if err != nil {
			t.Fatalf("%s: reference Marshal: %v", name, err)
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("%s: plan and reference encode differently:\n%x\n%x", name, b, ref)
		}
		re := diffUnmarshal(t, b, freshFixture)
		if again := diffUnmarshal(t, re, freshFixture); !bytes.Equal(again, re) {
			t.Fatalf("%s: the canonical form is not a decode → re-encode fixed point:\n%x\n%x", name, re, again)
		}
		// Every truncation, and every byte replaced by one that ends a
		// varint or a flag, starts a longer varint or is one above what
		// was there, is read the same way by both, and by Check.
		for cut := 0; cut < len(b); cut++ {
			diffUnmarshal(t, b[:cut], freshFixture)
			checkMatchesDecode(t, b[:cut])
		}
		sub := bytes.Clone(b)
		for at, was := range b {
			for _, x := range []byte{0x00, 0x01, 0x7f, 0x80, 0xff, was + 1} {
				sub[at] = x
				diffUnmarshal(t, sub, freshFixture)
				checkMatchesDecode(t, sub)
			}
			sub[at] = was
		}
	}
}

// chain contains itself three ways — through a pointer, a slice and a
// map — so its plan is found half-built by its own children.
type chain struct {
	id     int
	next   *chain
	kids   []chain
	byName Map[string, *chain]
}

func mkChain() *chain {
	leaf := &chain{id: 3, byName: map[string]*chain{"nil": nil}}
	return &chain{
		id:     1,
		next:   &chain{id: 2, next: leaf, kids: []chain{}},
		kids:   []chain{{id: 4}, {id: 5, next: &chain{id: 6}}},
		byName: map[string]*chain{"b": {id: 7}, "a": leaf},
	}
}

func TestCodecRecursiveType(t *testing.T) {
	plans.Clear() // build chain's plan here, through its own recursion
	in := mkChain()
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refMarshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, ref) {
		t.Fatalf("plan and reference encode a recursive type differently:\n%x\n%x", b, ref)
	}
	fresh := func() any { return new(chain) }
	re := diffUnmarshal(t, b, fresh)
	if again := diffUnmarshal(t, re, fresh); !bytes.Equal(again, re) {
		t.Fatalf("recursive type's canonical form is not a fixed point:\n%x\n%x", re, again)
	}
	var out chain
	if err := unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	want := mkChain()
	want.next.kids = nil // an empty slice decodes nil
	if !reflect.DeepEqual(&out, want) {
		t.Fatalf("recursive round trip:\n got %+v\nwant %+v", &out, want)
	}
}

// TestSchemaMatchesReferenceWalk pins the schema hash the plans write to
// the one the type walk wrote: the HELLO of a site built before the
// plans must still be accepted.
func TestSchemaMatchesReferenceWalk(t *testing.T) {
	type unsupported struct {
		v any
		c complex128
		f func()
		n [3]*unsupported
	}
	for _, v := range []any{&wireFixture{}, &Hello{}, &chain{}, &unsupported{}, new(int), new(map[pairKey][]innerFixture)} {
		if got, want := SchemaOf(v), refSchemaOf(v); got != want {
			t.Errorf("%T: schema %#x, reference walk %#x", v, got, want)
		}
	}
}

// TestPlanCacheFirstUse races eight goroutines to be the first to decode
// (then encode) types the cache has never seen, a recursive one among
// them, half of them to merge and cut one and half to check one: every
// one must get a complete plan and program, whoever builds it. Run
// under -race at several -cpu values (CI's race job does).
func TestPlanCacheFirstUse(t *testing.T) {
	fixture, err := refMarshal(mkFixture())
	if err != nil {
		t.Fatal(err)
	}
	chained, err := refMarshal(mkChain())
	if err != nil {
		t.Fatal(err)
	}
	freshChain := func() any { return new(chain) }
	inputs := []struct {
		b, canon []byte
		fresh    func() any
	}{
		{fixture, canonical(t, fixture, freshFixture), freshFixture},
		{chained, canonical(t, chained, freshChain), freshChain},
	}
	for round := 0; round < 20; round++ {
		plans.Clear()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if g%2 == 0 {
					dst := fullFixture(1)
					Merge(dst, fullFixture(2))
					if d := Cut(dst); d == nil || d.count != 3 || len(d.set) != 2 || d.counter.Get("k") != 3 {
						t.Error("first-use merge and cut")
					}
				} else if err := Check[wireFixture](fixture); err != nil {
					t.Errorf("first-use check: %v", err)
				}
				for _, c := range inputs {
					out := c.fresh()
					if g%2 == 1 {
						SchemaOf(out)
					}
					if err := unmarshal(c.b, out); err != nil {
						t.Errorf("first-use decode: %v", err)
						return
					}
					re, err := Marshal(out)
					if err != nil || !bytes.Equal(re, c.canon) {
						t.Errorf("first-use re-encode differs from the reference's canonical bytes (err %v)", err)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestCounterMatchesMapForm pins a stats.Counter's wire form to the map
// its counts were before they became a table: counters of no key, one
// key, 7, 8 and 9 keys (the table takes its index past 8), a few
// thousand, and keys whose lengths straddle a uvarint's byte boundaries,
// each built by Add in a shuffled order and by Merge of two halves,
// encode to the bytes the reference walk writes for the map, and decode
// to the same counter through either, which re-encodes to those bytes.
func TestCounterMatchesMapForm(t *testing.T) {
	type holder struct {
		added  *stats.Counter
		merged stats.Counter
	}
	addressKeys := func(n int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&0xff, i&0xff)
		}
		return keys
	}
	var long []string
	for _, n := range []int{0, 1, 127, 128, 129, 255, 256, 16383, 16384} {
		long = append(long, strings.Repeat(string(rune('a'+len(long))), n))
	}
	cases := map[string][]string{"long keys": long}
	for _, n := range []int{0, 1, 7, 8, 9, 3000} {
		cases[fmt.Sprintf("%d keys", n)] = addressKeys(n)
	}
	for name, keys := range cases {
		rng := rand.New(rand.NewPCG(uint64(len(keys)), 7))
		h := &holder{added: stats.NewCounter()}
		halves := [2]*stats.Counter{stats.NewCounter(), stats.NewCounter()}
		for _, i := range rng.Perm(len(keys)) {
			n := rng.Int64N(1 << 20)
			h.added.Add(keys[i], n)
			halves[i%2].Add(keys[i], n)
		}
		h.merged.Merge(halves[0])
		h.merged.Merge(halves[1])
		b, err := Marshal(h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := refMarshal(h)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(b, ref) {
			t.Fatalf("%s: the table encodes as %x, the map form as %x", name, b, ref)
		}
		if re := diffUnmarshal(t, b, func() any { return new(holder) }); !bytes.Equal(re, b) {
			t.Fatalf("%s: not a decode → re-encode fixed point", name)
		}
	}
}
