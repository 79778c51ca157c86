package fleet

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"time"
	"unsafe"

	"enttrace/internal/stats"
)

// The per-value reflection walk the codec was before it compiled plans,
// kept verbatim as the reference the plans must agree with: it asks
// every question (which wire form, which fields, is this a special
// type) of the type again for every value it meets, and hashes the
// schema by its own walk over the type. Plan and reference share only
// the byte-level primitives on encoder and decoder — among them the rule
// that a map's keys come in the encoder's order, which came after the
// plans and holds for both. A stats.Counter, whose counts became a table
// after the plans, is walked as the struct it was (mapCounter). Pairing
// state, which left the wire after the plans, is skipped by every walk.
//
// The decode follows the plans' one read rule, which also came after
// them: a decode is a merge into a zero value. So a scalar merges into
// the zero it finds (adds, ORs, joins, or takes the maximum under
// agg:"max"), a present but empty slice or map stays nil — but for a map
// under a map key, which Merge gives a fresh map — and a Counter's counts
// are added in the order read.

// mapCounter is stats.Counter as it was: its counts a map, then the
// total. The reference writes, reads and hashes a Counter as one, under
// the Counter's name.
type mapCounter struct {
	counts map[string]int64
	total  int64
}

var mapCounterType = reflect.TypeFor[mapCounter]()

// toMapCounter is c as the struct it was.
func toMapCounter(c *stats.Counter) mapCounter {
	mc := mapCounter{total: c.Total()}
	if entries := c.Entries(); entries != nil {
		mc.counts = make(map[string]int64, len(entries))
		for _, e := range entries {
			mc.counts[e.Key] = e.N
		}
	}
	return mc
}

// fromMapCounter is the Counter that adds mc's counts to a zero one in
// the order the reference writes them, by encoded key; mc's total is
// not read, as Counter.Merge does not read it.
func fromMapCounter(mc mapCounter) stats.Counter {
	keys := make([]string, 0, len(mc.counts))
	for k := range mc.counts {
		keys = append(keys, k)
	}
	encoded := func(k string) string {
		var e encoder
		e.bytes([]byte(k))
		return string(e.buf)
	}
	sort.Slice(keys, func(i, j int) bool { return encoded(keys[i]) < encoded(keys[j]) })
	var c stats.Counter
	for _, k := range keys {
		c.Add(k, mc.counts[k])
	}
	return c
}

func refMarshal(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil, errNotPointer
	}
	var e encoder
	if err := e.refEncode(rv.Elem()); err != nil {
		return nil, err
	}
	return e.buf, nil
}

func refUnmarshal(b []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errNotPointer
	}
	d := decoder{buf: b}
	if err := d.refDecode(rv.Elem()); err != nil {
		return err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("fleet: %d trailing bytes after decode", len(d.buf))
	}
	return nil
}

func refSchemaOf(v any) uint64 {
	t := reflect.TypeOf(v)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	h := fnv.New64a()
	refHashType(h, t, map[reflect.Type]bool{})
	return h.Sum64()
}

func refHashType(h interface{ Write([]byte) (int, error) }, t reflect.Type, seen map[reflect.Type]bool) {
	// Special-cased types hash by name, not structure: their wire form
	// is their own MarshalBinary/runs layout, not the field walk.
	switch {
	case t == timeType:
		h.Write([]byte("time.Time"))
		return
	case t == distType:
		h.Write([]byte("stats.Dist:runs"))
		return
	case t == counterType:
		refHashType(h, mapCounterType, seen)
		return
	case isBinaryCodec(t):
		h.Write([]byte("binary:" + t.String()))
		return
	}
	if seen[t] {
		// Recursive type: the name already contributed where it was
		// first seen; terminate the walk.
		h.Write([]byte("rec:" + t.String()))
		return
	}
	switch t.Kind() {
	case reflect.Pointer:
		h.Write([]byte("*"))
		refHashType(h, t.Elem(), seen)
	case reflect.Slice:
		h.Write([]byte("[]"))
		refHashType(h, t.Elem(), seen)
	case reflect.Array:
		fmt.Fprintf(h.(interface{ Write([]byte) (int, error) }), "[%d]", t.Len())
		refHashType(h, t.Elem(), seen)
	case reflect.Map:
		h.Write([]byte("map["))
		refHashType(h, t.Key(), seen)
		h.Write([]byte("]"))
		refHashType(h, t.Elem(), seen)
	case reflect.Struct:
		seen[t] = true
		name := t.String()
		if t == mapCounterType {
			name = counterType.String()
		}
		h.Write([]byte("struct " + name + "{"))
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Tag.Get("agg") == "pairing" {
				continue
			}
			h.Write([]byte(f.Name + ":"))
			refHashType(h, f.Type, seen)
			h.Write([]byte(";"))
		}
		h.Write([]byte("}"))
		delete(seen, t)
	default:
		h.Write([]byte(t.Kind().String()))
	}
}

// launder returns a readable+writable view of v. Values reached through
// unexported struct fields are flagged read-only by the reflect
// package; re-deriving the value from its address strips the flag. The
// codec keeps every value addressable precisely so this works.
func launder(v reflect.Value) reflect.Value {
	if !v.CanInterface() && v.CanAddr() {
		return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	return v
}

func (e *encoder) refEncode(v reflect.Value) error {
	v = launder(v)
	t := v.Type()

	// Special cases first: exact wire forms owned by the value's own
	// package.
	switch {
	case t == timeType:
		b, err := v.Interface().(time.Time).MarshalBinary()
		if err != nil {
			return err
		}
		e.bytes(b)
		return nil
	case t == distType:
		vals, counts, nan := stats.DistRuns(v.Addr().Interface().(*stats.Dist))
		e.varint(nan)
		e.uvarint(uint64(len(vals)))
		for i := range vals {
			e.float64(vals[i])
			e.varint(counts[i])
		}
		return nil
	case t == counterType:
		mc := toMapCounter(v.Addr().Interface().(*stats.Counter))
		return e.refEncode(reflect.ValueOf(&mc).Elem())
	case isBinaryCodec(t):
		b, err := v.Interface().(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			return err
		}
		e.bytes(b)
		return nil
	}

	switch t.Kind() {
	case reflect.Bool:
		if v.Bool() {
			e.buf = append(e.buf, 1)
		} else {
			e.buf = append(e.buf, 0)
		}
	case reflect.Int, reflect.Int64:
		e.varint(v.Int())
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.uvarint(v.Uint())
	case reflect.Float64:
		e.float64(v.Float())
	case reflect.String:
		e.bytes([]byte(v.String()))
	case reflect.Slice:
		if v.IsNil() {
			e.buf = append(e.buf, 0)
		} else {
			e.buf = append(e.buf, 1)
			e.uvarint(uint64(v.Len()))
			if t.Elem().Kind() == reflect.Uint8 {
				e.buf = append(e.buf, v.Bytes()...)
				return nil
			}
			for i := 0; i < v.Len(); i++ {
				if err := e.refEncode(v.Index(i)); err != nil {
					return err
				}
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := e.refEncode(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if v.IsNil() {
			e.buf = append(e.buf, 0)
			return nil
		}
		e.buf = append(e.buf, 1)
		e.uvarint(uint64(v.Len()))
		// Deterministic order: encode each (key, value) pair into a
		// scratch buffer, sort the pairs by bytes, append.
		type entry struct{ k, kv []byte }
		entries := make([]entry, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			var ke, ve encoder
			// Map keys/values are not addressable; copy them into
			// fresh addressable slots before the walk.
			k := reflect.New(t.Key()).Elem()
			k.Set(iter.Key())
			if err := ke.refEncode(k); err != nil {
				return err
			}
			val := reflect.New(t.Elem()).Elem()
			val.Set(iter.Value())
			if err := ve.refEncode(val); err != nil {
				return err
			}
			entries = append(entries, entry{k: ke.buf, kv: append(ke.buf, ve.buf...)})
		}
		sort.Slice(entries, func(i, j int) bool {
			return string(entries[i].k) < string(entries[j].k)
		})
		for _, en := range entries {
			e.buf = append(e.buf, en.kv...)
		}
	case reflect.Pointer:
		if v.IsNil() {
			e.buf = append(e.buf, 0)
			return nil
		}
		e.buf = append(e.buf, 1)
		return e.refEncode(v.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Tag.Get("agg") == "pairing" {
				continue
			}
			if err := e.refEncode(v.Field(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("fleet: cannot encode kind %s (%s)", t.Kind(), t)
	}
	return nil
}

// refDecode merges the value read from the stream into v (addressable,
// and zero but where a map entry's is fresh).
func (d *decoder) refDecode(v reflect.Value) error {
	v = launder(v)
	t := v.Type()

	switch {
	case t == timeType:
		b, err := d.bytes()
		if err != nil {
			return err
		}
		var tm time.Time
		if err := tm.UnmarshalBinary(b); err != nil {
			return fmt.Errorf("fleet: time: %w", err)
		}
		v.Set(reflect.ValueOf(tm))
		return nil
	case t == distType:
		nan, err := d.varint()
		if err != nil {
			return err
		}
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(d.buf))/9 { // ≥ 9 bytes per run on the wire
			return errShort
		}
		vals := make([]float64, n)
		counts := make([]int64, n)
		for i := range vals {
			raw, err := d.take(8)
			if err != nil {
				return err
			}
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
			if counts[i], err = d.varint(); err != nil {
				return err
			}
		}
		var dist stats.Dist
		if err := stats.MergeRuns(&dist, vals, counts, nan); err != nil {
			return fmt.Errorf("fleet: dist: %w", err)
		}
		v.Set(reflect.ValueOf(dist))
		return nil
	case t == counterType:
		var mc mapCounter
		if err := d.refDecode(reflect.ValueOf(&mc).Elem()); err != nil {
			return err
		}
		v.Set(reflect.ValueOf(fromMapCounter(mc)))
		return nil
	case isBinaryCodec(t):
		b, err := d.bytes()
		if err != nil {
			return err
		}
		nv := reflect.New(t)
		if err := nv.Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(b); err != nil {
			return fmt.Errorf("fleet: %s: %w", t, err)
		}
		v.Set(nv.Elem())
		return nil
	}

	switch t.Kind() {
	case reflect.Bool:
		f, err := d.byteFlag()
		if err != nil {
			return err
		}
		refMerge(v, reflect.ValueOf(f).Convert(t), false)
	case reflect.Int, reflect.Int64:
		x, err := d.varint()
		if err != nil {
			return err
		}
		if v.OverflowInt(x) {
			return fmt.Errorf("fleet: %d overflows %s", x, t)
		}
		refMerge(v, reflect.ValueOf(x).Convert(t), false)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, err := d.uvarint()
		if err != nil {
			return err
		}
		if v.OverflowUint(x) {
			return fmt.Errorf("fleet: %d overflows %s", x, t)
		}
		refMerge(v, reflect.ValueOf(x).Convert(t), false)
	case reflect.Float64:
		raw, err := d.take(8)
		if err != nil {
			return err
		}
		refMerge(v, reflect.ValueOf(math.Float64frombits(binary.LittleEndian.Uint64(raw))).Convert(t), false)
	case reflect.String:
		b, err := d.bytes()
		if err != nil {
			return err
		}
		v.SetString(string(b))
	case reflect.Slice:
		present, err := d.byteFlag()
		if err != nil {
			return err
		}
		if !present {
			return nil
		}
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if t.Elem().Kind() == reflect.Uint8 {
			b, err := d.take(int(n))
			if err != nil || n == 0 {
				return err
			}
			v.SetBytes(append([]byte(nil), b...))
			return nil
		}
		// A decoded element costs ≥ 1 wire byte; bound the allocation.
		if n > uint64(len(d.buf))+1 {
			return errShort
		}
		if n == 0 {
			return nil
		}
		s := reflect.MakeSlice(t, int(n), int(n))
		for i := 0; i < int(n); i++ {
			if err := d.refDecode(s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := d.refDecode(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		present, err := d.byteFlag()
		if err != nil {
			return err
		}
		if !present {
			return nil
		}
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(d.buf))+1 {
			return errShort
		}
		if n == 0 {
			return nil
		}
		m := reflect.MakeMapWithSize(t, int(n))
		var prev []byte
		for i := 0; i < int(n); i++ {
			k := reflect.New(t.Key()).Elem()
			start := d.buf
			if err := d.refDecode(k); err != nil {
				return err
			}
			if err := d.ordered(start, &prev, i == 0); err != nil {
				return err
			}
			val := reflect.New(t.Elem()).Elem()
			if t.Elem().Kind() == reflect.Map && len(d.buf) > 0 && d.buf[0] == 1 {
				val.Set(reflect.MakeMap(t.Elem())) // a key the wire holds a map under gets a fresh one
			}
			if err := d.refDecode(val); err != nil {
				return err
			}
			m.SetMapIndex(k, val)
		}
		v.Set(m)
	case reflect.Pointer:
		present, err := d.byteFlag()
		if err != nil {
			return err
		}
		if !present {
			return nil
		}
		nv := reflect.New(t.Elem())
		if err := d.refDecode(nv.Elem()); err != nil {
			return err
		}
		v.Set(nv)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			var err error
			switch f.Tag.Get("agg") {
			case "pairing":
				continue
			case "max":
				x := reflect.New(f.Type).Elem()
				if err = d.refDecode(x); err == nil {
					refMerge(launder(v.Field(i)), x, true)
				}
			default:
				err = d.refDecode(v.Field(i))
			}
			if err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("fleet: cannot decode kind %s (%s)", t.Kind(), t)
	}
	return nil
}

// refMerge merges the scalar x into v as the plans' scalar fold does:
// by maximum under agg:"max", through a Join method where v's type has
// one, and otherwise by adding or ORing.
func refMerge(v, x reflect.Value, byMax bool) {
	t := v.Type()
	j, join := t.MethodByName("Join")
	join = join && j.Type.NumIn() == 2 && j.Type.In(1) == t && j.Type.NumOut() == 1 && j.Type.Out(0) == t
	switch k := t.Kind(); {
	case byMax && v.CanInt():
		v.SetInt(max(v.Int(), x.Int()))
	case byMax && v.CanUint():
		v.SetUint(max(v.Uint(), x.Uint()))
	case byMax && v.CanFloat():
		v.SetFloat(max(v.Float(), x.Float()))
	case join:
		v.Set(j.Func.Call([]reflect.Value{v, x})[0])
	case k == reflect.Bool:
		v.SetBool(v.Bool() || x.Bool())
	case v.CanInt():
		v.SetInt(v.Int() + x.Int())
	case v.CanUint():
		v.SetUint(v.Uint() + x.Uint())
	default:
		v.SetFloat(v.Float() + x.Float())
	}
}
