// Package fleet is the two-tier aggregation wire layer: a compact,
// versioned binary encoding for per-window epoch snapshot deltas, a
// CRC-framed stream protocol with per-site sequence numbers, a shipper
// that streams window deltas over TCP with exponential backoff and
// at-least-once redelivery, and an aggregator that receives, dedups,
// and acknowledges them. What a merged report means lives in
// internal/core, which declares the aggregate types; this package owns
// bytes on the wire, delivery, and the mechanics of merging and cutting.
//
// The payload codec is deterministic and driven by reflection: it
// serializes any acyclic value graph of plain data (structs — exported
// or not — maps, slices, strings, numbers, netip.Addr, time.Time),
// producing identical bytes for identical values (map entries are
// sorted by encoded key). Reflection is paid per type, not per value:
// the first time a type is met it is compiled into a plan (wire form,
// field offsets, special cases all decided), and values are encoded and
// decoded by running the plan. A map's plan runs a kernel compiled for
// its key and value types, so an aggregate declares each of its maps a
// fleet.Map; a map of any other type fails, naming it. A 64-bit schema
// hash derived from the same plans pins the layout: two builds agree on
// the hash exactly when they agree on every field name, order, and type
// in the graph, so a decoder can reject a frame from a mismatched build
// before touching the payload. See DESIGN.md "Fleet aggregation".
//
// The same plan merges, cuts and tests for emptiness (Merge, Cut), so
// an aggregate is declared once — its fields — and folds the way it is
// shipped. Numbers add, bools OR, maps union and merge present values,
// slices append, a nil pointer or map field adopts the source's, and
// stats.Counter, stats.Dist and any type with a Join method combine
// through their own methods. Two struct tags declare the exceptions:
// agg:"max" merges a number by maximum, and agg:"pairing" marks state
// that stays with its owner — a cut leaves it behind, merge and
// emptiness ignore it, and the codec neither writes it nor hashes it
// into the schema. See DESIGN.md "Epoch cuts and windowed reports".
//
// Encoded bytes are read by one walk of the plan (fold), with one rule:
// what it reads is merged into the destination. MergeFrom folds bytes
// straight into a destination — exactly what Merge gives with the
// payload decoded, without building the decoded value — and decoding is
// that fold into a zero value: an empty collection stays nil, a Dist
// holds its runs staged, pairing state stays zero. Check only reads
// bytes, without allocating, by running the type's check program
// (check.go). The fold and the program each state every rule — a
// presence flag, a count's bound, a map's key order, an integer's width
// — so that Check refuses exactly what the fold refuses, with the same
// error, is held by test. What a receiver checks on arrival is what it
// folds later. See DESIGN.md "Fleet aggregation".
package fleet

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/netip"
	"reflect"
	"sync"
	"time"
	"unsafe"

	"enttrace/internal/stats"
)

// Codec errors.
var (
	errNotPointer = fmt.Errorf("fleet: codec target must be a non-nil pointer")
)

// Marshal serializes v (which must be a pointer to the value graph)
// into deterministic bytes. A value of a kind no aggregate holds — an
// interface, a func, a chan, an unsafe.Pointer, a complex number, an
// int8, int16, int32, uint, uintptr or float32 — is refused.
func Marshal(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil, errNotPointer
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.buf = e.buf[:0]
	if err := planOf(rv.Type().Elem()).enc(e, rv.UnsafePointer()); err != nil {
		return nil, err
	}
	return bytes.Clone(e.buf), nil
}

// SchemaOf returns the 64-bit schema hash of v's type graph. Any change
// to a field name, order, kind, or to the special-cased encodings in
// the graph changes the hash; the wire HELLO carries it so mismatched
// builds fail loudly instead of mis-decoding.
func SchemaOf(v any) uint64 {
	t := reflect.TypeOf(v)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	h := fnv.New64a()
	planOf(t).schema(h, map[reflect.Type]bool{})
	return h.Sum64()
}

// Merge folds *src into *dst. Into a full dst — every pointer and map
// field set — nothing is shared: a map entry dst lacks is copied, and
// src stays usable. A nil pointer or map field of dst adopts src's
// instead, which is how a sparse receiver takes a delta it consumes.
// Pairing state is neither read nor written. It panics when T has a
// field the plan cannot merge (MergeError).
func Merge[T any](dst, src *T) {
	mergePlan[T]().merge(unsafe.Pointer(dst), unsafe.Pointer(src))
}

// Cut moves everything *src holds but its pairing state into a new T and
// leaves *src usable: a moved map is replaced by an empty one, a moved
// pointer by a fresh zero value (a struct's is cut field by field, so
// its pairing state stays too). A field that holds nothing stays where
// it is, and the cut holds nil there. Cut returns nil when *src holds
// nothing at all, so merging every cut reproduces the value never cut.
func Cut[T any](src *T) *T {
	p := mergePlan[T]()
	if p.empty(unsafe.Pointer(src)) {
		return nil
	}
	out := new(T)
	p.cut(unsafe.Pointer(out), unsafe.Pointer(src))
	return out
}

// MergeFrom folds the value encoded in b into *dst: exactly what
// Merge(dst, v) gives for the v that MergeFrom decodes from b into a
// zero T, without building v. Where Merge would adopt a field of v
// because dst's is nil, MergeFrom folds that field into a fresh zero
// value. Decoding is MergeFrom into a zero value. It fails on exactly
// the bytes Check refuses, and may leave dst partly merged when it does:
// check bytes on arrival (Check), fold them later. It panics like Merge
// when T has a field the plan cannot merge.
func MergeFrom[T any](dst *T, b []byte) error {
	return mergePlan[T]().foldBytes(b, unsafe.Pointer(dst))
}

// Check reports whether MergeFrom would accept b for a *T, with the
// error MergeFrom would return, without decoding b and without
// allocating once the plan is built: it runs T's check program.
func Check[T any](b []byte) error {
	prog := planOf(reflect.TypeFor[T]()).program()
	d := decoders.Get().(*decoder)
	d.buf = b
	return d.done(d.run(prog))
}

// foldBytes runs the fold over all of b with a pooled decoder.
func (p *plan) foldBytes(b []byte, dst unsafe.Pointer) error {
	d := decoders.Get().(*decoder)
	d.buf = b
	return d.done(p.fold(d, dst))
}

// MergeError says which field of v's type graph Merge and Cut have no
// rule for and no agg tag excuses (a string, an interface, a func, an
// array…), or returns nil when the whole graph merges.
func MergeError(v any) error {
	t := reflect.TypeOf(v)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return planOf(t).mergeErr
}

func mergePlan[T any]() *plan {
	p := planOf(reflect.TypeFor[T]())
	if p.mergeErr != nil {
		panic(p.mergeErr)
	}
	return p
}

// plan is the codec compiled for one type. Everything that depends on
// the type alone is decided when the plan is built — the wire form, the
// struct fields and their offsets, whether the type is one of the
// special-cased ones — so running it asks no questions of the type
// again. Every op takes the addresses of values of the type. enc writes
// the value at v. fold is the one read walk: it reads one encoded value
// and merges it into the value at dst as merge would merge the decoded
// value. A type that cannot merge — a string, an address, a time, an
// array — is folded only into a zero value (a map key's slot, a fresh
// pointee or slice element, a decode), and its fold sets it. emit appends
// the type's ops to a check program (check.go), and program assembles
// and keeps the type's own. schema writes the type's contribution to
// the schema hash; seen holds the struct types open on the path down to
// it.
//
// merge, cut and empty are the type's aggregate ops: merge folds src
// into dst, cut moves what src holds into the zero value at dst and
// leaves src usable, empty reports whether v holds nothing. Like the
// codec's, they pass over pairing state. A type they cannot handle has
// none, and mergeErr says why. leaf marks a type that merges through
// its own method and whose zero value is ready to use, so a cut moves it
// whole.
type plan struct {
	enc    func(e *encoder, v unsafe.Pointer) error
	fold   func(d *decoder, dst unsafe.Pointer) error
	emit   func(a *asm)
	schema func(h io.Writer, seen map[reflect.Type]bool)
	once   sync.Once
	prog   []op

	merge    func(dst, src unsafe.Pointer)
	cut      func(dst, src unsafe.Pointer)
	empty    func(v unsafe.Pointer) bool
	mergeErr error
	leaf     bool
}

// plans caches every complete plan by reflect.Type, for the life of the
// process: the set of types is fixed by the build.
var plans sync.Map

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	// Build everything t reaches privately and publish only what is
	// complete: no other goroutine may find a plan whose children are
	// still being filled in. Two goroutines that meet a type together
	// both build it; the plans are interchangeable, and whichever is
	// stored first serves everyone after.
	b := planBuilder{}
	p := b.plan(t)
	for t, p := range b {
		plans.LoadOrStore(t, p)
	}
	return p
}

// planBuilder holds the plans of one build, complete or not.
type planBuilder map[reflect.Type]*plan

// plan returns t's plan, building it if neither the cache nor this build
// has it. A type that contains itself finds its own entry here while it
// is still being filled in; that is safe because a parent keeps the
// *plan and reads enc, fold, emit and schema through it only when run.
func (b planBuilder) plan(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if p := b[t]; p != nil {
		return p
	}
	p := new(plan)
	b[t] = p
	b.fill(p, t)
	return p
}

var (
	timeType          = reflect.TypeOf(time.Time{})
	addrType          = reflect.TypeFor[netip.Addr]()
	distType          = reflect.TypeOf(stats.Dist{})
	counterType       = reflect.TypeOf(stats.Counter{})
	binaryMarshaler   = reflect.TypeOf((*encoding.BinaryMarshaler)(nil)).Elem()
	binaryUnmarshaler = reflect.TypeOf((*encoding.BinaryUnmarshaler)(nil)).Elem()
)

// isBinaryCodec reports whether t round-trips through encoding.Binary
// (Un)Marshaler. time.Time and netip.Addr qualify, and the plan builder
// matches them first, by identity; it refuses any other such type.
func isBinaryCodec(t reflect.Type) bool {
	return t.Implements(binaryMarshaler) && reflect.PointerTo(t).Implements(binaryUnmarshaler)
}

// label is the schema of a type whose contribution is a fixed string.
func label(s string) func(io.Writer, map[reflect.Type]bool) {
	return func(h io.Writer, _ map[reflect.Type]bool) { io.WriteString(h, s) }
}

// field is one field of a struct plan.
type field struct {
	name   string
	offset uintptr
	plan   *plan
}

// signed, unsigned and number are the kinds the plan merges by adding:
// the ones an aggregate holds. Any other number is refused.
type (
	signed interface {
		int | int64
	}
	unsigned interface {
		uint8 | uint16 | uint32 | uint64
	}
	number interface {
		signed | unsigned | float64
	}
)

// scalarOps are the codec and aggregate ops of a scalar: merge by add or
// OR, or by max (agg:"max"); a cut moves the value and zeroes the
// source; zero is empty. write encodes the scalar at v; read decodes one
// value of the kind into the scalar at w, refusing one the kind cannot
// hold (t names the type in the error); check is the op that reads past
// one.
type scalarOps struct {
	merge, max, cut func(dst, src unsafe.Pointer)
	empty           func(v unsafe.Pointer) bool
	write           func(e *encoder, v unsafe.Pointer) error
	read            func(d *decoder, t reflect.Type, w unsafe.Pointer) error
	check           op
}

func numberOps[T number](check opcode, write func(*encoder, unsafe.Pointer) error, read func(*decoder, reflect.Type, unsafe.Pointer) error) scalarOps {
	return scalarOps{
		merge: func(dst, src unsafe.Pointer) { *(*T)(dst) += *(*T)(src) },
		max:   func(dst, src unsafe.Pointer) { *(*T)(dst) = max(*(*T)(dst), *(*T)(src)) },
		cut:   func(dst, src unsafe.Pointer) { *(*T)(dst), *(*T)(src) = *(*T)(src), 0 },
		empty: func(v unsafe.Pointer) bool { return *(*T)(v) == 0 },
		write: write,
		read:  read,
		check: op{code: check, width: uint8(unsafe.Sizeof(T(0)) * 8)},
	}
}

func intOps[T signed]() scalarOps {
	return numberOps[T](opVarint, func(e *encoder, v unsafe.Pointer) error {
		e.varint(int64(*(*T)(v)))
		return nil
	}, func(d *decoder, t reflect.Type, w unsafe.Pointer) error {
		x, err := d.varint()
		if err == nil && int64(T(x)) != x {
			err = fmt.Errorf("fleet: %d overflows %s", x, t)
		}
		*(*T)(w) = T(x)
		return err
	})
}

func uintOps[T unsigned]() scalarOps {
	return numberOps[T](opUvarint, func(e *encoder, v unsafe.Pointer) error {
		e.uvarint(uint64(*(*T)(v)))
		return nil
	}, func(d *decoder, t reflect.Type, w unsafe.Pointer) error {
		x, err := d.uvarint()
		if err == nil && uint64(T(x)) != x {
			err = fmt.Errorf("fleet: %d overflows %s", x, t)
		}
		*(*T)(w) = T(x)
		return err
	})
}

var scalars = map[reflect.Kind]scalarOps{
	reflect.Int: intOps[int](), reflect.Int64: intOps[int64](),
	reflect.Uint8: uintOps[uint8](), reflect.Uint16: uintOps[uint16](),
	reflect.Uint32: uintOps[uint32](), reflect.Uint64: uintOps[uint64](),
	reflect.Float64: numberOps[float64](opFixed, func(e *encoder, v unsafe.Pointer) error {
		e.float64(*(*float64)(v))
		return nil
	}, func(d *decoder, _ reflect.Type, w unsafe.Pointer) error {
		raw, err := d.take(8)
		if err == nil {
			*(*float64)(w) = math.Float64frombits(binary.LittleEndian.Uint64(raw))
		}
		return err
	}),
	reflect.Bool: {
		check: op{code: opFlag},
		merge: func(dst, src unsafe.Pointer) { *(*bool)(dst) = *(*bool)(dst) || *(*bool)(src) },
		cut:   func(dst, src unsafe.Pointer) { *(*bool)(dst), *(*bool)(src) = *(*bool)(src), false },
		empty: func(v unsafe.Pointer) bool { return !*(*bool)(v) },
		write: func(e *encoder, v unsafe.Pointer) error {
			e.flag(*(*bool)(v))
			return nil
		},
		read: func(d *decoder, _ reflect.Type, w unsafe.Pointer) error {
			f, err := d.byteFlag()
			*(*bool)(w) = f
			return err
		},
	},
}

// scalarFold is a scalar's fold: it reads the value into the decoder's
// scratch word and merges it from there.
func scalarFold(t reflect.Type, read func(*decoder, reflect.Type, unsafe.Pointer) error, merge func(dst, src unsafe.Pointer)) func(*decoder, unsafe.Pointer) error {
	return func(d *decoder, dst unsafe.Pointer) error {
		w := unsafe.Pointer(&d.word)
		if err := read(d, t, w); err != nil {
			return err
		}
		merge(dst, w)
		return nil
	}
}

// cannotMerge records that t has no aggregate ops.
func (p *plan) cannotMerge(t reflect.Type) {
	p.mergeErr = fmt.Errorf("cannot merge %s", t)
}

// fail makes every op of p that can fail — encoding, folding, checking,
// merging — fail with err.
func (p *plan) fail(err error) {
	p.mergeErr = err
	p.enc = func(*encoder, unsafe.Pointer) error { return err }
	p.fold = func(*decoder, unsafe.Pointer) error { return err }
	p.emit = emits(op{code: opFail, arg: err})
}

// fill compiles t into p: the one place the codec dispatches on type.
func (b planBuilder) fill(p *plan, t reflect.Type) {
	// Special cases first: exact wire forms owned by the value's own
	// package. They hash by name, not structure.
	switch {
	case t == timeType:
		p.cannotMerge(t)
		p.schema = label("time.Time")
		p.emit = emits(op{code: opTime})
		p.enc = func(e *encoder, v unsafe.Pointer) error {
			raw, err := (*time.Time)(v).MarshalBinary()
			if err != nil {
				return err
			}
			e.bytes(raw)
			return nil
		}
		p.fold = func(d *decoder, dst unsafe.Pointer) error {
			raw, err := d.bytes()
			if err != nil {
				return err
			}
			var tm time.Time
			if err := tm.UnmarshalBinary(raw); err != nil {
				return fmt.Errorf("fleet: time: %w", err)
			}
			*(*time.Time)(dst) = tm
			return nil
		}
		return
	case t == distType:
		p.merge = func(dst, src unsafe.Pointer) { (*stats.Dist)(dst).Merge((*stats.Dist)(src)) }
		p.cut = func(dst, src unsafe.Pointer) {
			*(*stats.Dist)(dst), *(*stats.Dist)(src) = *(*stats.Dist)(src), stats.Dist{}
		}
		p.empty = func(v unsafe.Pointer) bool { return (*stats.Dist)(v).N() == 0 }
		p.leaf = true
		p.schema = label("stats.Dist:runs")
		p.emit = emits(op{code: opDist})
		p.enc = func(e *encoder, v unsafe.Pointer) error {
			vals, counts, nan := stats.DistRuns((*stats.Dist)(v))
			e.varint(nan)
			e.uvarint(uint64(len(vals)))
			for i := range vals {
				e.float64(vals[i])
				e.varint(counts[i])
			}
			return nil
		}
		p.fold = foldDist
		return
	case t == counterType:
		p.merge = func(dst, src unsafe.Pointer) { (*stats.Counter)(dst).Merge((*stats.Counter)(src)) }
		p.cut = func(dst, src unsafe.Pointer) {
			*(*stats.Counter)(dst), *(*stats.Counter)(src) = *(*stats.Counter)(src), stats.Counter{}
		}
		p.empty = func(v unsafe.Pointer) bool {
			c := (*stats.Counter)(v)
			return c.Len() == 0 && c.Total() == 0
		}
		p.leaf = true
		// On the wire and in the schema hash a Counter is the struct it
		// was before its counts became a table: a map of counts, then
		// the total.
		p.schema = label("struct stats.Counter{counts:map[string]int64;total:int64;}")
		p.emit = emits(op{code: opCounter})
		p.enc = encCounter
		p.fold = func(d *decoder, dst unsafe.Pointer) error {
			return foldCounter(d, (*stats.Counter)(dst))
		}
		return
	case t == addrType:
		// netip.Addr's own binary form, written and read typed:
		// addresses key most of the aggregate's maps.
		p.cannotMerge(t)
		p.schema = label("binary:" + t.String())
		p.emit = emits(op{code: opAddr})
		p.enc = func(e *encoder, v unsafe.Pointer) error {
			a := *(*netip.Addr)(v)
			switch {
			case a.Is4():
				e.uvarint(4)
				b := a.As4()
				e.buf = append(e.buf, b[:]...)
			case a.Is6():
				e.uvarint(uint64(16 + len(a.Zone())))
				b := a.As16()
				e.buf = append(append(e.buf, b[:]...), a.Zone()...)
			default:
				e.uvarint(0)
			}
			return nil
		}
		p.fold = func(d *decoder, dst unsafe.Pointer) error {
			raw, err := d.bytes()
			if err != nil {
				return err
			}
			var a netip.Addr
			if err := a.UnmarshalBinary(raw); err != nil {
				return fmt.Errorf("fleet: %s: %w", t, err)
			}
			*(*netip.Addr)(dst) = a
			return nil
		}
		return
	case isBinaryCodec(t):
		// Any other type with a binary form of its own: the codec knows
		// only the two above, and a field walk would not be that form.
		p.schema = label("binary:" + t.String())
		p.fail(fmt.Errorf("fleet: %s has a binary form the codec does not know", t))
		return
	}

	p.schema = label(t.Kind().String())
	defer joinOps(p, t) // a Join method overrides the kind's merge
	if ops, ok := scalars[t.Kind()]; ok {
		p.merge, p.cut, p.empty, p.enc = ops.merge, ops.cut, ops.empty, ops.write
		p.emit = emits(op{code: ops.check.code, width: ops.check.width, arg: t})
		// p.merge is read as the fold runs: a Join method replaces it.
		p.fold = scalarFold(t, ops.read, func(dst, src unsafe.Pointer) { p.merge(dst, src) })
		return
	}
	switch t.Kind() {
	case reflect.String:
		p.cannotMerge(t)
		p.enc = func(e *encoder, v unsafe.Pointer) error {
			s := *(*string)(v)
			e.uvarint(uint64(len(s)))
			e.buf = append(e.buf, s...)
			return nil
		}
		p.fold = func(d *decoder, dst unsafe.Pointer) error {
			raw, err := d.bytes()
			if err == nil {
				*(*string)(dst) = string(raw)
			}
			return err
		}
		p.emit = emits(op{code: opBytes})
	case reflect.Slice:
		elem := b.plan(t.Elem())
		p.schema = func(h io.Writer, seen map[reflect.Type]bool) {
			io.WriteString(h, "[]")
			elem.schema(h, seen)
		}
		sliceOps(p, t, elem)
	case reflect.Array:
		p.cannotMerge(t)
		elem, n, size := b.plan(t.Elem()), t.Len(), t.Elem().Size()
		p.schema = func(h io.Writer, seen map[reflect.Type]bool) {
			fmt.Fprintf(h, "[%d]", n)
			elem.schema(h, seen)
		}
		p.enc = func(e *encoder, v unsafe.Pointer) error {
			for i := range n {
				if err := elem.enc(e, unsafe.Add(v, uintptr(i)*size)); err != nil {
					return err
				}
			}
			return nil
		}
		p.fold = func(d *decoder, dst unsafe.Pointer) error {
			for i := range n {
				if err := elem.fold(d, unsafe.Add(dst, uintptr(i)*size)); err != nil {
					return err
				}
			}
			return nil
		}
		p.emit = func(a *asm) {
			if n > 0 {
				a.repeat(op{code: opArray, n: int32(n)}, func() { a.plan(elem) })
			}
		}
	case reflect.Map:
		c, _ := reflect.Zero(t).Interface().(compiler)
		b.mapPlan(p, t, c)
	case reflect.Pointer:
		elem := b.plan(t.Elem())
		p.schema = func(h io.Writer, seen map[reflect.Type]bool) {
			io.WriteString(h, "*")
			elem.schema(h, seen)
		}
		pointerOps(p, t, elem)
	case reflect.Struct:
		// fields are the ones the codec writes and the aggregate ops
		// walk: every field but pairing state, which stays with its
		// owner and never travels.
		var fields []field
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			agg := f.Tag.Get("agg")
			if agg == "pairing" {
				continue
			}
			fp := b.plan(f.Type)
			mf := field{name: f.Name, offset: f.Offset, plan: fp}
			var err error
			switch {
			case agg != "" && agg != "max":
				err = fmt.Errorf("unknown tag agg:%q", agg)
			case fp.mergeErr != nil:
				err = fp.mergeErr
			case agg == "max":
				// A tag, not a Join type: joinOps reaches Join through
				// reflect.Call, which allocates on every merge — making
				// core's hostileCounters.peakPending a Join type raised
				// TestAllocationCeilings' codec/merge-from row from 1 218
				// to 1 343 allocations, past its 1 317 ceiling.
				if ops := scalars[f.Type.Kind()]; ops.max != nil {
					mf.plan = &plan{enc: fp.enc, emit: fp.emit, schema: fp.schema, merge: ops.max, cut: fp.cut, empty: fp.empty, fold: scalarFold(f.Type, ops.read, ops.max)}
				} else {
					err = fmt.Errorf("agg:\"max\" on %s", f.Type)
				}
			}
			if err != nil && p.mergeErr == nil {
				p.mergeErr = fmt.Errorf("%s.%s: %w", t, f.Name, err)
			}
			fields = append(fields, mf)
		}
		structOps(p, fields)
		p.enc = func(e *encoder, v unsafe.Pointer) error {
			for i := range fields {
				if err := fields[i].plan.enc(e, unsafe.Add(v, fields[i].offset)); err != nil {
					return err
				}
			}
			return nil
		}
		p.fold = func(d *decoder, dst unsafe.Pointer) error {
			for i := range fields {
				if err := fields[i].plan.fold(d, unsafe.Add(dst, fields[i].offset)); err != nil {
					return err
				}
			}
			return nil
		}
		p.emit = func(a *asm) {
			for i := range fields {
				a.plan(fields[i].plan)
			}
		}
		p.schema = func(h io.Writer, seen map[reflect.Type]bool) {
			if seen[t] {
				// Recursive type: the name already contributed where it
				// was first seen; terminate the walk.
				io.WriteString(h, "rec:"+t.String())
				return
			}
			seen[t] = true
			io.WriteString(h, "struct "+t.String()+"{")
			for i := range fields {
				io.WriteString(h, fields[i].name+":")
				fields[i].plan.schema(h, seen)
				io.WriteString(h, ";")
			}
			io.WriteString(h, "}")
			delete(seen, t)
		}
	default:
		p.cannotMerge(t)
		p.enc = func(*encoder, unsafe.Pointer) error {
			return fmt.Errorf("fleet: cannot encode kind %s (%s)", t.Kind(), t)
		}
		err := fmt.Errorf("fleet: cannot decode kind %s (%s)", t.Kind(), t)
		p.fold = func(*decoder, unsafe.Pointer) error { return err }
		p.emit = emits(op{code: opFail, arg: err})
	}
}

// foldDist folds an encoded stats.Dist's runs into the one at dst, or
// with dst nil only reads past them (the check program's opDist). The
// runs are read into decoder scratch, which stats.MergeRuns copies.
func foldDist(d *decoder, dst unsafe.Pointer) error {
	vals, counts, nan, err := d.runs()
	if err != nil {
		return err
	}
	if err = stats.MergeRuns((*stats.Dist)(dst), vals, counts, nan); err != nil {
		return fmt.Errorf("fleet: dist: %w", err)
	}
	return nil
}

// encCounter writes a stats.Counter as the map kernel wrote the map its
// counts were — the presence flag, the count, the entries in the order
// of their encoded keys — then the total.
func encCounter(e *encoder, v unsafe.Pointer) error {
	c := (*stats.Counter)(v)
	if entries := c.Entries(); e.flag(entries != nil) {
		e.uvarint(uint64(len(entries)))
		s := e.scratch()
		for i := range entries {
			pr := pair{key: len(s.buf)}
			s.uvarint(uint64(len(entries[i].Key)))
			s.buf = append(s.buf, entries[i].Key...)
			pr.val = len(s.buf)
			s.varint(entries[i].N)
			pr.end = len(s.buf)
			s.pairs = append(s.pairs, pr)
		}
		e.sorted(s)
	}
	e.varint(c.Total())
	return nil
}

// foldCounter folds an encoded stats.Counter into c: the entries of its
// counts, refused unless their keys strictly increase, each added to c's
// through AddBytes as Counter.Merge adds them, then its total, read past:
// Merge adds up the source's counts instead. With c nil it only reads
// past them, in place (the check program's opCounter).
func foldCounter(d *decoder, c *stats.Counter) error {
	n, _, err := d.count()
	if err != nil {
		return err
	}
	var prev []byte
	for i := range n {
		start := d.buf
		key, err := d.bytes()
		if err != nil {
			return err
		}
		if err := d.ordered(start, &prev, i == 0); err != nil {
			return err
		}
		v, err := d.varint()
		if err != nil {
			return err
		}
		if c != nil {
			c.AddBytes(key, v)
		}
	}
	_, err = d.varint()
	return err
}

// joinOps makes a type with a method Join(T) T — a lattice, such as a
// precedence fold of outcomes — merge through it. Join is reached by
// reflection, at one call per value merged: lattice values live in
// maps, and merge only under a key the receiver already holds.
func joinOps(p *plan, t reflect.Type) {
	j, ok := t.MethodByName("Join")
	if !ok || p.mergeErr != nil || j.Type.NumIn() != 2 || j.Type.In(1) != t || j.Type.NumOut() != 1 || j.Type.Out(0) != t {
		return
	}
	p.merge = func(dst, src unsafe.Pointer) {
		d := reflect.NewAt(t, dst).Elem()
		d.Set(j.Func.Call([]reflect.Value{d, reflect.NewAt(t, src).Elem()})[0])
	}
}

// structOps merges, cuts and tests a struct field by field.
func structOps(p *plan, fields []field) {
	p.merge = func(dst, src unsafe.Pointer) {
		for i := range fields {
			fields[i].plan.merge(unsafe.Add(dst, fields[i].offset), unsafe.Add(src, fields[i].offset))
		}
	}
	p.cut = func(dst, src unsafe.Pointer) {
		for i := range fields {
			fields[i].plan.cut(unsafe.Add(dst, fields[i].offset), unsafe.Add(src, fields[i].offset))
		}
	}
	p.empty = func(v unsafe.Pointer) bool {
		for i := range fields {
			if !fields[i].plan.empty(unsafe.Add(v, fields[i].offset)) {
				return false
			}
		}
		return true
	}
}

// sliceOps: a slice appends in banking order; its elements are records,
// appended whole. So a fold grows the receiver and folds each new
// element, zeroed, from the wire; an empty one leaves a nil receiver nil,
// as Merge appends nothing. A byte slice is one run of bytes. Every slice header is laid out alike, so
// one of any element type is read and written through a []byte's.
func sliceOps(p *plan, t reflect.Type, elem *plan) {
	raw := t.Elem().Kind() == reflect.Uint8
	size := t.Elem().Size()
	p.merge = func(dst, src unsafe.Pointer) {
		if s := reflect.NewAt(t, src).Elem(); s.Len() > 0 {
			d := reflect.NewAt(t, dst).Elem()
			d.Set(reflect.AppendSlice(d, s))
		}
	}
	p.cut = func(dst, src unsafe.Pointer) {
		s := reflect.NewAt(t, src).Elem()
		reflect.NewAt(t, dst).Elem().Set(s)
		s.SetZero()
	}
	p.empty = func(v unsafe.Pointer) bool { return reflect.NewAt(t, v).Elem().Len() == 0 }
	p.enc = func(e *encoder, v unsafe.Pointer) error {
		s := *(*[]byte)(v)
		if !e.flag(s != nil) {
			return nil
		}
		e.uvarint(uint64(len(s)))
		if raw {
			e.buf = append(e.buf, s...)
			return nil
		}
		data := unsafe.Pointer(unsafe.SliceData(s))
		for i := range len(s) {
			if err := elem.enc(e, unsafe.Add(data, uintptr(i)*size)); err != nil {
				return err
			}
		}
		return nil
	}
	p.fold = func(d *decoder, dst unsafe.Pointer) error {
		n, present, err := d.count()
		switch {
		case err != nil || !present:
			return err
		case raw:
			b, err := d.take(n)
			if err == nil {
				s := (*[]byte)(dst)
				*s = append(*s, b...)
			}
			return err
		}
		v := reflect.NewAt(t, dst).Elem()
		first := v.Len()
		v.Grow(n)
		v.SetLen(first + n)
		v.Slice(first, first+n).Clear() // spare capacity may hold stale elements
		data := v.UnsafePointer()
		for i := range n {
			if err := elem.fold(d, unsafe.Add(data, uintptr(first+i)*size)); err != nil {
				return err
			}
		}
		return nil
	}
	p.emit = func(a *asm) {
		if raw {
			a.op(op{code: opRaw})
			return
		}
		a.repeat(op{code: opCount}, func() { a.plan(elem) })
	}
}

// pointerOps: a nil receiver adopts the source's pointee, a cut moves a
// leaf's pointer (installing a zero value) and cuts anything else into
// a fresh one, which keeps the pointee's pairing state where it was. A
// fold into a nil receiver folds into a fresh zero pointee.
func pointerOps(p *plan, t reflect.Type, elem *plan) {
	p.mergeErr = elem.mergeErr
	p.merge = func(dst, src unsafe.Pointer) {
		s := *(*unsafe.Pointer)(src)
		switch d := *(*unsafe.Pointer)(dst); {
		case s == nil:
		case d == nil:
			*(*unsafe.Pointer)(dst) = s
		default:
			elem.merge(d, s)
		}
	}
	p.cut = func(dst, src unsafe.Pointer) {
		s := *(*unsafe.Pointer)(src)
		if s == nil || elem.empty(s) {
			return
		}
		fresh := reflect.New(t.Elem()).UnsafePointer()
		if elem.leaf {
			*(*unsafe.Pointer)(dst), *(*unsafe.Pointer)(src) = s, fresh
			return
		}
		elem.cut(fresh, s)
		*(*unsafe.Pointer)(dst) = fresh
	}
	p.empty = func(v unsafe.Pointer) bool {
		s := *(*unsafe.Pointer)(v)
		return s == nil || elem.empty(s)
	}
	p.enc = func(e *encoder, v unsafe.Pointer) error {
		s := *(*unsafe.Pointer)(v)
		if !e.flag(s != nil) {
			return nil
		}
		return elem.enc(e, s)
	}
	p.fold = func(d *decoder, dst unsafe.Pointer) error {
		present, err := d.byteFlag()
		if err != nil || !present {
			return err
		}
		s := *(*unsafe.Pointer)(dst)
		if s == nil {
			s = reflect.New(t.Elem()).UnsafePointer()
			*(*unsafe.Pointer)(dst) = s
		}
		return elem.fold(d, s)
	}
	p.emit = func(a *asm) {
		a.skip(op{code: opPointer}, func() { a.plan(elem) })
	}
}

// encoder appends a payload to buf. A map encoding into it sorts its
// entries in sub, which pairs indexes; a map nested in one of those
// entries sorts its own in sub's sub. One encoder of each depth serves
// every map at that depth.
type encoder struct {
	buf   []byte
	pairs []pair
	sub   *encoder
}

// scratch returns e's sub-encoder, emptied.
func (e *encoder) scratch() *encoder {
	if e.sub == nil {
		e.sub = new(encoder)
	}
	s := e.sub
	s.buf, s.pairs = s.buf[:0], s.pairs[:0]
	return s
}

// encoders pools Marshal's encoders with their scratch, so a payload
// costs one allocation: its copy out.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

func (e *encoder) uvarint(x uint64)  { e.buf = binary.AppendUvarint(e.buf, x) }
func (e *encoder) varint(x int64)    { e.buf = binary.AppendVarint(e.buf, x) }
func (e *encoder) bytes(b []byte)    { e.uvarint(uint64(len(b))); e.buf = append(e.buf, b...) }
func (e *encoder) fixed64(x uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, x) }
func (e *encoder) float64(f float64) { e.fixed64(math.Float64bits(f)) }

// flag writes one boolean byte — a bool, or whether a nilable value is
// present — and returns it.
func (e *encoder) flag(present bool) bool {
	if present {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
	return present
}

// decoder reads a payload. vals and counts are scratch for a
// distribution's runs, reused from one distribution to the next; loops
// are the bodies a check program is running.
type decoder struct {
	buf    []byte
	vals   []float64
	counts []int64
	loops  []loop
	word   uint64 // a scalar's value between its read and its merge
}

// decoders pools the folds' decoders, so Check allocates nothing.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

// done returns d to the pool, holding nothing of its payload, and err,
// or the error for bytes left over when a whole value read without one.
func (d *decoder) done(err error) error {
	if err == nil && len(d.buf) != 0 {
		err = fmt.Errorf("fleet: %d trailing bytes after decode", len(d.buf))
	}
	d.buf = nil
	clear(d.loops[:cap(d.loops)])
	d.loops = d.loops[:0]
	decoders.Put(d)
	return err
}

var (
	errShort    = fmt.Errorf("fleet: payload truncated")
	errKeyOrder = fmt.Errorf("fleet: map keys out of order")
)

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errShort
	}
	d.buf = d.buf[n:]
	return x, nil
}

func (d *decoder) varint() (int64, error) {
	x, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, errShort
	}
	d.buf = d.buf[n:]
	return x, nil
}

func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || n > len(d.buf) {
		return nil, errShort
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

func (d *decoder) bytes() ([]byte, error) {
	if b := d.buf; len(b) > 0 && b[0] < 0x80 && int(b[0]) < len(b) { // a one-byte length
		d.buf = b[1+b[0]:]
		return b[1 : 1+b[0]], nil
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) {
		return nil, errShort
	}
	return d.take(int(n))
}

func (d *decoder) byteFlag() (bool, error) {
	b, err := d.take(1)
	if err != nil {
		return false, err
	}
	switch b[0] {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("fleet: bad presence flag %d", b[0])
}

// absent consumes a nilable value's presence byte when it says absent,
// and otherwise leaves the byte for the value's own decode to read.
func (d *decoder) absent() bool {
	if len(d.buf) > 0 && d.buf[0] == 0 {
		d.buf = d.buf[1:]
		return true
	}
	return false
}

// ordered checks the map key read since start against the one before:
// the encoder writes a map's entries in key-byte order, so a key that
// repeats or runs backwards is refused. Decoded, a repeated key keeps one
// entry where a fold would merge both.
func (d *decoder) ordered(start []byte, prev *[]byte, first bool) error {
	key := start[:len(start)-len(d.buf)]
	if !first && bytes.Compare(*prev, key) >= 0 {
		return errKeyOrder
	}
	*prev = key
	return nil
}

// runs reads a distribution's NaN count and runs into the scratch slices.
func (d *decoder) runs() (vals []float64, counts []int64, nan int64, err error) {
	if nan, err = d.varint(); err != nil {
		return nil, nil, 0, err
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, nil, 0, err
	}
	if n > uint64(len(d.buf))/9 { // ≥ 9 bytes per run on the wire
		return nil, nil, 0, errShort
	}
	vals, counts = d.vals[:0], d.counts[:0]
	for range n {
		raw, err := d.take(8)
		if err != nil {
			return nil, nil, 0, err
		}
		c, err := d.varint()
		if err != nil {
			return nil, nil, 0, err
		}
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		counts = append(counts, c)
	}
	d.vals, d.counts = vals, counts
	return vals, counts, nan, nil
}

// count reads a nilable collection's presence byte and, when it is
// present, its element count. A decoded element costs at least one wire
// byte, so a count the bytes left cannot hold is refused before it sizes
// an allocation.
func (d *decoder) count() (n int, present bool, err error) {
	if present, err = d.byteFlag(); !present || err != nil {
		return 0, false, err
	}
	c, err := d.uvarint()
	if err == nil && c > uint64(len(d.buf))+1 {
		err = errShort
	}
	return int(c), true, err
}
