package fleet

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// Map is how an aggregate declares a map: it is the map type it names,
// used as any other. The plan builder asks a Map type for its kernel
// once, when it meets the type: every op of the plan — enc, fold,
// merge, cut, empty — compiled for the map's key and value types, which
// reads and writes entries as a Go map of those types, without
// reflection. How entries merge follows from the value type, decided
// then too: a value of size zero makes the map a set, whose merge
// inserts every key; a pointer's pointee or an inner map merges in
// place; any other value merges by value — a number adds, a lattice
// joins, a struct merges field by field. A map type that is not a Map
// has no kernel: its plan fails every op, naming the type.
//
// On the wire and in the schema hash a Map is the map it names.
type Map[K comparable, V any] map[K]V

// compiler is how the plan builder finds a Map's kernel: compile fills
// p with the ops of map type t over key and elem, the plans of t's key
// and value types.
type compiler interface {
	compile(p *plan, t reflect.Type, key, elem *plan)
}

// mapPlan compiles map type t through c, its kernel; a nil c leaves p
// failing every op with an error that names t.
func (b planBuilder) mapPlan(p *plan, t reflect.Type, c compiler) {
	key, elem := b.plan(t.Key()), b.plan(t.Elem())
	p.schema = func(h io.Writer, seen map[reflect.Type]bool) {
		io.WriteString(h, "map[")
		key.schema(h, seen)
		io.WriteString(h, "]")
		elem.schema(h, seen)
	}
	if c == nil {
		p.fail(fmt.Errorf("fleet: map type %s has no kernel: declare it a fleet.Map", t))
		return
	}
	c.compile(p, t, key, elem)
	p.emit = func(a *asm) {
		a.repeat(op{code: opCount}, func() {
			a.plan(key)
			a.op(op{code: opKey})
			a.plan(elem)
		})
	}
}

// word is v, a pointer or a map, as the one pointer word either is.
func word[V any](v V) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&v)) }

func (Map[K, V]) compile(p *plan, t reflect.Type, key, elem *plan) {
	k := &kernel[K, V]{key: key, elem: elem}
	k.slots.New = func() any { return new(mapSlots[K, V]) }
	p.mergeErr = elem.mergeErr
	p.enc, p.fold = k.enc, k.fold
	p.empty = func(v unsafe.Pointer) bool { return len(*(*map[K]V)(v)) == 0 }
	p.cut = func(dst, src unsafe.Pointer) {
		if s := (*map[K]V)(src); len(*s) != 0 {
			*(*map[K]V)(dst), *s = *s, make(map[K]V)
		}
	}
	switch vt := t.Elem(); {
	case vt.Size() == 0:
		k.insert(p)
	case vt.Kind() == reflect.Pointer:
		k.inPlace(p, func(V) V {
			w := reflect.New(vt.Elem()).UnsafePointer()
			return *(*V)(unsafe.Pointer(&w))
		})
	case vt.Kind() == reflect.Map:
		k.inPlace(p, func(like V) V {
			w := reflect.MakeMapWithSize(vt, reflect.ValueOf(like).Len()).UnsafePointer()
			return *(*V)(unsafe.Pointer(&w))
		})
	default:
		k.byValue(p)
	}
}

// insert: a set's merge inserts every key; its values hold nothing.
func (k *kernel[K, V]) insert(p *plan) {
	p.merge = func(dst, src unsafe.Pointer) {
		if dm, s := k.receiver(dst, src); dm != nil {
			for key, sv := range s {
				dm[key] = sv
			}
		}
	}
	k.entry = func(d *decoder, dm map[K]V, x *mapSlots[K, V]) error {
		if err := k.elem.fold(d, unsafe.Pointer(&x.v)); err != nil {
			return err
		}
		dm[x.k] = x.v
		return nil
	}
}

// byValue: a value merges into the one the receiver holds under its key,
// and is copied in where the receiver has none.
func (k *kernel[K, V]) byValue(p *plan) {
	p.merge = func(dst, src unsafe.Pointer) {
		dm, s := k.receiver(dst, src)
		if dm == nil {
			return
		}
		var x *mapSlots[K, V]
		for key, sv := range s {
			cur, ok := dm[key]
			if !ok {
				dm[key] = sv
				continue
			}
			if x == nil {
				x = k.get()
			}
			x.cur, x.v = cur, sv
			k.elem.merge(unsafe.Pointer(&x.cur), unsafe.Pointer(&x.v))
			dm[key] = x.cur
		}
		if x != nil {
			k.put(x)
		}
	}
	// A value is read whole, into the zeroed slot, and merges into the one
	// the receiver holds, if any.
	k.entry = func(d *decoder, dm map[K]V, x *mapSlots[K, V]) error {
		if err := k.elem.fold(d, unsafe.Pointer(&x.v)); err != nil {
			return err
		}
		if cur, ok := dm[x.k]; ok {
			x.cur = cur
			k.elem.merge(unsafe.Pointer(&x.cur), unsafe.Pointer(&x.v))
			x.v = x.cur
		}
		dm[x.k] = x.v
		return nil
	}
}

// inPlace: a value — a pointer, a map — merges in place, into the one
// the receiver holds, or into a fresh one where it lacks the key (fresh
// makes it, sized like the source's), so nothing is shared. A nil value
// is copied only where the receiver has none.
func (k *kernel[K, V]) inPlace(p *plan, fresh func(like V) V) {
	p.merge = func(dst, src unsafe.Pointer) {
		dm, s := k.receiver(dst, src)
		if dm == nil {
			return
		}
		x := k.get()
		for key, sv := range s {
			switch cur := dm[key]; {
			case word(cur) != nil:
				x.cur = cur
			case word(sv) == nil:
				dm[key] = sv
				continue
			default:
				x.cur = fresh(sv)
				dm[key] = x.cur
			}
			x.v = sv
			k.elem.merge(unsafe.Pointer(&x.cur), unsafe.Pointer(&x.v))
		}
		k.put(x)
	}
	k.entry = func(d *decoder, dm map[K]V, x *mapSlots[K, V]) error {
		x.cur = dm[x.k]
		held := word(x.cur)
		if held == nil {
			if d.absent() {
				dm[x.k] = x.cur
				return nil
			}
			x.cur = fresh(x.cur)
		}
		if err := k.elem.fold(d, unsafe.Pointer(&x.cur)); err != nil {
			return err
		}
		if word(x.cur) != held { // a fresh value, or an empty map the fold swapped
			dm[x.k] = x.cur
		}
		return nil
	}
}

// mapSlots are the addressable key and values a map op copies entries
// through: the plans take addresses, and a map's entries have none.
type mapSlots[K comparable, V any] struct {
	k      K
	v, cur V
}

// kernel is a Map's ops: the key and value plans, the pooled slots, and
// the walks that do not depend on how values merge — the encoder's
// sorted entries and the fold's ordered keys, with each entry's value
// handed to entry, which does.
type kernel[K comparable, V any] struct {
	key, elem *plan
	slots     sync.Pool
	// entry reads one value off the wire after its key (in x.k) and
	// merges it into dm.
	entry func(d *decoder, dm map[K]V, x *mapSlots[K, V]) error
}

func (k *kernel[K, V]) get() *mapSlots[K, V] { return k.slots.Get().(*mapSlots[K, V]) }

func (k *kernel[K, V]) put(x *mapSlots[K, V]) {
	*x = mapSlots[K, V]{}
	k.slots.Put(x)
}

// receiver is the start of every merge: nothing to do for an empty
// source, and a nil receiver adopts the source's map. Otherwise it
// returns the receiver's map and the source's, to merge entry by entry.
func (k *kernel[K, V]) receiver(dst, src unsafe.Pointer) (dm, s map[K]V) {
	s = *(*map[K]V)(src)
	if len(s) == 0 {
		return nil, nil
	}
	d := (*map[K]V)(dst)
	if *d == nil {
		*d = s
		return nil, nil
	}
	return *d, s
}

// pair is one encoded map entry in its encoder's scratch buffer: the key
// at [key, val), the value at [val, end).
type pair struct{ key, val, end int }

// enc writes the presence flag and the count, then the entries in the
// order of their encoded keys: each entry is encoded into the encoder's
// scratch, the entries sorted by their key bytes, and copied out.
func (k *kernel[K, V]) enc(e *encoder, v unsafe.Pointer) error {
	m := *(*map[K]V)(v)
	if !e.flag(m != nil) {
		return nil
	}
	e.uvarint(uint64(len(m)))
	if len(m) == 0 {
		return nil
	}
	s := e.scratch()
	x := k.get()
	defer k.put(x)
	for key, val := range m {
		x.k, x.v = key, val
		pr := pair{key: len(s.buf)}
		if err := k.key.enc(s, unsafe.Pointer(&x.k)); err != nil {
			return err
		}
		pr.val = len(s.buf)
		if err := k.elem.enc(s, unsafe.Pointer(&x.v)); err != nil {
			return err
		}
		pr.end = len(s.buf)
		s.pairs = append(s.pairs, pr)
	}
	e.sorted(s)
	return nil
}

// sorted appends the entries encoded into s, the scratch of e, in the
// order of their key bytes: the order the wire gives a map's entries.
func (e *encoder) sorted(s *encoder) {
	slices.SortFunc(s.pairs, func(a, b pair) int {
		return bytes.Compare(s.buf[a.key:a.val], s.buf[b.key:b.val])
	})
	for _, pr := range s.pairs {
		e.buf = append(e.buf, s.buf[pr.key:pr.end]...)
	}
}

// fold reads the presence flag and the count, then each entry: the key,
// refused unless keys strictly increase, and the value through entry,
// both read into slots zeroed first. An empty receiver takes a fresh map
// sized from the count; an empty wire map leaves a nil receiver nil, as a
// merge adopting an empty map would have nothing to adopt.
func (k *kernel[K, V]) fold(d *decoder, dst unsafe.Pointer) error {
	n, present, err := d.count()
	if err != nil || !present || n == 0 {
		return err
	}
	mp := (*map[K]V)(dst)
	if len(*mp) == 0 {
		*mp = make(map[K]V, n)
	}
	dm, x := *mp, k.get()
	defer k.put(x)
	var prev []byte
	for i := range n {
		*x = mapSlots[K, V]{}
		start := d.buf
		if err := k.key.fold(d, unsafe.Pointer(&x.k)); err != nil {
			return err
		}
		if err := d.ordered(start, &prev, i == 0); err != nil {
			return err
		}
		if err := k.entry(d, dm, x); err != nil {
			return err
		}
	}
	return nil
}
