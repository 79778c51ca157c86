package fleet

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"time"
)

// A check program reads past one encoded value of a type, refusing what
// the fold refuses with the same error: the plan compiled once more,
// into a flat slice of ops that one loop runs (decoder.run). A struct's
// ops are its fields' in a row, a pointer's pointee's follow its flag,
// and a collection's body runs once per element by jumping back, so a
// payload is read without a call but for a type met inside itself.
// Check runs its type's program, the fold that of the pairing state it
// reads past; a program is assembled the first time it runs, so only
// those types hold one.

// opcode says what an op reads.
type opcode uint8

const (
	opVarint  opcode = iota // a signed integer of width bits
	opUvarint               // an unsigned integer of width bits
	opFlag                  // a bool
	opFixed                 // a float64
	opBytes                 // a length and as many bytes: a string
	opRaw                   // a []byte: presence, length, bytes
	opAddr                  // a netip.Addr: bytes of a length it takes
	opTime                  // a time.Time
	opCounter               // a stats.Counter: ordered keys and counts, then the total
	opDist                  // a stats.Dist's runs
	opPointer               // a presence flag: when absent, skip n ops (the pointee's)
	opCount                 // a map's or slice's presence and count: its body runs that many times, or n ops are skipped
	opArray                 // an array: its body runs n times
	opKey                   // the key-order rule over the map key just read
	opNext                  // ends a body: back n ops while elements remain
	opCall                  // the program of a type met inside itself
	opFail                  // fails: a type the codec cannot decode
)

// op is one step of a check program.
type op struct {
	code  opcode
	width uint8 // a number's bits
	n     int32 // ops to skip or to jump back; an array's length
	arg   any   // the reflect.Type an integer overflows, opFail's error, opCall's *plan
}

// loop is a body being run by decoder.run: elements left, and for a
// map the start of the entry being read and the last key.
type loop struct {
	left        int
	first       bool
	start, prev []byte
}

// asm assembles a program: the ops so far, and the plans open on the
// way down, so a plan met inside itself is called, not inlined.
type asm struct {
	ops  []op
	open []*plan
}

// plan appends p's ops.
func (a *asm) plan(p *plan) {
	if slices.Contains(a.open, p) {
		a.op(op{code: opCall, arg: p})
		return
	}
	a.open = append(a.open, p)
	p.emit(a)
	a.open = a.open[:len(a.open)-1]
}

func (a *asm) op(o op) { a.ops = append(a.ops, o) }

// skip appends head, then body's ops, and sets head to skip them.
func (a *asm) skip(head op, body func()) {
	at := len(a.ops)
	a.op(head)
	body()
	a.ops[at].n = int32(len(a.ops) - at - 1)
}

// repeat appends head, then body's ops closed by an opNext that jumps
// back to their first; an opCount head skips them all.
func (a *asm) repeat(head op, body func()) {
	at := len(a.ops)
	a.skip(head, func() { body(); a.op(op{code: opNext, n: int32(len(a.ops) - at)}) })
	if head.code == opArray {
		a.ops[at].n = head.n // the length, not a skip
	}
}

// emits returns an emit that appends o.
func emits(o op) func(*asm) { return func(a *asm) { a.op(o) } }

// program returns p's check program, assembling it the first time.
func (p *plan) program() []op {
	p.once.Do(func() {
		a := asm{}
		a.plan(p)
		p.prog = slices.Clip(a.ops)
	})
	return p.prog
}

// run reads past one value for each op of prog, as the fold would read
// it, and returns the error the fold would return.
func (d *decoder) run(prog []op) error {
	for pc := 0; pc < len(prog); pc++ {
		o := &prog[pc]
		var err error
		switch o.code {
		case opVarint, opUvarint:
			// A varint of one byte is in range of every width.
			if b := d.buf; len(b) > 0 && b[0] < 0x80 {
				d.buf = b[1:]
			} else {
				err = d.integer(o)
			}
		case opFlag, opPointer:
			if b := d.buf; len(b) == 0 || b[0] > 1 {
				_, err = d.byteFlag()
			} else if d.buf = b[1:]; b[0] == 0 && o.code == opPointer {
				pc += int(o.n)
			}
		case opFixed:
			_, err = d.take(8)
		case opRaw:
			var n int
			if n, _, err = d.count(); err == nil {
				_, err = d.take(n)
			}
		case opBytes, opAddr:
			var raw []byte
			if b := d.buf; len(b) > 0 && b[0] < 0x80 && int(b[0]) < len(b) { // d.bytes, inline
				raw, d.buf = b[1:1+b[0]], b[1+b[0]:]
			} else {
				raw, err = d.bytes()
			}
			if n := len(raw); o.code == opAddr && err == nil && n != 0 && n != 4 && n < 16 {
				var a netip.Addr
				err = fmt.Errorf("fleet: %s: %w", addrType, a.UnmarshalBinary(raw))
			}
		case opTime:
			var raw []byte
			var tm time.Time
			if raw, err = d.bytes(); err == nil {
				if err = tm.UnmarshalBinary(raw); err != nil {
					err = fmt.Errorf("fleet: time: %w", err)
				}
			}
		case opCounter:
			err = foldCounter(d, nil)
		case opDist:
			err = foldDist(d, nil)
		case opCount:
			var n int
			if n, _, err = d.count(); err == nil && n == 0 {
				pc += int(o.n)
			} else if err == nil {
				d.loops = append(d.loops, loop{left: n, first: true, start: d.buf})
			}
		case opArray:
			d.loops = append(d.loops, loop{left: int(o.n)})
		case opKey:
			// d.ordered, inline: a map entry's hottest rule.
			l := &d.loops[len(d.loops)-1]
			key := l.start[:len(l.start)-len(d.buf)]
			if !l.first && bytes.Compare(l.prev, key) >= 0 {
				err = errKeyOrder
			}
			l.prev, l.first = key, false
		case opNext:
			l := &d.loops[len(d.loops)-1]
			if l.left--; l.left > 0 {
				pc -= int(o.n)
				l.start = d.buf
			} else {
				d.loops = d.loops[:len(d.loops)-1]
			}
		case opCall:
			err = d.run(o.arg.(*plan).program())
		case opFail:
			err = o.arg.(error)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// integer reads past the varint o reads, refusing one o's width cannot
// hold.
func (d *decoder) integer(o *op) error {
	if o.code == opUvarint {
		x, err := d.uvarint()
		if err == nil && x>>o.width != 0 {
			err = fmt.Errorf("fleet: %d overflows %s", x, o.arg)
		}
		return err
	}
	x, err := d.varint()
	if s := 64 - o.width; err == nil && x<<s>>s != x {
		err = fmt.Errorf("fleet: %d overflows %s", x, o.arg)
	}
	return err
}
