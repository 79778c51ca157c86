package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// image builds a pcap file by hand: either byte order, either timestamp
// resolution, any snaplen, and record headers that may lie.
type image struct {
	order binary.ByteOrder
	buf   []byte
}

func newImage(order binary.ByteOrder, magic, snaplen uint32) *image {
	gh := make([]byte, globalHeaderLen)
	order.PutUint32(gh[0:4], magic)
	order.PutUint16(gh[4:6], 2)
	order.PutUint16(gh[6:8], 4)
	order.PutUint32(gh[16:20], snaplen)
	order.PutUint32(gh[20:24], LinkTypeEthernet)
	return &image{order: order, buf: gh}
}

// record appends a record whose header claims incl captured bytes and
// whose body is body (normally incl of them).
func (im *image) record(sec, frac, incl uint32, body []byte) *image {
	rec := make([]byte, recordHeaderLen)
	im.order.PutUint32(rec[0:4], sec)
	im.order.PutUint32(rec[4:8], frac)
	im.order.PutUint32(rec[8:12], incl)
	im.order.PutUint32(rec[12:16], incl+7)
	im.buf = append(append(im.buf, rec...), body...)
	return im
}

// body appends n recognizable bytes as the i'th record.
func (im *image) body(i, n int) *image {
	return im.record(uint32(1000+i), uint32(i), uint32(n), bytes.Repeat([]byte{byte(i + 1)}, n))
}

// How the fuzz target serves an image to the stream readers.
const (
	wrapPlain = iota // bytes.Reader itself: an io.ByteReader, no bufio under Reader
	wrapOneByte
	wrapHalf
	wrapDataErr
	wrapTimeout
	wrapKinds
)

// faultTogether, added to a wrap kind, makes the injected I/O error
// arrive with the last bytes before it instead of on the Read after.
const faultTogether = 0x80

func wrapKind(wrap uint8) uint8 { return (wrap &^ faultTogether) % wrapKinds }

var errInjected = errors.New("injected I/O failure")

// faultyReader serves data[:at], then fails with errInjected for good:
// on the Read after the last byte, or (together) on the one returning it.
type faultyReader struct {
	data     []byte
	at       int
	together bool
}

func (r *faultyReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[:r.at])
	r.data, r.at = r.data[n:], r.at-n
	if r.at == 0 && (n == 0 || r.together) {
		return n, errInjected
	}
	return n, nil
}

// stream serves raw the way the fuzz arguments say. faultAt past the end
// of raw injects nothing.
func stream(raw []byte, wrap uint8, faultAt int) io.Reader {
	var r io.Reader = bytes.NewReader(raw)
	if faultAt < len(raw) {
		r = &faultyReader{data: raw, at: faultAt, together: wrap&faultTogether != 0}
	}
	switch wrapKind(wrap) {
	case wrapOneByte:
		r = iotest.OneByteReader(r)
	case wrapHalf:
		r = iotest.HalfReader(r)
	case wrapDataErr:
		r = iotest.DataErrReader(r)
	case wrapTimeout:
		r = iotest.TimeoutReader(r)
	}
	return r
}

// outcome is everything a consumer can observe of one drain.
type outcome struct {
	pkts []Packet // Data copied out
	err  string   // the terminal error's text ("EOF" for a clean end)
	kind string   // its ClassifyReadError kind
}

// drain reads src to its terminal error, which must be sticky. Every
// other packet is released at once, so slabs recycle mid-trace; the rest
// are held to the end and must still read as they did when issued.
func drain(t *testing.T, name string, src PacketSource) outcome {
	t.Helper()
	rel, _ := src.(Releaser)
	var out outcome
	var held []*Packet
	for {
		p, err := src.Next()
		if err != nil {
			out.err = err.Error()
			out.kind, _ = ClassifyReadError(err)
			if _, again := src.Next(); again == nil || again.Error() != out.err {
				t.Fatalf("%s: error not sticky: %v, then %v", name, err, again)
			}
			break
		}
		out.pkts = append(out.pkts, Packet{Timestamp: p.Timestamp, Data: bytes.Clone(p.Data), OrigLen: p.OrigLen})
		if rel == nil {
			continue
		}
		if len(out.pkts)%2 == 0 {
			rel.Release(p)
		} else {
			held = append(held, p)
		}
	}
	for i, p := range held {
		want := out.pkts[2*i]
		if !p.Timestamp.Equal(want.Timestamp) || !bytes.Equal(p.Data, want.Data) || p.OrigLen != want.OrigLen {
			t.Fatalf("%s: held packet %d changed while later packets were read and released", name, 2*i)
		}
		rel.Release(p)
	}
	return out
}

func (o outcome) diff(t *testing.T, name string, want outcome) {
	t.Helper()
	if len(o.pkts) != len(want.pkts) {
		t.Fatalf("%s delivered %d packets before %q, Reader %d before %q", name, len(o.pkts), o.err, len(want.pkts), want.err)
	}
	for i, p := range o.pkts {
		w := want.pkts[i]
		if !p.Timestamp.Equal(w.Timestamp) || !bytes.Equal(p.Data, w.Data) || p.OrigLen != w.OrigLen {
			t.Fatalf("%s packet %d = {%v %d %x}, Reader {%v %d %x}", name, i, p.Timestamp, p.OrigLen, p.Data, w.Timestamp, w.OrigLen, w.Data)
		}
	}
	if o.err != want.err || o.kind != want.kind {
		t.Fatalf("%s ended with %q (%s), Reader with %q (%s)", name, o.err, o.kind, want.err, want.kind)
	}
}

// FuzzPooledReaderMatchesReader is the differential the slab reader
// stands on: any bytes, cut into slabs of any size from 17 bytes up and
// served through any of iotest's awkward readers, with or without an I/O
// failure at any offset, must come out of PooledReader exactly as they
// come out of Reader.Next — the same packets, the same count before the
// error, the same error text and census kind — and, when the stream
// itself does not fail, out of MapSource too.
func FuzzPooledReaderMatchesReader(f *testing.F) {
	const none = 1<<16 - 1
	le, be := binary.ByteOrder(binary.LittleEndian), binary.ByteOrder(binary.BigEndian)
	three := func(order binary.ByteOrder, magic uint32) []byte {
		return newImage(order, magic, 65535).body(0, 20).body(1, 0).body(2, 48).buf
	}
	plain := three(le, MagicMicroseconds)
	// Slab sizes put the records of plain (36, 16 and 64 bytes) where
	// they hurt: header split, body split, exact fit, larger than a slab.
	for _, slab := range []uint16{17, 24, 36, 40, 52, 64, 100, 116, 4096} {
		for wrap := uint8(0); wrap < wrapKinds; wrap++ {
			f.Add(plain, slab, wrap, uint16(none))
		}
	}
	f.Add(three(be, MagicMicroseconds), uint16(40), uint8(wrapHalf), uint16(none))
	f.Add(three(le, MagicNanoseconds), uint16(40), uint8(wrapOneByte), uint16(none))
	f.Add(three(be, MagicNanoseconds), uint16(17), uint8(wrapDataErr), uint16(none))
	for _, slab := range []uint16{17, 40, 4096} {
		f.Add(plain[:len(plain)-48-9], slab, uint8(wrapPlain), uint16(none)) // torn final header
		f.Add(plain[:len(plain)-48], slab, uint8(wrapHalf), uint16(none))    // final header, no body
		f.Add(plain[:len(plain)-5], slab, uint8(wrapDataErr), uint16(none))  // torn final body
		over := newImage(le, MagicMicroseconds, 64).body(0, 64).record(5, 5, 65, make([]byte, 65)).body(2, 8).buf
		f.Add(over, slab, uint8(wrapPlain), uint16(none)) // incl over snaplen mid-file
		// An I/O error at a record boundary, inside a header, inside a
		// body; alone and together with the last bytes.
		for _, at := range []int{globalHeaderLen, globalHeaderLen + 36, globalHeaderLen + 36 + 9, len(plain) - 3, len(plain)} {
			f.Add(plain, slab, uint8(wrapPlain), uint16(at))
			f.Add(plain, slab, uint8(wrapPlain|faultTogether), uint16(at))
			f.Add(plain, slab, uint8(wrapOneByte|faultTogether), uint16(at))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, slab uint16, wrap uint8, faultAt uint16) {
		rd, err := NewReader(stream(raw, wrap, int(faultAt)))
		if err != nil {
			return // no global header: every source starts from NewReader's verdict
		}
		want := drain(t, "Reader", rd)

		pool := NewPool()
		pool.slabBytes = max(17, int(slab))
		prd, err := NewReader(stream(raw, wrap, int(faultAt)))
		if err != nil {
			t.Fatal(err)
		}
		drain(t, "PooledReader", NewPooledReader(prd, pool)).diff(t, "PooledReader", want)

		if int(faultAt) < len(raw) || wrapKind(wrap) == wrapTimeout {
			return // the stream fails on its own; a mapping cannot
		}
		ms, err := NewMapSource(raw)
		if err != nil {
			t.Fatalf("NewReader accepted the header, NewMapSource did not: %v", err)
		}
		drain(t, "MapSource", ms).diff(t, "MapSource", want)
	})
}
