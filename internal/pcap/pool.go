package pcap

import (
	"io"
	"sync"
	"sync/atomic"
)

// Pool recycles what pooled packet sources hand out. The hot-path
// contract (see DESIGN.md "The allocation model and pooling contract"):
//
//   - PooledReader draws slabs from it — 256 KiB stretches of the trace,
//     each with the Packet structs that view it — and a slab comes back
//     when the last packet issued from it is released.
//   - Sources that build packets one at a time (gen.StreamSource,
//     MapSource) draw single packets with Get and return them with Put.
//   - A packet is its source's until Release; a consumer that keeps any
//     of its bytes past that copies them.
//   - Buffers are reused at the size they reached, so a steady-state read
//     loop performs no per-packet allocation.
//
// A Pool is safe for concurrent use, and Put and Release may be called
// from any goroutine. It is cheapest when they share one with Get and
// Next: the pipeline releases packets on the goroutine that reads them
// (its router takes them back a batch at a time), so the count a release
// drops is on a cache line its own core wrote last. Everything parked in
// a Pool stays collectable: an idle pool holds no memory past the next
// two collections.
type Pool struct {
	p     sync.Pool
	slabs sync.Pool
	// slabBytes is the size of a recycled slab. Tests shrink it to put
	// every record on a slab boundary.
	slabBytes int
}

// defaultSlabBytes is the stretch of a trace PooledReader reads at once:
// large enough that a read and a pool round trip are spread over
// hundreds of full-size frames, small enough to stay in a core's L2
// while its packets are routed.
const defaultSlabBytes = 256 << 10

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		p:         sync.Pool{New: func() any { return new(Packet) }},
		slabBytes: defaultSlabBytes,
	}
}

// Get returns a packet for reuse. Its Timestamp, Data contents, and
// OrigLen are stale; only Data's capacity is meaningful.
func (pl *Pool) Get() *Packet { return pl.p.Get().(*Packet) }

// Put recycles p and its buffer. A nil packet is left alone.
func (pl *Pool) Put(p *Packet) {
	if p != nil {
		pl.p.Put(p)
	}
}

// slab is one stretch of a trace's bytes and the Packet structs issued
// over it. A slab is written by its reader alone, and only past the
// records already issued: the bytes and the struct of a packet that is
// out never change until every packet of the slab has come back.
type slab struct {
	buf []byte
	// pkts holds the structs Next hands out, in fixed chunks so that
	// growing it never moves one that is out.
	pkts []*[pktChunk]Packet
	// refs counts the slab home. Each Release subtracts one; the reader,
	// when it moves on, adds the number of packets it issued. Whichever
	// of them brings the count to zero saw the last reference go and
	// recycles the slab: before the reader's add the count is negative,
	// after it the count is the packets still out. The reader's own hold
	// is thus the missing add, and issuing a packet costs no atomic.
	refs atomic.Int64
}

// pktChunk is the granule a slab's Packet array grows by (8 KiB).
const pktChunk = 128

// packet returns the slab's i'th Packet struct.
func (s *slab) packet(i int) *Packet {
	if i/pktChunk == len(s.pkts) {
		s.pkts = append(s.pkts, new([pktChunk]Packet))
	}
	return &s.pkts[i/pktChunk][i%pktChunk]
}

// getSlab returns an unreferenced slab of at least size bytes: a
// recycled full-size one when that is enough and the pool has one, a new
// one of exactly size otherwise.
func (pl *Pool) getSlab(size int) *slab {
	if size <= pl.slabBytes {
		if s, ok := pl.slabs.Get().(*slab); ok {
			return s
		}
	}
	return &slab{buf: make([]byte, size)}
}

// unref adds n to the slab's count and recycles it at zero. Only
// full-size slabs are recycled; starters and one-offs are left to the
// collector.
func (pl *Pool) unref(s *slab, n int64) {
	if s.refs.Add(n) == 0 && len(s.buf) == pl.slabBytes {
		pl.slabs.Put(s)
	}
}

// Releaser is implemented by packet sources whose packets are recycled:
// the consumer must hand each packet back via Release once it is done
// with it, and copy whatever of its Data it keeps. Sources that do not
// implement Releaser allocate per packet, and their packets are owned by
// the consumer indefinitely.
type Releaser interface {
	Release(*Packet)
}

// PooledReader is the pooled PacketSource over a Reader's stream, and
// the zero-allocation way to stream a trace through the pipeline. It
// takes the stream a slab at a time — one Read straight into the slab,
// no buffer in between — and parses records in place, as MapSource walks
// a mapping: a packet's Data is a view into the slab, its struct an
// element of an array the slab owns, and Next is an index bump.
//
// A packet is valid until Release. A slab is recycled when the reader
// has moved past it and every packet issued from it has been released
// (any goroutine, any order), so the memory out is bounded by the
// packets out: at most one slab per unreleased packet, plus the one
// being filled. A packet never released keeps its slab from being
// recycled and leaves it to the collector.
type PooledReader struct {
	format
	r    io.Reader
	pool *Pool

	// cur is the slab being parsed: cur.buf[off:fill] is read and not
	// yet issued, out counts the packets issued from it. nil before the
	// first read and after the last.
	cur       *slab
	off, fill int
	out       int
	// readErr is what the stream's last Read returned beside its bytes.
	// It is reported once the complete records before it are issued.
	readErr error
	sticky  error
}

// NewPooledReader returns a pooled source over the rest of r's stream;
// r must not be read directly afterwards. A nil pool gets a private one;
// passing a shared pool lets several sequential readers (e.g. one per
// trace file) reuse the same slabs.
func NewPooledReader(r *Reader, pool *Pool) *PooledReader {
	if pool == nil {
		pool = NewPool()
	}
	return &PooledReader{format: r.format, r: r.r, pool: pool, sticky: r.sticky}
}

// Next implements PacketSource. The returned packet is valid until
// Release; callers keeping bytes of its Data copy them. Errors are Reader's, record for record: every complete record before a
// failure is delivered first, and the error is sticky.
func (s *PooledReader) Next() (*Packet, error) {
	for s.sticky == nil {
		if s.cur == nil {
			s.refill(recordHeaderLen)
			continue
		}
		win := s.cur.buf[s.off:s.fill]
		p := s.cur.packet(s.out)
		need, err := s.parseRecord(win, p)
		switch {
		case err != nil:
			s.fail(err)
		case len(win) >= need:
			p.owner = s.cur
			s.off += need
			s.out++
			return p, nil
		case s.readErr != nil:
			s.fail(tornError(len(win), s.readErr))
		default:
			s.refill(need)
		}
	}
	return nil, s.sticky
}

// fail ends the stream with err, for good.
func (s *PooledReader) fail(err error) {
	s.sticky = err
	s.leave()
}

// refill issues one Read for the record at off, which needs need bytes
// and has fewer. It reads whatever the stream has ready, up to the end
// of the slab — never waiting for more than the record, so a pipe or a
// live capture delivers each packet as it arrives. A record the slab's
// remainder cannot hold moves, with the bytes of it already read, to the
// head of the next slab. When the pool has none to recycle, a reader's
// slabs start at a sixteenth of full size and grow fourfold, so a trace
// of a few packets does not pay for a slab of thousands; a record longer
// than that gets a one-off slab of its own length.
func (s *PooledReader) refill(need int) {
	if s.cur == nil || s.off+need > len(s.cur.buf) {
		size, partial := s.pool.slabBytes/16, []byte(nil)
		if s.cur != nil {
			size, partial = min(4*len(s.cur.buf), s.pool.slabBytes), s.cur.buf[s.off:s.fill]
		}
		next := s.pool.getSlab(max(size, need))
		s.fill = copy(next.buf, partial)
		s.leave()
		s.cur, s.off = next, 0
	}
	for empty := 0; ; empty++ {
		n, err := s.r.Read(s.cur.buf[s.fill:])
		s.fill += n
		switch {
		case err != nil:
			s.readErr = err
		case n == 0 && empty < maxEmptyReads:
			continue
		case n == 0:
			s.readErr = io.ErrNoProgress
		}
		return
	}
}

// maxEmptyReads is how many consecutive (0, nil) Reads refill tolerates
// before it gives up with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// leave drops the reader's hold on the current slab: the slab goes home
// now if nothing issued from it is still out, with its last release
// otherwise.
func (s *PooledReader) leave() {
	if s.cur == nil {
		return
	}
	s.pool.unref(s.cur, int64(s.out))
	s.cur, s.out = nil, 0
}

// Release implements Releaser: p's Data and p itself may be reused once
// every packet of its slab is back. Safe to call from any goroutine.
func (s *PooledReader) Release(p *Packet) {
	if p == nil || p.owner == nil {
		return
	}
	s.pool.unref(p.owner, -1)
}
