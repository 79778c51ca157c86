package pcap

import "sync"

// Pool recycles Packet structs together with their Data buffers. The
// hot-path contract (see DESIGN.md "Allocation model"):
//
//   - Get hands out a packet whose fields are stale; fill it with
//     Reader.NextInto before use.
//   - Put returns the packet and its buffer for reuse — unless the
//     consumer called Retain, which permanently exempts that packet
//     because slices into its Data have escaped into longer-lived state.
//   - Buffers grow to the trace's largest record and then stabilize, so a
//     steady-state read loop performs no per-packet allocation.
//
// A Pool is safe for concurrent use, and Put may be called from any
// goroutine. It is cheapest when Put and Get share one: the pipeline
// releases packets on the goroutine that reads them (its router takes
// them back a batch at a time), so a packet comes back from the per-P
// cache it was put in rather than being stolen from another P's.
type Pool struct {
	p sync.Pool
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{p: sync.Pool{New: func() any { return new(Packet) }}}
}

// Get returns a packet for reuse. Its Timestamp, Data contents, and
// OrigLen are stale; only Data's capacity is meaningful.
func (pl *Pool) Get() *Packet {
	p := pl.p.Get().(*Packet)
	p.retained = false
	return p
}

// Put recycles p and its buffer. Retained and nil packets are left alone.
func (pl *Pool) Put(p *Packet) {
	if p == nil || p.retained {
		return
	}
	pl.p.Put(p)
}

// Releaser is implemented by packet sources whose packets are recycled:
// the consumer must hand each packet back via Release once it is done
// with it, unless it called Retain to keep references into the packet's
// Data. Sources that do not implement Releaser allocate per packet, and
// their packets are owned by the consumer indefinitely.
type Releaser interface {
	Release(*Packet)
}

// PooledReader adapts a Reader to a pooled PacketSource: Next draws
// packets from a Pool and NextInto, and Release returns them. It is the
// zero-allocation way to stream a trace through the pipeline.
type PooledReader struct {
	r    *Reader
	pool *Pool
}

// NewPooledReader returns a pooled source over r. A nil pool gets a
// private one; passing a shared pool lets several sequential readers
// (e.g. one per trace file) reuse the same buffers.
func NewPooledReader(r *Reader, pool *Pool) *PooledReader {
	if pool == nil {
		pool = NewPool()
	}
	return &PooledReader{r: r, pool: pool}
}

// Header returns the underlying trace's global header fields.
func (s *PooledReader) Header() Header { return s.r.Header() }

// Next implements PacketSource. The returned packet is valid until
// Release; callers keeping slices into its Data must call Retain first.
func (s *PooledReader) Next() (*Packet, error) {
	p := s.pool.Get()
	if err := s.r.NextInto(p); err != nil {
		s.pool.Put(p)
		return nil, err
	}
	return p, nil
}

// Release implements Releaser, returning p to the pool (a no-op for
// retained packets). Safe to call from any goroutine.
func (s *PooledReader) Release(p *Packet) { s.pool.Put(p) }
