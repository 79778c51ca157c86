package pcap

import (
	"fmt"
	"io"
	"time"
)

// MapSource reads a pcap trace from a byte slice that is already in
// memory and hands out packets whose Data is a view into that slice
// rather than a copy. It is PooledReader's record walk over a single
// slab that is borrowed, not read: the whole trace is there from the
// start, so the walk never refills, and the slab is the caller's, so it
// is never recycled. It implements PacketSource and Releaser with the
// same contract as PooledReader: a packet is valid until Release, and
// consumers keeping bytes of Data past it copy them.
//
// The zero-copy twist is what Release means here. A released packet's
// Data pointed into the caller's slice, so Release poisons the struct
// (Data becomes nil) before recycling it: any use-after-release fails
// loudly with a nil-slice panic instead of silently reading whatever
// record the view happened to cover.
//
// Errors are Reader's record for record, by construction — every source
// decodes through parseRecord and ends through tornError: a clean end of
// the slice is io.EOF; a record cut short — header or body — is a sticky
// error wrapping io.ErrUnexpectedEOF with the packets before it already
// delivered; an incl length over the snaplen is a sticky corruption
// error. All of it classifies identically through ClassifyReadError.
type MapSource struct {
	format
	data   []byte
	off    int
	sticky error
	// pool recycles the Packet structs (never the bytes they view).
	pool *Pool
}

// NewMapSource returns a MapSource over an in-memory pcap image. The
// slice is borrowed, not copied: it must stay valid (and unmodified)
// until the source, and every packet it issued, is done.
func NewMapSource(data []byte) (*MapSource, error) {
	if len(data) < globalHeaderLen {
		return nil, fmt.Errorf("pcap: reading global header: %w", io.ErrUnexpectedEOF)
	}
	f, err := parseGlobalHeader(data[:globalHeaderLen])
	if err != nil {
		return nil, err
	}
	return &MapSource{format: f, data: data, off: globalHeaderLen, pool: NewPool()}, nil
}

// Next implements PacketSource. The returned packet's Data aliases the
// image — no copy — and is valid until Release.
func (s *MapSource) Next() (*Packet, error) {
	if s.sticky != nil {
		return nil, s.sticky
	}
	win := s.data[s.off:]
	p := s.pool.Get()
	need, err := s.parseRecord(win, p)
	switch {
	case err != nil:
		s.sticky = err
	case len(win) < need:
		s.sticky = tornError(len(win), io.EOF)
	default:
		s.off += need
		return p, nil
	}
	s.pool.Put(p)
	return nil, s.sticky
}

// Release implements Releaser. Unlike a buffer-recycling pool, the
// packet's Data is a borrowed view, so Release poisons it — Data nil,
// lengths zeroed — before returning the struct for reuse.
func (s *MapSource) Release(p *Packet) {
	if p == nil {
		return
	}
	p.Data = nil
	p.OrigLen = 0
	p.Timestamp = time.Time{}
	s.pool.Put(p)
}
