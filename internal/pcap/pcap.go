// Package pcap implements the classic libpcap trace file format: the
// 24-byte global header followed by 16-byte-headed packet records. It
// supports both byte orders, microsecond and nanosecond timestamp variants,
// snaplen truncation on write (the paper's D1/D2 datasets were captured
// with a 68-byte snaplen).
//
// Only link type Ethernet (DLT_EN10MB = 1) is used by this repository, but
// the reader preserves whatever link type the file declares.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// readBufferSize is the bufio buffer Reader.Next installs over
// unbuffered streams. Large enough that even jumbo records need one
// refill at most.
const readBufferSize = 256 << 10

// Magic numbers for the two timestamp resolutions, in file byte order.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkTypeEthernet is DLT_EN10MB.
const LinkTypeEthernet = 1

const (
	globalHeaderLen = 24
	recordHeaderLen = 16
)

// ErrBadMagic is returned when a file does not start with a known pcap
// magic number in either byte order.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Packet is one captured packet record.
type Packet struct {
	// Timestamp is the capture time.
	Timestamp time.Time
	// Data holds the captured bytes (possibly truncated to snaplen).
	Data []byte
	// OrigLen is the original wire length, >= len(Data).
	OrigLen int

	// owner is the slab Data views when a PooledReader issued the packet,
	// nil otherwise. The struct stays at 64 bytes — a cache line, and a
	// size class — which every materialized trace pays per packet.
	owner *slab
}

// Header describes a trace file's global header.
type Header struct {
	SnapLen  uint32
	LinkType uint32
	// Nanos indicates nanosecond timestamp resolution.
	Nanos bool
}

// format is what the global header fixes for every record after it.
type format struct {
	order binary.ByteOrder
	hdr   Header
}

// parseGlobalHeader decodes a 24-byte pcap global header: magic (either
// byte order, µs or ns timestamp variant), snaplen, link type. Shared
// by the streaming Reader and the in-memory MapSource.
func parseGlobalHeader(gh []byte) (format, error) {
	var order binary.ByteOrder
	var nanos bool
	switch binary.LittleEndian.Uint32(gh[0:4]) {
	case MagicMicroseconds:
		order = binary.LittleEndian
	case MagicNanoseconds:
		order, nanos = binary.LittleEndian, true
	default:
		switch binary.BigEndian.Uint32(gh[0:4]) {
		case MagicMicroseconds:
			order = binary.BigEndian
		case MagicNanoseconds:
			order, nanos = binary.BigEndian, true
		default:
			return format{}, ErrBadMagic
		}
	}
	return format{order: order, hdr: Header{
		SnapLen:  order.Uint32(gh[16:20]),
		LinkType: order.Uint32(gh[20:24]),
		Nanos:    nanos,
	}}, nil
}

// parseRecord is the one record parser: Reader, MapSource and
// PooledReader all decode through it, so they agree record for record.
// It decodes the record at the head of win, a window of the stream that
// may end anywhere, into p. need is the length the whole record takes —
// the 16-byte header until win holds one, header plus body after. Once
// win holds the header p has its Timestamp and OrigLen; when
// len(win) >= need the record is complete and p.Data views its body in
// win. Short of that the caller supplies more bytes and parses again, or
// reports the stream's end with tornError. The only error is a corrupt
// length field, reported as soon as the header is there.
func (f *format) parseRecord(win []byte, p *Packet) (need int, err error) {
	if len(win) < recordHeaderLen {
		return recordHeaderLen, nil
	}
	sec := int64(f.order.Uint32(win[0:4]))
	frac := int64(f.order.Uint32(win[4:8]))
	incl := f.order.Uint32(win[8:12])
	orig := f.order.Uint32(win[12:16])
	if incl > f.hdr.SnapLen && f.hdr.SnapLen != 0 || incl > 1<<24 {
		return 0, fmt.Errorf("pcap: record length %d exceeds snaplen %d", incl, f.hdr.SnapLen)
	}
	if !f.hdr.Nanos {
		frac *= 1000
	}
	p.Timestamp = time.Unix(sec, frac).UTC()
	p.OrigLen = int(orig)
	need = recordHeaderLen + int(incl)
	if len(win) >= need {
		p.Data = win[recordHeaderLen:need:need]
	}
	return need, nil
}

// tornError is the error for a stream that ended, with cause, have bytes
// into a record that needs more. No bytes and a clean io.EOF is the end
// of the trace, returned bare. Otherwise the cause is wrapped under the
// part of the record it cut — an io.EOF inside a record becoming
// io.ErrUnexpectedEOF, which ClassifyReadError reads as a torn record.
func tornError(have int, cause error) error {
	if cause == io.EOF {
		if have == 0 {
			return io.EOF
		}
		cause = io.ErrUnexpectedEOF
	}
	if have < recordHeaderLen {
		return fmt.Errorf("pcap: reading record header: %w", cause)
	}
	return fmt.Errorf("pcap: reading packet body: %w", cause)
}

// Reader reads packets from a pcap stream, one freshly allocated packet
// per record. It is the reference reader — the tests, the fuzz targets
// and small tools use it; a run over a whole trace wraps it in a
// PooledReader, which reads the same stream by the slab.
type Reader struct {
	format
	r io.Reader
	// buffered records that r has its own buffering, or has been given
	// it by the first Next.
	buffered bool
	rec      [recordHeaderLen]byte
	sticky   error
}

// NewReader parses the global header from r and returns a Reader. The
// header is read straight off r. Buffering is Next's business: a
// PooledReader over this Reader reads r into its slabs directly.
func NewReader(r io.Reader) (*Reader, error) {
	var gh [globalHeaderLen]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	f, err := parseGlobalHeader(gh[:])
	if err != nil {
		return nil, err
	}
	_, buffered := r.(io.ByteReader)
	return &Reader{format: f, r: r, buffered: buffered}, nil
}

// Next returns the next packet, or io.EOF at a clean end of file. A
// record cut short by the end of the stream — header or body — yields an
// error wrapping io.ErrUnexpectedEOF. Errors are sticky. The returned
// Data slice is freshly allocated to the record's exact size and owned
// by the caller. Streams without their own buffering (anything not
// implementing io.ByteReader, such as *os.File) are wrapped in a large
// bufio.Reader on the first call, so record-sized reads never hit the
// underlying stream directly.
func (r *Reader) Next() (*Packet, error) {
	// Kept small enough to inline, so a caller that drops the packet
	// does not pay for the struct.
	p := new(Packet)
	if err := r.read(p); err != nil {
		return nil, err
	}
	return p, nil
}

// read reads the next record into p, with a Data buffer of its own.
func (r *Reader) read(p *Packet) error {
	if r.sticky != nil {
		return r.sticky
	}
	if !r.buffered {
		r.r, r.buffered = bufio.NewReaderSize(r.r, readBufferSize), true
	}
	n, err := io.ReadFull(r.r, r.rec[:])
	if err != nil {
		r.sticky = tornError(n, err)
		return r.sticky
	}
	need, err := r.parseRecord(r.rec[:], p)
	if err != nil {
		r.sticky = err
		return err
	}
	p.Data = make([]byte, need-recordHeaderLen)
	if n, err := io.ReadFull(r.r, p.Data); err != nil {
		r.sticky = tornError(recordHeaderLen+n, err)
		return r.sticky
	}
	return nil
}

// PacketSource yields packets in timestamp order, ending with io.EOF. Both
// *Reader and in-memory traces satisfy it.
type PacketSource interface {
	Next() (*Packet, error)
}

// ReadAll drains any PacketSource into a slice. On error — including a
// final record truncated by the end of the stream, reported as an error
// wrapping io.ErrUnexpectedEOF — the packets successfully read before
// the failure are returned alongside it.
func ReadAll(src PacketSource) ([]*Packet, error) {
	var pkts []*Packet
	for {
		p, err := src.Next()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}

// SliceSource adapts an in-memory packet slice to PacketSource.
type SliceSource struct {
	pkts []*Packet
	idx  int
}

// NewSliceSource returns a source over pkts; the slice is not copied and
// must already be in timestamp order.
func NewSliceSource(pkts []*Packet) *SliceSource { return &SliceSource{pkts: pkts} }

// Next implements PacketSource.
func (s *SliceSource) Next() (*Packet, error) {
	if s.idx >= len(s.pkts) {
		return nil, io.EOF
	}
	p := s.pkts[s.idx]
	s.idx++
	return p, nil
}

// Writer writes packets to a pcap stream, truncating to the configured
// snaplen as a capture device would.
type Writer struct {
	w       io.Writer
	snaplen uint32
	rec     [recordHeaderLen]byte
}

// NewWriter writes a global header to w and returns a Writer. A snaplen of
// zero means "no truncation" and is recorded as 65535. linkType is usually
// LinkTypeEthernet.
func NewWriter(w io.Writer, snaplen uint32, linkType uint32) (*Writer, error) {
	if snaplen == 0 {
		snaplen = 65535
	}
	var gh [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(gh[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(gh[4:6], 2) // version 2.4
	binary.LittleEndian.PutUint16(gh[6:8], 4)
	// thiszone, sigfigs stay zero.
	binary.LittleEndian.PutUint32(gh[16:20], snaplen)
	binary.LittleEndian.PutUint32(gh[20:24], linkType)
	if _, err := w.Write(gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return &Writer{w: w, snaplen: snaplen}, nil
}

// WriteCaptured writes one record of origLen wire bytes whose first
// len(data) were captured: data longer than the snaplen is truncated
// here, and the larger of origLen and len(data) goes in the record
// header as the original length.
func (w *Writer) WriteCaptured(ts time.Time, data []byte, origLen int) error {
	orig := origLen
	if orig < len(data) {
		orig = len(data)
	}
	if uint32(len(data)) > w.snaplen {
		data = data[:w.snaplen]
	}
	binary.LittleEndian.PutUint32(w.rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(w.rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(w.rec[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(w.rec[12:16], uint32(orig))
	if _, err := w.w.Write(w.rec[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: writing packet body: %w", err)
	}
	return nil
}
