package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame is one unit on the shipper↔aggregator stream. The wire layout
// (version 1) is:
//
//	magic   "EFL1"                      4 bytes
//	version 0x01                        1 byte
//	type    FrameType                   1 byte
//	site    uvarint length + bytes      ≤ MaxSiteLen
//	window  zigzag varint               window index (type-dependent)
//	seq     uvarint                     per-site sequence number
//	mark    zigzag varint               watermark, unix nanoseconds
//	payload uvarint length + bytes      ≤ MaxPayload
//	crc     CRC-32 (IEEE), LE           over every preceding byte
//
// Every frame carries the full header so each is self-describing; a
// reader can resynchronize after a corrupt frame only by dropping the
// connection, which is exactly the at-least-once design: the shipper
// resends everything unacknowledged on reconnect.
type Frame struct {
	Type      FrameType
	Site      string
	Window    int
	Seq       uint64
	Watermark int64 // unix nanoseconds; 0 = unset
	Payload   []byte
}

// FrameType discriminates stream frames.
type FrameType uint8

// Frame types. Shipper→aggregator: Hello opens a connection (payload:
// codec-encoded Hello), Delta carries one window's encoded snapshot
// delta, Heartbeat advances the site watermark with no data, Lost
// declares a window permanently dropped from the shipper's retry queue,
// Fin declares the site complete through Window. Aggregator→shipper:
// Ack acknowledges the single processed frame with this Seq (per-frame,
// not cumulative — the shipper's retry queue is not always seq-sorted),
// Err reports a fatal mismatch (payload: message) before close.
const (
	FrameHello FrameType = iota + 1
	FrameDelta
	FrameHeartbeat
	FrameLost
	FrameFin
	FrameAck
	FrameErr
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "HELLO"
	case FrameDelta:
		return "DELTA"
	case FrameHeartbeat:
		return "HEARTBEAT"
	case FrameLost:
		return "LOST"
	case FrameFin:
		return "FIN"
	case FrameAck:
		return "ACK"
	case FrameErr:
		return "ERR"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// Wire limits. A frame exceeding them is rejected before allocation, so
// a hostile or corrupt peer cannot make the reader balloon.
const (
	MaxSiteLen = 256
	MaxPayload = 1 << 30
)

// Hello is the connection-opening handshake payload (codec-encoded). A
// receiving aggregator rejects the connection unless Schema matches its
// own build's snapshot schema hash and WindowNanos/OriginNanos match
// its fleet configuration — mismatched builds or configs fail loudly at
// connect instead of mis-merging silently.
type Hello struct {
	Schema      uint64
	WindowNanos int64 // analysis window duration (0 = batch, single window)
	OriginNanos int64 // shared window origin, unix nanoseconds
}

var frameMagic = [4]byte{'E', 'F', 'L', '1'}

const frameVersion = 1

// Frame decode errors.
var (
	ErrBadMagic   = errors.New("fleet: bad frame magic")
	ErrBadVersion = errors.New("fleet: unsupported frame version")
	ErrBadType    = errors.New("fleet: unknown frame type")
	ErrTruncated  = errors.New("fleet: truncated frame")
	ErrCRC        = errors.New("fleet: frame CRC mismatch")
	ErrTooLarge   = errors.New("fleet: frame field exceeds wire limit")
)

// maxFrameHeader bounds a frame's bytes beside its site and payload:
// magic, version and type, five varints at their widest, the CRC.
const maxFrameHeader = len(frameMagic) + 2 + 5*binary.MaxVarintLen64 + 4

// EncodeFrame returns f's wire bytes, in one allocation.
func EncodeFrame(f *Frame) ([]byte, error) {
	if len(f.Site) > MaxSiteLen {
		return nil, fmt.Errorf("%w: site %d bytes", ErrTooLarge, len(f.Site))
	}
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(f.Payload))
	}
	if f.Type < FrameHello || f.Type > FrameErr {
		return nil, fmt.Errorf("%w: %d", ErrBadType, f.Type)
	}
	dst := make([]byte, 0, maxFrameHeader+len(f.Site)+len(f.Payload))
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, frameVersion, byte(f.Type))
	dst = binary.AppendUvarint(dst, uint64(len(f.Site)))
	dst = append(dst, f.Site...)
	dst = binary.AppendVarint(dst, int64(f.Window))
	dst = binary.AppendUvarint(dst, f.Seq)
	dst = binary.AppendVarint(dst, f.Watermark)
	dst = binary.AppendUvarint(dst, uint64(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst)), nil
}

// DecodeFrame parses one frame from the head of b, returning the frame
// and the number of bytes consumed. The returned frame's Site and
// Payload are copies, safe to retain after b is reused.
func DecodeFrame(b []byte) (*Frame, int, error) {
	d := frameReader{src: bytes.NewReader(b)}
	f, err := d.frame()
	if err != nil {
		return nil, 0, err
	}
	return f, d.n, nil
}

// ReadFrame reads one frame from a stream, with the walk DecodeFrame
// runs over a slice. Returns io.EOF only at a clean frame boundary; a
// connection cut mid-frame is ErrTruncated (wrapping
// io.ErrUnexpectedEOF).
func ReadFrame(br *bufio.Reader) (*Frame, error) {
	if _, err := br.Peek(1); err != nil {
		return nil, err
	}
	d := frameReader{src: br}
	return d.frame()
}

// byteSource is what a frame is read from: a bytes.Reader over a slice
// or the connection's bufio.Reader.
type byteSource interface {
	io.Reader
	io.ByteReader
}

// frameReader walks one frame from src, counting the bytes it consumes
// and folding them into the CRC as it goes: the header a byte at a time,
// into arrays on the walk's stack, and the payload in bulk.
type frameReader struct {
	src byteSource
	n   int
	crc uint32
}

// readChunk bounds how far a payload buffer grows ahead of the bytes
// that fill it: a declared length is checked against the wire limit,
// but memory is spent only as the bytes behind it arrive.
const readChunk = 64 << 10

// truncated maps a read failure inside a frame to ErrTruncated; the end
// of input there is io.ErrUnexpectedEOF, whichever field it cut.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %w", ErrTruncated, err)
}

// next reads one byte. The CRC step is crc32.Update's for one byte,
// written out so the byte need not be handed to a call that keeps it.
func (d *frameReader) next() (byte, error) {
	c, err := d.src.ReadByte()
	if err != nil {
		return 0, truncated(err)
	}
	d.n++
	crc := ^d.crc
	d.crc = ^(crc32.IEEETable[byte(crc)^c] ^ crc>>8)
	return c, nil
}

// fill reads len(b) bytes into b.
func (d *frameReader) fill(b []byte) error {
	for i := range b {
		c, err := d.next()
		if err != nil {
			return err
		}
		b[i] = c
	}
	return nil
}

// read returns the next n bytes (nil for none), growing the buffer a
// chunk at a time.
func (d *frameReader) read(n uint64) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	b := make([]byte, 0, min(n, readChunk))
	for uint64(len(b)) < n {
		k := int(min(n-uint64(len(b)), readChunk))
		b = slices.Grow(b, k)
		chunk := b[len(b) : len(b)+k]
		m, err := io.ReadFull(d.src, chunk)
		d.n += m
		d.crc = crc32.Update(d.crc, crc32.IEEETable, chunk[:m])
		if err != nil {
			return nil, truncated(err)
		}
		b = b[:len(b)+k]
	}
	return b, nil
}

func (d *frameReader) uvarint() (uint64, error) {
	var buf [binary.MaxVarintLen64]byte
	for i := range buf {
		c, err := d.next()
		if err != nil {
			return 0, err
		}
		buf[i] = c
		if c < 0x80 {
			x, k := binary.Uvarint(buf[:i+1])
			if k <= 0 {
				break
			}
			return x, nil
		}
	}
	return 0, fmt.Errorf("%w: varint overflow", ErrTruncated)
}

func (d *frameReader) varint() (int64, error) {
	ux, err := d.uvarint()
	x := int64(ux >> 1) // zigzag, as binary.Varint
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

func (d *frameReader) frame() (*Frame, error) {
	var head [6]byte
	if err := d.fill(head[:]); err != nil {
		return nil, err
	}
	if [4]byte(head[:4]) != frameMagic {
		return nil, ErrBadMagic
	}
	if head[4] != frameVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, head[4])
	}
	f := &Frame{Type: FrameType(head[5])}
	if f.Type < FrameHello || f.Type > FrameErr {
		return nil, fmt.Errorf("%w: %d", ErrBadType, head[5])
	}
	siteLen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if siteLen > MaxSiteLen {
		return nil, fmt.Errorf("%w: site %d bytes", ErrTooLarge, siteLen)
	}
	var site [MaxSiteLen]byte
	if err := d.fill(site[:siteLen]); err != nil {
		return nil, err
	}
	f.Site = string(site[:siteLen])
	win, err := d.varint()
	if err != nil {
		return nil, err
	}
	if win < -1<<31 || win > 1<<31 {
		return nil, fmt.Errorf("%w: window %d", ErrTooLarge, win)
	}
	f.Window = int(win)
	if f.Seq, err = d.uvarint(); err != nil {
		return nil, err
	}
	if f.Watermark, err = d.varint(); err != nil {
		return nil, err
	}
	payLen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if payLen > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, payLen)
	}
	if f.Payload, err = d.read(payLen); err != nil {
		return nil, err
	}
	crc := d.crc
	var sum [4]byte
	if err := d.fill(sum[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(sum[:]) != crc {
		return nil, ErrCRC
	}
	return f, nil
}
