package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

func testFrame() *Frame {
	return &Frame{
		Type:      FrameDelta,
		Site:      "site-a",
		Window:    3,
		Seq:       7,
		Watermark: 1_000_000_000,
		Payload:   []byte{0xDE, 0xAD, 0xBE, 0xEF},
	}
}

// TestFrameGoldenBytes pins the version-1 wire layout byte for byte. If
// this test fails, the frame format changed: bump frameVersion and
// regenerate — do NOT update the golden in place, or deployed shippers
// and aggregators from different builds will mis-parse each other.
func TestFrameGoldenBytes(t *testing.T) {
	const golden = "45464c31010206736974652d61060780a8d6b90704deadbeefb7cd873c"
	b, err := EncodeFrame(testFrame())
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("frame bytes changed:\n got  %s\n want %s\nbump frameVersion if intentional", got, golden)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []*Frame{
		testFrame(),
		{Type: FrameHello, Site: "x", Payload: []byte("hello")},
		{Type: FrameAck, Seq: 1 << 40},
		{Type: FrameHeartbeat, Site: "s", Watermark: -5}, // negative mark survives zigzag
		{Type: FrameFin, Site: "s", Window: 0},
		{Type: FrameLost, Site: "s", Window: 1<<31 - 1},
		{Type: FrameErr, Payload: []byte("schema mismatch")},
	}
	for _, f := range cases {
		b, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("%v: encode: %v", f.Type, err)
		}
		got, n, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", f.Type, err)
		}
		if n != len(b) {
			t.Fatalf("%v: consumed %d of %d", f.Type, n, len(b))
		}
		if got.Type != f.Type || got.Site != f.Site || got.Window != f.Window ||
			got.Seq != f.Seq || got.Watermark != f.Watermark || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("%v: round-trip mismatch: %+v vs %+v", f.Type, got, f)
		}
		// Stream path must agree with the slice path, including across
		// back-to-back frames.
		br := bufio.NewReader(bytes.NewReader(append(append([]byte(nil), b...), b...)))
		for i := 0; i < 2; i++ {
			sf, err := ReadFrame(br)
			if err != nil {
				t.Fatalf("%v: stream read %d: %v", f.Type, i, err)
			}
			if !reflect.DeepEqual(sf, got) {
				t.Fatalf("%v: stream frame %d is %+v, slice frame %+v", f.Type, i, sf, got)
			}
		}
		if _, err := ReadFrame(br); err != io.EOF {
			t.Fatalf("%v: want clean EOF at boundary, got %v", f.Type, err)
		}
	}
}

// TestFrameRejectsCorruption drives the full rejection table: every
// class of damage a hostile or flaky network can inflict must map to a
// typed error, never a mis-parsed frame.
func TestFrameRejectsCorruption(t *testing.T) {
	good, err := EncodeFrame(testFrame())
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad magic", mut(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"bad version", mut(func(b []byte) []byte { b[4] = 99; return b }), ErrBadVersion},
		{"bad type zero", mut(func(b []byte) []byte { b[5] = 0; return b }), ErrBadType},
		{"bad type high", mut(func(b []byte) []byte { b[5] = 200; return b }), ErrBadType},
		{"flipped payload bit", mut(func(b []byte) []byte { b[len(b)-6] ^= 1; return b }), ErrCRC},
		{"flipped crc bit", mut(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }), ErrCRC},
		{"oversized site", mut(func(b []byte) []byte {
			b[6] = 0xFF // site length uvarint → multi-byte, huge
			b[7] = 0x7F
			return b
		}), ErrTooLarge},
		{"truncated mid-payload", good[:len(good)-7], ErrTruncated},
		{"truncated mid-header", good[:8], ErrTruncated},
		{"payload declared, never sent", unsentPayload(), ErrTruncated},
	}
	for _, tc := range cases {
		_, _, err := DecodeFrame(tc.b)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeFrame err = %v, want %v", tc.name, err, tc.want)
		}
		// The stream path runs the same walk, so it fails the same way,
		// except that no bytes at all is a clean end of stream.
		serr := readOne(tc.b)
		if len(tc.b) == 0 {
			if serr != io.EOF {
				t.Errorf("%s: ReadFrame err = %v, want io.EOF", tc.name, serr)
			}
		} else if !errors.Is(serr, tc.want) || serr.Error() != err.Error() {
			t.Errorf("%s: ReadFrame err = %v, DecodeFrame's %v", tc.name, serr, err)
		}
	}
	// Every possible truncation of a valid frame is ErrTruncated wrapping
	// io.ErrUnexpectedEOF, from the slice and from the stream.
	for cut := 1; cut < len(good); cut++ {
		_, _, err := DecodeFrame(good[:cut])
		serr := readOne(good[:cut])
		for _, e := range []error{err, serr} {
			if !errors.Is(e, ErrTruncated) || !errors.Is(e, io.ErrUnexpectedEOF) {
				t.Errorf("cut at %d: err = %v, want ErrTruncated wrapping io.ErrUnexpectedEOF", cut, e)
			}
		}
	}
}

// unsentPayload is a frame header that declares a payload at the wire
// limit, followed by three bytes of it.
func unsentPayload() []byte {
	b := []byte{'E', 'F', 'L', '1', frameVersion, byte(FrameDelta), 0, 0, 0, 0}
	return append(binary.AppendUvarint(b, MaxPayload), 1, 2, 3)
}

// TestDeclaredLengthCostsNoMemory: a peer that declares a payload at
// the wire limit and sends three bytes of it costs the reader what it
// sent, not the declared gigabyte, on either path.
func TestDeclaredLengthCostsNoMemory(t *testing.T) {
	b := unsentPayload()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeFrame(b)
	serr := readOne(b)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) || !errors.Is(serr, ErrTruncated) {
		t.Fatalf("DecodeFrame err = %v, ReadFrame err = %v, want ErrTruncated", err, serr)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
		t.Errorf("reading a frame that declares %d payload bytes and sends 3 allocated %d bytes", MaxPayload, n)
	}
}

// readOne reads one frame from b through ReadFrame.
func readOne(b []byte) error {
	_, err := ReadFrame(bufio.NewReader(bytes.NewReader(b)))
	return err
}

func TestFrameEncodeLimits(t *testing.T) {
	if _, err := EncodeFrame(&Frame{Type: FrameDelta, Site: string(make([]byte, MaxSiteLen+1))}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized site encoded: %v", err)
	}
	if _, err := EncodeFrame(&Frame{Type: 0}); !errors.Is(err, ErrBadType) {
		t.Errorf("zero type encoded: %v", err)
	}
}
