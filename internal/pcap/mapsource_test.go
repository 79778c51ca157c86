package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// mapTestTrace serializes a small trace exercising the record shapes
// the map walker must agree with the streaming Reader on: empty
// payload, full frame, and a snaplen-truncated record.
func mapTestTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 96, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		{},
		{0xde, 0xad, 0xbe, 0xef},
		bytes.Repeat([]byte{0x55}, 64),
		bytes.Repeat([]byte{0xab}, 1500), // truncated to 96 on write
	}
	for i, p := range payloads {
		if err := w.WriteCaptured(ts(1000+int64(i), 250), p, len(p)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestMapSourceMatchesReader is the parity pin: packet for packet, the
// zero-copy map walker and the streaming Reader agree on timestamps,
// capture data, and original lengths — and the map source's Data really
// is a view into the input, not a copy.
func TestMapSourceMatchesReader(t *testing.T) {
	raw := mapTestTrace(t)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewMapSource(raw)
	if err != nil {
		t.Fatal(err)
	}
	if src.hdr != r.hdr {
		t.Errorf("header = %+v, want %+v", src.hdr, r.hdr)
	}
	for i, w := range want {
		p, err := src.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !p.Timestamp.Equal(w.Timestamp) || p.OrigLen != w.OrigLen || !bytes.Equal(p.Data, w.Data) {
			t.Errorf("packet %d = {%v %d %x}, want {%v %d %x}",
				i, p.Timestamp, p.OrigLen, p.Data, w.Timestamp, w.OrigLen, w.Data)
		}
		if len(p.Data) > 0 {
			// Zero-copy: the view must alias raw, not a fresh buffer.
			if &p.Data[0] != &raw[rawOffsetOf(t, raw, p.Data)] {
				t.Errorf("packet %d: Data is a copy, want a view into the input", i)
			}
		}
		src.Release(p)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("after last packet: err = %v, want io.EOF", err)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("EOF not sticky: %v", err)
	}
}

// rawOffsetOf locates view's backing offset inside raw by content
// search from the front; the test traces keep payloads distinct enough
// that the first match is the right one.
func rawOffsetOf(t *testing.T, raw []byte, view []byte) int {
	t.Helper()
	off := bytes.Index(raw, view)
	if off < 0 {
		t.Fatal("view content not found in input")
	}
	return off
}

// TestMapSourceTruncatedFinalRecord pins the torn-trace contract shared
// with Reader: every complete record is delivered, then the cut — in
// the body or in the record header — surfaces as a sticky error
// wrapping io.ErrUnexpectedEOF, which the degrade policy's fallback
// classification buckets as a terminal torn-record.
func TestMapSourceTruncatedFinalRecord(t *testing.T) {
	raw := mapTestTrace(t)
	for _, cut := range []struct {
		name string
		drop int
	}{
		{"torn-body", 2},                      // last record loses 2 payload bytes
		{"torn-header", 96 + 2},               // cut lands inside the last record header
		{"header-only-trailing", 96 + 16 - 1}, // 15 bytes of header, no more
	} {
		t.Run(cut.name, func(t *testing.T) {
			src, err := NewMapSource(raw[:len(raw)-cut.drop])
			if err != nil {
				t.Fatal(err)
			}
			var got int
			var readErr error
			for {
				p, err := src.Next()
				if err != nil {
					readErr = err
					break
				}
				got++
				src.Release(p)
			}
			if got != 3 {
				t.Errorf("delivered %d packets before the tear, want 3", got)
			}
			if !errors.Is(readErr, io.ErrUnexpectedEOF) {
				t.Errorf("err = %v, want wrapped io.ErrUnexpectedEOF", readErr)
			}
			if kind, recoverable := ClassifyReadError(readErr); kind != "torn-record" || recoverable {
				t.Errorf("classified as (%q, %v), want (torn-record, false)", kind, recoverable)
			}
			if _, err := src.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("sticky error lost: %v", err)
			}
		})
	}
}

// TestMapSourceReleasePoisons is the use-after-release tripwire: a
// released packet's view into the mapping must be gone (nil Data, so
// any indexing panics immediately).
func TestMapSourceReleasePoisons(t *testing.T) {
	src, err := NewMapSource(mapTestTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := src.Next(); err != nil {
		t.Fatal(err)
	} else {
		src.Release(p)
	}
	released, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(released.Data) == 0 {
		t.Fatal("test wants a non-empty record")
	}
	src.Release(released)
	if released.Data != nil || released.OrigLen != 0 || !released.Timestamp.IsZero() {
		t.Errorf("released packet not poisoned: %+v", released)
	}
}

// TestMapSourceHeaderErrors pins the constructor's failure modes to the
// Reader's shapes: too short for a global header — a zero-length image
// included — wraps io.ErrUnexpectedEOF, a wrong magic is ErrBadMagic.
func TestMapSourceHeaderErrors(t *testing.T) {
	for _, short := range [][]byte{nil, {}, {1, 2, 3}} {
		_, err := NewMapSource(short)
		if !errors.Is(err, io.ErrUnexpectedEOF) || err.Error() != "pcap: reading global header: unexpected EOF" {
			t.Errorf("%d-byte image: err = %v, want \"pcap: reading global header: unexpected EOF\"", len(short), err)
		}
	}
	bad := make([]byte, 24)
	copy(bad, "not a pcap file.........")
	if _, err := NewMapSource(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: err = %v, want ErrBadMagic", err)
	}
}
