package fleet

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeFrame hammers the frame parser with arbitrary bytes. The
// invariants: no panic, no over-allocation (enforced by wire limits),
// any accepted frame re-encodes to exactly the bytes consumed — i.e.
// the parser accepts only the canonical encoding — and ReadFrame accepts
// what DecodeFrame accepts, reading the same frame.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(fr *Frame) {
		b, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(testFrame())
	seed(&Frame{Type: FrameHello, Site: "site-b", Payload: bytes.Repeat([]byte{7}, 100)})
	seed(&Frame{Type: FrameAck, Seq: 1 << 62})
	seed(&Frame{Type: FrameHeartbeat, Site: "s", Watermark: -1})
	seed(&Frame{Type: FrameFin, Site: "tail", Window: 41})
	f.Add([]byte("EFL1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			if fr != nil {
				t.Fatal("frame returned alongside error")
			}
		} else {
			if n <= 0 || n > len(b) {
				t.Fatalf("consumed %d of %d", n, len(b))
			}
			re, err := EncodeFrame(fr)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if !bytes.Equal(re, b[:n]) {
				t.Fatalf("non-canonical accept:\n in  %x\n out %x", b[:n], re)
			}
		}
		// The stream path accepts exactly what the slice path accepts,
		// and reads the same frame.
		sf, serr := ReadFrame(bufio.NewReader(bytes.NewReader(b)))
		if (err == nil) != (serr == nil) {
			t.Fatalf("slice err %v, stream err %v", err, serr)
		}
		if err == nil && !reflect.DeepEqual(sf, fr) {
			t.Fatalf("stream frame %+v, slice frame %+v", sf, fr)
		}
	})
}

// FuzzCodecUnmarshal feeds arbitrary bytes to the payload codec against
// the fixture type, through the compiled plans and through the
// reference walk they replaced. Neither may panic, and they must agree:
// both reject with the same error text, or both accept, decode to the
// same value, and re-encode it to the same bytes through either
// encoder. The corpus under testdata/ adds real window snapshots
// (internal/core's epoch type, so to the fixture they are structured
// noise) to the fixture's own encoding. Check, which walks the bytes
// without decoding them, must refuse exactly what the decode refuses,
// with the same error.
func FuzzCodecUnmarshal(f *testing.F) {
	b, err := Marshal(mkFixture())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		diffUnmarshal(t, b, freshFixture)
		checkMatchesDecode(t, b)
	})
}

// checkMatchesDecode fails unless Check refuses b for the fixture type
// exactly when the decode does, with the same error.
func checkMatchesDecode(t testing.TB, b []byte) {
	t.Helper()
	err, checkErr := unmarshal(b, freshFixture()), Check[wireFixture](b)
	if (err == nil) != (checkErr == nil) || (err != nil && err.Error() != checkErr.Error()) {
		t.Fatalf("Check disagrees with the decode on %x\n Check: %v\ndecode: %v", b, checkErr, err)
	}
}
