package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func ts(sec int64, usec int64) time.Time {
	return time.Unix(sec, usec*1000).UTC()
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		{0x01},
		bytes.Repeat([]byte{0xab}, 1500),
		{},
	}
	for i, p := range payloads {
		if err := w.WriteCaptured(ts(1000+int64(i), 42), p, len(p)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.hdr.LinkType != LinkTypeEthernet {
		t.Errorf("link type = %d", r.hdr.LinkType)
	}
	if r.hdr.SnapLen != 65535 {
		t.Errorf("snaplen = %d, want 65535 default", r.hdr.SnapLen)
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("read %d packets, want %d", len(got), len(payloads))
	}
	for i, p := range got {
		if !bytes.Equal(p.Data, payloads[i]) {
			t.Errorf("packet %d data mismatch", i)
		}
		if p.OrigLen != len(payloads[i]) {
			t.Errorf("packet %d origlen = %d", i, p.OrigLen)
		}
		if p.OrigLen > len(p.Data) {
			t.Errorf("packet %d unexpectedly truncated", i)
		}
		if want := ts(1000+int64(i), 42); !p.Timestamp.Equal(want) {
			t.Errorf("packet %d ts = %v, want %v", i, p.Timestamp, want)
		}
	}
}

func TestSnaplenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 68, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	full := bytes.Repeat([]byte{0x55}, 1500)
	if err := w.WriteCaptured(ts(1, 0), full, len(full)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 68 {
		t.Errorf("captured %d bytes, want 68", len(p.Data))
	}
	if p.OrigLen != 1500 {
		t.Errorf("origlen = %d, want 1500", p.OrigLen)
	}
}

func TestBadMagic(t *testing.T) {
	data := make([]byte, 24)
	copy(data, []byte("not a pcap file........."))
	if _, err := NewReader(bytes.NewReader(data)); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short header should error")
	}
}

func TestTruncatedRecordBody(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, LinkTypeEthernet)
	_ = w.WriteCaptured(ts(1, 0), []byte{1, 2, 3, 4}, 4)
	raw := buf.Bytes()
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated body: err = %v, want non-EOF error", err)
	}
	// Error should be sticky.
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("sticky error lost: %v", err)
	}
}

func TestBigEndianAndNanos(t *testing.T) {
	// Hand-construct a big-endian nanosecond trace with one packet.
	var buf bytes.Buffer
	gh := make([]byte, 24)
	binary.BigEndian.PutUint32(gh[0:4], MagicNanoseconds)
	binary.BigEndian.PutUint16(gh[4:6], 2)
	binary.BigEndian.PutUint16(gh[6:8], 4)
	binary.BigEndian.PutUint32(gh[16:20], 65535)
	binary.BigEndian.PutUint32(gh[20:24], LinkTypeEthernet)
	buf.Write(gh)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 1700000000)
	binary.BigEndian.PutUint32(rec[4:8], 123456789) // nanoseconds
	binary.BigEndian.PutUint32(rec[8:12], 2)
	binary.BigEndian.PutUint32(rec[12:16], 2)
	buf.Write(rec)
	buf.Write([]byte{0xde, 0xad})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !r.hdr.Nanos {
		t.Error("Nanos = false, want true")
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(1700000000, 123456789).UTC()
	if !p.Timestamp.Equal(want) {
		t.Errorf("ts = %v, want %v", p.Timestamp, want)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	gh := make([]byte, 24)
	binary.LittleEndian.PutUint32(gh[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint32(gh[16:20], 100) // snaplen 100
	binary.LittleEndian.PutUint32(gh[20:24], LinkTypeEthernet)
	buf.Write(gh)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:12], 5000) // incl_len > snaplen
	buf.Write(rec)
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("oversize record should error")
	}
}

func TestSliceSource(t *testing.T) {
	pkts := []*Packet{
		{Timestamp: ts(1, 0)},
		{Timestamp: ts(2, 0)},
	}
	s := NewSliceSource(pkts)
	for i := 0; i < 2; i++ {
		p, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !p.Timestamp.Equal(pkts[i].Timestamp) {
			t.Errorf("packet %d out of order", i)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

// Property: write/read round trip preserves data and lengths for arbitrary
// payloads under any snaplen.
func TestRoundTripProperty(t *testing.T) {
	f := func(payload []byte, snap uint16) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, uint32(snap), LinkTypeEthernet)
		if err != nil {
			return false
		}
		if err := w.WriteCaptured(ts(100, 5), payload, len(payload)); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		p, err := r.Next()
		if err != nil {
			return false
		}
		wantLen := len(payload)
		if int(w.snaplen) < wantLen {
			wantLen = int(w.snaplen)
		}
		return len(p.Data) == wantLen &&
			bytes.Equal(p.Data, payload[:wantLen]) &&
			p.OrigLen == len(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWritePacket(b *testing.B) {
	w, _ := NewWriter(io.Discard, 0, LinkTypeEthernet)
	data := bytes.Repeat([]byte{0xaa}, 500)
	t0 := ts(1, 0)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.WriteCaptured(t0, data, len(data))
	}
}

func BenchmarkReadPacket(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, LinkTypeEthernet)
	data := bytes.Repeat([]byte{0xaa}, 500)
	for i := 0; i < 1000; i++ {
		_ = w.WriteCaptured(ts(int64(i), 0), data, len(data))
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := NewReader(bytes.NewReader(raw))
		for {
			if _, err := r.Next(); err != nil {
				break
			}
		}
	}
}
