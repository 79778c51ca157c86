package pcap

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// writeTestTrace serializes n packets with recognizable payloads and
// returns the raw trace bytes plus the expected packets.
func writeTestTrace(t testing.TB, n int) ([]byte, []*Packet) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	var want []*Packet
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 20+i%64)
		stamp := ts(1000+int64(i), int64(i))
		if err := w.WriteCaptured(stamp, data, len(data)); err != nil {
			t.Fatal(err)
		}
		want = append(want, &Packet{Timestamp: stamp, Data: data, OrigLen: len(data)})
	}
	return buf.Bytes(), want
}

func TestPooledReaderMatchesNext(t *testing.T) {
	raw, want := writeTestTrace(t, 40)
	src := NewPooledReader(mustReader(t, raw), nil)
	for i := 0; ; i++ {
		p, err := src.Next()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("read %d packets, want %d", i, len(want))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data, want[i].Data) || !p.Timestamp.Equal(want[i].Timestamp) || p.OrigLen != want[i].OrigLen {
			t.Fatalf("packet %d mismatch: %+v", i, p)
		}
		src.Release(p)
	}
}

// TestSlabNotRefilledWhilePacketOut is the slab lifetime rule: a slab is
// recycled only when the reader has left it and every packet issued from
// it is back. One packet is held while ten slabs' worth more is drained
// and released — on the reading goroutine and on others, as the pipeline
// and other consumers do — and its bytes must not change; once it is
// released too, its slab must come back through the pool.
func TestSlabNotRefilledWhilePacketOut(t *testing.T) {
	const size = 4 << 10
	raw, want := writeTestTrace(t, 12*size/(recordHeaderLen+20))
	if len(raw) < 11*size {
		t.Fatalf("trace is %d bytes, want at least %d", len(raw), 11*size)
	}
	pool := NewPool()
	pool.slabBytes = size
	src := NewPooledReader(mustReader(t, raw), pool)

	held, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	heldSlab := held.owner
	view := held.Data
	snapshot := append([]byte(nil), heldSlab.buf...)

	var wg sync.WaitGroup
	back := make(chan *Packet, 64)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range back {
				src.Release(p)
			}
		}()
	}
	slabs := map[*slab]bool{heldSlab: true}
	for i := 1; ; i++ {
		p, err := src.Next()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("read %d packets, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data, want[i].Data) {
			t.Fatalf("packet %d data mismatch", i)
		}
		if p.owner == heldSlab && len(slabs) > 1 {
			t.Fatalf("packet %d issued from the held packet's slab after the reader left it", i)
		}
		slabs[p.owner] = true
		if i%2 == 0 {
			src.Release(p)
		} else {
			back <- p
		}
	}
	close(back)
	wg.Wait()
	if &held.Data[0] != &view[0] || !bytes.Equal(held.Data, want[0].Data) || !bytes.Equal(heldSlab.buf, snapshot) {
		t.Fatal("held packet's slab was rewritten while the packet was out")
	}
	src.Release(held)
	if got := pool.getSlab(1); got != heldSlab {
		t.Skip("pool did not hand the slab back (GC interference); recycling untestable this run")
	}
}

// TestPooledReaderOneReadPerRefill pins the latency rule: Next returns a
// record as soon as its bytes have arrived, without waiting for the slab
// to fill — one Read per refill, and none while complete records remain.
func TestPooledReaderOneReadPerRefill(t *testing.T) {
	raw, want := writeTestTrace(t, 3)
	first := globalHeaderLen + recordHeaderLen + len(want[0].Data)
	st := &stepReader{steps: [][]byte{raw[:globalHeaderLen], raw[globalHeaderLen:first], raw[first:]}}
	rd, err := NewReader(st)
	if err != nil {
		t.Fatal(err)
	}
	src := NewPooledReader(rd, nil)
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if st.reads != 2 {
		t.Fatalf("first packet took %d Reads, want 2 (global header, then the record's bytes)", st.reads)
	}
	for i := 1; i < 3; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if st.reads != 3 {
		t.Fatalf("three packets took %d Reads, want 3", st.reads)
	}
}

// stepReader returns one prepared step per Read, then io.EOF.
type stepReader struct {
	steps [][]byte
	reads int
}

func (r *stepReader) Read(p []byte) (int, error) {
	if len(r.steps) == 0 {
		return 0, io.EOF
	}
	r.reads++
	n := copy(p, r.steps[0])
	if r.steps[0] = r.steps[0][n:]; len(r.steps[0]) == 0 {
		r.steps = r.steps[1:]
	}
	return n, nil
}

func mustReader(t testing.TB, raw []byte) *Reader {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReadAllTruncatedFinalRecord pins the mid-record-truncation
// contract: the packets before the cut are returned, and the error wraps
// io.ErrUnexpectedEOF whether the cut lands in the record body or the
// record header.
func TestReadAllTruncatedFinalRecord(t *testing.T) {
	raw, want := writeTestTrace(t, 5)
	lastBody := 20 + 4%64 // length of the final packet's body
	for name, cut := range map[string]int{
		"mid-body":   3,            // strips part of the last body
		"whole-body": lastBody,     // strips exactly the last body
		"mid-header": lastBody + 7, // leaves a partial record header
	} {
		t.Run(name, func(t *testing.T) {
			r := mustReader(t, raw[:len(raw)-cut])
			pkts, err := ReadAll(r)
			if err == nil {
				t.Fatal("truncated trace read without error")
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("err = %v, want wrapped io.ErrUnexpectedEOF", err)
			}
			if len(pkts) != len(want)-1 {
				t.Fatalf("got %d packets before the cut, want %d", len(pkts), len(want)-1)
			}
			for i, p := range pkts {
				if !bytes.Equal(p.Data, want[i].Data) {
					t.Errorf("packet %d data mismatch", i)
				}
			}
		})
	}
}

// TestBufferedReaderWrap verifies NewReader still parses correctly when
// handed a reader with no internal buffering (the wrap path).
func TestBufferedReaderWrap(t *testing.T) {
	raw, want := writeTestTrace(t, 10)
	r, err := NewReader(onlyReader{bytes.NewReader(raw)})
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != len(want) {
		t.Fatalf("read %d packets, want %d", len(pkts), len(want))
	}
}

// onlyReader hides every interface except io.Reader.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// BenchmarkReadPacketPooled is the pooled counterpart of
// BenchmarkReadPacket: steady-state reads must not allocate.
func BenchmarkReadPacketPooled(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, LinkTypeEthernet)
	data := bytes.Repeat([]byte{0x5A}, 1400)
	for i := 0; i < 1000; i++ {
		_ = w.WriteCaptured(time.Unix(int64(i), 0), data, len(data))
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	src := NewPooledReader(mustReader(b, raw), nil)
	for i := 0; i < b.N; i++ {
		p, err := src.Next()
		if err == io.EOF {
			src = NewPooledReader(mustReader(b, raw), src.pool)
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		src.Release(p)
	}
}
