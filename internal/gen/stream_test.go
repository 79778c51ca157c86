package gen

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/pcap"
)

// drainStream pulls every frame out of a StreamSource, copying each one
// before releasing its buffer (the consumer-side pooling contract).
func drainStream(t *testing.T, s *StreamSource) []*pcap.Packet {
	t.Helper()
	var out []*pcap.Packet
	for {
		p, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &pcap.Packet{
			Timestamp: p.Timestamp,
			Data:      append([]byte(nil), p.Data...),
			OrigLen:   p.OrigLen,
		})
		s.Release(p)
	}
}

// TestStreamSourceMatchesPcapRoundTrip pins the tentpole equivalence at
// the frame level: the streamed sequence must be byte-identical —
// timestamps, snaplen truncation, wire lengths, and order — to writing
// GenerateScheduledTrace's output through pcap.Writer and reading it
// back. Both a full-snaplen (D3) and a 68-byte-snaplen (D1) capture
// shape are checked, so the truncation transform is exercised.
func TestStreamSourceMatchesPcapRoundTrip(t *testing.T) {
	for _, cfg := range []enterprise.Config{enterprise.D3(), enterprise.D1()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			sched := DefaultSchedule()
			subnet := cfg.Monitored[0]

			// Reference path: materialize, serialize, read back.
			pkts := GenerateScheduledTrace(enterprise.NewNetwork(cfg), subnet, 0, sched)
			var buf bytes.Buffer
			tr := Trace{Subnet: subnet, Packets: pkts, Prefix: enterprise.SubnetPrefix(subnet)}
			if err := WriteTrace(&buf, cfg, tr); err != nil {
				t.Fatal(err)
			}
			rd, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := pcap.ReadAll(rd)
			if err != nil {
				t.Fatal(err)
			}

			src := NewStreamSource(StreamConfig{
				Network:  enterprise.NewNetwork(cfg),
				Subnet:   subnet,
				Schedule: sched,
				Snaplen:  cfg.Snaplen,
			})
			got := drainStream(t, src)

			if len(got) != len(want) {
				t.Fatalf("streamed %d frames, pcap round-trip %d", len(got), len(want))
			}
			for i := range got {
				if !got[i].Timestamp.Equal(want[i].Timestamp) {
					t.Fatalf("frame %d: ts %v != %v", i, got[i].Timestamp, want[i].Timestamp)
				}
				if got[i].OrigLen != want[i].OrigLen {
					t.Fatalf("frame %d: origlen %d != %d", i, got[i].OrigLen, want[i].OrigLen)
				}
				if !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("frame %d: data differs (%d vs %d bytes)", i, len(got[i].Data), len(want[i].Data))
				}
			}
			st := src.Stats()
			if st.Frames != int64(len(got)) {
				t.Errorf("Stats.Frames = %d, want %d", st.Frames, len(got))
			}
			if st.PeakBuffered <= 0 {
				t.Errorf("Stats.PeakBuffered = %d, want > 0", st.PeakBuffered)
			}
		})
	}
}

// TestFrameHeapPopsInKeyOrder drives the typed reorder heap the way Next
// does — pushes and pops interleaved, many timestamp ties — and holds
// what comes out to a sort of what went in by (timestamp, index).
func TestFrameHeapPopsInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h frameHeap
	var in, out []frameRec
	for idx := int64(0); idx < 5000; idx++ {
		r := frameRec{ts: int64(len(out)) + rng.Int63n(40), idx: idx}
		in = append(in, r)
		h.push(r)
		// Later pushes sit at or past len(out): drain what none of them
		// can precede, as Next's horizon rule does.
		for len(h) > 0 && h[0].ts <= int64(len(out)) {
			out = append(out, h.pop())
		}
	}
	for len(h) > 0 {
		out = append(out, h.pop())
	}
	slices.SortFunc(in, func(a, b frameRec) int {
		if a.before(b) {
			return -1
		}
		return 1
	})
	if !slices.Equal(in, out) {
		t.Fatalf("heap order differs from the key sort (%d in, %d out)", len(in), len(out))
	}
}

// TestStreamSourceBoundedBuffer is the soak-mode memory guarantee: the
// reorder buffer's high-water mark depends on the session rate (how many
// sessions overlap one instant), not on how long the schedule runs. A
// 10×-longer steady schedule must not buffer more frames than the short
// one beyond ties at the same rate.
func TestStreamSourceBoundedBuffer(t *testing.T) {
	cfg := enterprise.D3()
	shape, err := ParseSchedule("steady:30s:120")
	if err != nil {
		t.Fatal(err)
	}
	peak := func(sched Schedule) (int, int64) {
		src := NewStreamSource(StreamConfig{
			Network:  enterprise.NewNetwork(cfg),
			Subnet:   cfg.Monitored[0],
			Schedule: sched,
			Snaplen:  cfg.Snaplen,
		})
		var n int64
		for {
			p, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
			src.Release(p)
		}
		st := src.Stats()
		if st.Frames != n {
			t.Fatalf("Stats.Frames = %d, drained %d", st.Frames, n)
		}
		return st.PeakBuffered, n
	}
	long := shape.Repeat(10 * shape.Duration())
	if got, want := len(long.SessionOffsets()), 10*len(shape.SessionOffsets()); got != want {
		t.Fatalf("long schedule has %d sessions, want %d", got, want)
	}
	shortPeak, shortFrames := peak(shape)
	longPeak, longFrames := peak(long)
	// Frame counts per session are heavy-tailed (logNormal bodies), so
	// only the order of magnitude is checked here; the session count
	// above is exact.
	if longFrames < 4*shortFrames {
		t.Fatalf("long run yielded %d frames vs the short run's %d", longFrames, shortFrames)
	}
	if longPeak > shortPeak*2 {
		t.Errorf("peak buffered frames grew with duration: short %d, long %d", shortPeak, longPeak)
	}
	// An immediately-released drain keeps at most one frame in flight.
	src := NewStreamSource(StreamConfig{
		Network: enterprise.NewNetwork(cfg), Subnet: cfg.Monitored[0], Schedule: shape,
	})
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		src.Release(p)
	}
	if got := src.Stats().PeakInFlight; got != 1 {
		t.Errorf("PeakInFlight = %d, want 1 for an immediate-release drain", got)
	}
}

// TestScheduleRepeat pins the soak tiling semantics: whole phases only,
// total length >= the target, unchanged when the target already fits.
func TestScheduleRepeat(t *testing.T) {
	s, err := ParseSchedule("ramp:30s:0-10,quiet:30s")
	if err != nil {
		t.Fatal(err)
	}
	r := s.Repeat(5 * time.Minute)
	if r.Duration() < 5*time.Minute {
		t.Errorf("Repeat(5m).Duration() = %s", r.Duration())
	}
	if len(r.Phases)%len(s.Phases) != 0 {
		t.Errorf("Repeat split a phase: %d phases from %d", len(r.Phases), len(s.Phases))
	}
	if same := s.Repeat(time.Minute); same.Duration() != s.Duration() {
		t.Errorf("Repeat(<=total) changed the schedule: %s", same.Duration())
	}
	if same := s.Repeat(0); len(same.Phases) != len(s.Phases) {
		t.Errorf("Repeat(0) changed the schedule")
	}
}
