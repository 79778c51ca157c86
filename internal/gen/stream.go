// The streaming generator source: the gen→analyze load harness.
//
// StreamSource synthesizes a scheduled trace's frames on the fly and
// feeds them straight into the analysis pipeline as a pcap.PacketSource
// — no pcap file is written or read in between, and memory stays
// bounded no matter how long the schedule runs. It is the tool ROADMAP
// item 4 names: the generator pushed to production-bench scale, so soak
// runs can sustain a target packet rate for minutes while entanalyze
// -serve reports live windows.
//
// Equivalence contract: the frame sequence a StreamSource yields is
// byte-identical — timestamps, capture truncation, and order included —
// to writing GenerateScheduledTrace's output through pcap.Writer and
// reading it back. DESIGN.md §"Packet sources" walks through why; the
// short version is in the emission-order comment on Next below.
package gen

import (
	"container/heap"
	"io"
	"sync/atomic"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/pcap"
)

// StreamConfig configures a streaming generator source.
type StreamConfig struct {
	// Network is the enterprise model; its Config supplies the seed and
	// trace date, exactly as for GenerateScheduledTrace.
	Network *enterprise.Network
	// Subnet and Tap select the monitored-subnet vantage (the same
	// parameters entgen -schedule uses: the dataset's first monitored
	// subnet, tap 0).
	Subnet, Tap int
	// Schedule is the session timeline. Use Schedule.Repeat to tile a
	// short shape over a soak duration.
	Schedule Schedule
	// Snaplen truncates captured frames exactly as the capture hardware
	// (pcap.Writer) would: Data is cut to Snaplen, OrigLen keeps the
	// wire length. 0 means no truncation.
	Snaplen uint32
}

// StreamStats is a StreamSource's bounded-memory telemetry.
type StreamStats struct {
	// Frames is the total number of frames yielded so far.
	Frames int64
	// PeakBuffered is the high-water mark of the reorder buffer: the
	// most frames ever pending between synthesis and emission. It is
	// bounded by the sessions whose spans overlap one instant (rate ×
	// session length) plus the largest single session's frames — set by
	// the schedule's rate and the size distributions, not its length, so
	// soak runs hold steady however long they go (the property
	// TestStreamSourceBoundedBuffer and the soak-scale test pin).
	PeakBuffered int
	// PeakInFlight is the most frames ever issued to the consumer and
	// not yet returned via Release; for the pipeline this is bounded by
	// its batches in circulation (six per worker) times the batch size.
	PeakInFlight int64
}

// frameRec is one synthesized frame waiting in the reorder buffer. idx
// is its global emission index — the order the generator produced it —
// which breaks timestamp ties exactly like the stable sort in
// Emitter.Packets does.
type frameRec struct {
	pk  *pcap.Packet
	idx int64
}

// frameHeap is a min-heap on (timestamp, emission index).
type frameHeap []frameRec

func (h frameHeap) Len() int { return len(h) }
func (h frameHeap) Less(i, j int) bool {
	if !h[i].pk.Timestamp.Equal(h[j].pk.Timestamp) {
		return h[i].pk.Timestamp.Before(h[j].pk.Timestamp)
	}
	return h[i].idx < h[j].idx
}
func (h frameHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *frameHeap) Push(x interface{}) { *h = append(*h, x.(frameRec)) }
func (h *frameHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = frameRec{}
	*h = old[:n-1]
	return e
}

// StreamSource synthesizes frames on demand from a Schedule and yields
// them in capture order. It implements pcap.PacketSource and
// pcap.Releaser: frames are built into pooled buffers and recycled as
// soon as the pipeline releases them, so a soak run's steady state
// allocates nothing per frame.
//
// Next and Release follow the pooling contract: Next is called from one
// goroutine; Release is safe from any (the pipeline calls it from the
// goroutine that calls Next, a batch at a time; other consumers need
// not). A consumer keeping slices into a frame's Data must call Retain
// first, as with any pooled source.
type StreamSource struct {
	run     *scheduleRun
	offsets []time.Duration
	next    int // next session index to synthesize
	h       frameHeap
	pool    *pcap.Pool
	snaplen uint32
	emitIdx int64
	done    bool

	frames  int64
	peakBuf int
	live    atomic.Int64
	peak    atomic.Int64
}

// NewStreamSource returns a source over cfg's schedule. Construction
// synthesizes only the anchor frames; everything else is generated
// lazily as Next drains the timeline.
func NewStreamSource(cfg StreamConfig) *StreamSource {
	s := &StreamSource{
		run:     newScheduleRun(cfg.Network, cfg.Subnet, cfg.Tap, cfg.Schedule),
		offsets: cfg.Schedule.SessionOffsets(),
		pool:    pcap.NewPool(),
		snaplen: cfg.Snaplen,
	}
	s.run.g.em.Drain(s.buffer) // the ARP anchor exchange
	return s
}

// buffer copies one synthesized frame into a pooled packet and parks it
// in the reorder heap under its emission index.
func (s *StreamSource) buffer(ts time.Time, data []byte) {
	pk := s.pool.Get()
	pk.Timestamp = ts
	pk.Data = append(pk.Data[:0], data...)
	pk.OrigLen = len(data)
	heap.Push(&s.h, frameRec{pk: pk, idx: s.emitIdx})
	s.emitIdx++
	if len(s.h) > s.peakBuf {
		s.peakBuf = len(s.h)
	}
}

// Next implements pcap.PacketSource, yielding the globally next frame
// and ending with a bare io.EOF.
//
// Emission order reproduces Emitter.Packets' stable sort exactly. The
// heap orders buffered frames by (timestamp, emission index) — the
// stable sort's key. A buffered frame may be emitted once its timestamp
// is at or before the next unsynthesized session's start, because every
// frame of session m carries a timestamp >= its start offset (see
// scheduleRun.emitSession) and offsets are non-decreasing — so no
// future frame can sort earlier: a future frame at the same timestamp
// necessarily has a larger emission index. When the earliest buffered
// frame is still past that horizon, the next session is synthesized
// first. The buffer therefore holds only sessions overlapping the
// current instant: bounded by rate × session length, never by schedule
// duration.
func (s *StreamSource) Next() (*pcap.Packet, error) {
	if s.done {
		return nil, io.EOF
	}
	for {
		if len(s.h) > 0 {
			if s.next >= len(s.offsets) ||
				!s.h[0].pk.Timestamp.After(s.run.g.start.Add(s.offsets[s.next])) {
				return s.pop(), nil
			}
		}
		if s.next >= len(s.offsets) {
			s.done = true
			s.run.g.pinned = time.Time{}
			return nil, io.EOF
		}
		s.run.emitSession(s.next, s.offsets[s.next])
		s.next++
		s.run.g.em.Drain(s.buffer)
	}
}

// pop releases the earliest buffered frame to the consumer, applying
// the capture transform a pcap write/read round-trip would: snaplen
// truncation with the wire length preserved, and the timestamp cut to
// microsecond resolution (pcap.Writer stores µs; pcap.Reader returns
// UTC) — so a streamed run and a replayed file see identical packets.
func (s *StreamSource) pop() *pcap.Packet {
	rec := heap.Pop(&s.h).(frameRec)
	pk := rec.pk
	if s.snaplen > 0 && uint32(len(pk.Data)) > s.snaplen {
		pk.Data = pk.Data[:s.snaplen]
	}
	ts := pk.Timestamp
	pk.Timestamp = time.Unix(ts.Unix(), int64(ts.Nanosecond())/1000*1000).UTC()
	s.frames++
	if live := s.live.Add(1); live > s.peak.Load() {
		s.peak.Store(live)
	}
	return pk
}

// Release implements pcap.Releaser, recycling a frame's buffer once the
// consumer is done with it (a no-op for retained packets, whose data
// has escaped into longer-lived analysis state). Safe to call from any
// goroutine.
func (s *StreamSource) Release(p *pcap.Packet) {
	s.live.Add(-1)
	s.pool.Put(p)
}

// Stats returns the source's telemetry. Call it after the run drains;
// mid-run values are approximate for the in-flight counters.
func (s *StreamSource) Stats() StreamStats {
	return StreamStats{
		Frames:       s.frames,
		PeakBuffered: s.peakBuf,
		PeakInFlight: s.peak.Load(),
	}
}

// WriteStream drains src into w as a pcap file, releasing each frame as
// soon as it is written, so arbitrarily long schedules serialize in
// bounded memory. The file is byte-identical to WriteTrace over the
// materialized GenerateScheduledTrace packets (the source already
// applies the capture transform). Returns the frame count.
func WriteStream(w io.Writer, snaplen uint32, src *StreamSource) (int64, error) {
	pw, err := pcap.NewWriter(w, snaplen, pcap.LinkTypeEthernet)
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		p, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		werr := pw.WriteCaptured(p.Timestamp, p.Data, p.OrigLen)
		src.Release(p)
		if werr != nil {
			return n, werr
		}
		n++
	}
}
