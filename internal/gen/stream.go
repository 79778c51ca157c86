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

// DatasetStream is the scheduled trace of dataset cfg, as the three
// binaries stream it: sched at cfg's first monitored subnet, tap 0, cut
// to cfg's snaplen.
func DatasetStream(cfg enterprise.Config, sched Schedule) StreamConfig {
	return StreamConfig{Network: enterprise.NewNetwork(cfg), Subnet: cfg.Monitored[0], Schedule: sched, Snaplen: cfg.Snaplen}
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

// frameRec is one synthesized frame waiting in the reorder buffer, under
// the key Emitter.Packets sorts by: timestamp, then idx, its global
// emission index — the order the generator produced it — which breaks
// timestamp ties exactly as Packets does.
type frameRec struct {
	ts  int64 // pk.Timestamp, Unix nanoseconds
	idx int64
	pk  *pcap.Packet
}

func (a frameRec) before(b frameRec) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	return a.idx < b.idx
}

// frameHeap is a binary min-heap on (timestamp, emission index), written
// for the one element type: container/heap's interface boxes every
// record pushed and popped, an allocation per frame each way.
type frameHeap []frameRec

func (h *frameHeap) push(r frameRec) {
	q := append(*h, r)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !r.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = r
	*h = q
}

func (h *frameHeap) pop() frameRec {
	q := *h
	top, n := q[0], len(q)-1
	r := q[n]
	q[n] = frameRec{}
	q = q[:n]
	// Sift the former last element down from the root.
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(r) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = r
	}
	*h = q
	return top
}

// StreamSource synthesizes frames on demand from a Schedule and yields
// them in capture order. It implements pcap.PacketSource and
// pcap.Releaser: the emitter builds each frame, at capture length,
// straight into a pooled packet, which waits in the reorder heap, goes
// out through Next and is recycled as soon as the pipeline releases it.
// Building, buffering and handing over a frame allocate nothing once the
// pool's buffers have grown to frame size. What a soak run still
// allocates is per session, not per frame — each turn's payload, the
// protocol encoders' buffers, the turn list — plus whatever the pool
// re-grows after a collection empties it: TestAllocationCeilings' row
// gen/stream pins the sum, 0.78 allocations and 0.8 KB per frame on the
// default shape (most of it HTTP bodies, which are most of the frames).
//
// Next and Release follow the pooling contract: Next is called from one
// goroutine; Release is safe from any (the pipeline calls it from the
// goroutine that calls Next, a batch at a time; other consumers need
// not). A frame is the source's until Release; a consumer copies what
// of its Data it keeps, as with any pooled source.
type StreamSource struct {
	run     *scheduleRun
	offsets []time.Duration
	next    int // next session index to synthesize
	h       frameHeap
	pool    *pcap.Pool
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
		offsets: cfg.Schedule.SessionOffsets(),
		pool:    pcap.NewPool(),
	}
	// The run's emitter builds into s from its first frame, the ARP
	// anchor exchange.
	s.run = newScheduleRun(cfg.Network, cfg.Subnet, cfg.Tap, cfg.Schedule, cfg.Snaplen, s)
	return s
}

// newFrame hands the emitter the pooled packet its next frame is built
// in: what the frame keeps at the capture length is appended to Data.
func (s *StreamSource) newFrame(ts time.Time) *pcap.Packet {
	pk := s.pool.Get()
	pk.Timestamp, pk.Data = ts, pk.Data[:0]
	return pk
}

// park takes a built frame back from the emitter and holds it in the
// reorder heap under its emission index.
func (s *StreamSource) park(pk *pcap.Packet) {
	s.h.push(frameRec{ts: pk.Timestamp.UnixNano(), idx: s.emitIdx, pk: pk})
	s.emitIdx++
	s.peakBuf = max(s.peakBuf, len(s.h))
}

// Next implements pcap.PacketSource, yielding the globally next frame
// and ending with a bare io.EOF.
//
// Emission order reproduces Emitter.Packets' exactly. The heap orders
// buffered frames by (timestamp, emission index) — the key Packets
// sorts by. A buffered frame may be emitted once its timestamp
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
				s.h[0].ts <= s.run.g.start.Add(s.offsets[s.next]).UnixNano() {
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
	}
}

// pop releases the earliest buffered frame to the consumer. The frame
// was built at the capture length, wire length in OrigLen; what is left
// of the transform a pcap write/read round-trip applies is the timestamp
// cut to microsecond resolution (pcap.Writer stores µs; pcap.Reader
// returns UTC) — so a streamed run and a replayed file see identical
// packets.
func (s *StreamSource) pop() *pcap.Packet {
	pk := s.h.pop().pk
	ts := pk.Timestamp
	pk.Timestamp = time.Unix(ts.Unix(), int64(ts.Nanosecond())/1000*1000).UTC()
	s.frames++
	if live := s.live.Add(1); live > s.peak.Load() {
		s.peak.Store(live)
	}
	return pk
}

// Release implements pcap.Releaser, recycling a frame's buffer once the
// consumer is done with it. Safe to call from any goroutine.
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
