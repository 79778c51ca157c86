// Package reassembly reconstructs in-order TCP byte streams from decoded
// segments, one Stream per flow direction. It tolerates the realities of
// the paper's traces: out-of-order arrival, retransmission (overlapping
// sequence ranges keep the first copy, the behaviour of most monitors),
// and capture gaps (a receiver ACKing data the trace never contains —
// which the paper observed and attributed to incomplete capture). Gaps are
// skipped after a configurable amount of buffered out-of-order data, with
// the skip reported to the consumer so application analyzers can resync.
//
// The layer is (near-)zero-copy: in-order segments are delivered to the
// consumer as slices of the caller's buffer, and only genuinely
// out-of-order bytes are copied — into pooled buffers recycled through
// GetBuffer/PutBuffer. Overlap between buffered segments is trimmed away
// at insertion, so pending memory (and the gap-skip accounting) covers
// each missing byte exactly once no matter how heavily the trace
// retransmits.
//
// # Overlap-conflict policy
//
// When two segments cover the same sequence range, the first copy wins —
// the paper-era Bro policy. Concretely:
//
//   - Bytes at or behind the delivery cursor are never re-delivered. A
//     retransmission overlapping already-delivered data is trimmed and the
//     trimmed bytes counted as duplicates (the delivered copy is not
//     retained, so a content comparison is impossible there by design).
//   - Among buffered out-of-order segments, the copy that arrived first is
//     kept and later arrivals for the same range are dropped at insertion.
//     Both copies are in hand at that moment, so dropped bytes are split
//     byte-wise into DuplicateBytes (identical content) and ConflictBytes
//     (differing content — the signature of an evasion attempt, since a
//     well-behaved sender retransmits the same data).
//   - An in-order arrival is delivered immediately, even if a buffered
//     out-of-order copy of the same range exists; the buffered copy is
//     trimmed when the cursor passes it and counted as duplicate.
//
// Every stream keeps an Accounting ledger of these events; the
// conservation invariant
//
//	IngestBytes == DeliveredBytes + DuplicateBytes + ConflictBytes +
//	               DiscardedBytes + PendingBytes()
//
// holds after every Segment call (with PendingBytes() == 0 once the
// stream is closed or discarded), and the delivery cursor advances by
// exactly DeliveredBytes + GapSkippedBytes.
package reassembly

import (
	"bytes"
	"sort"
)

// Consumer receives the reassembled byte stream of one flow direction.
type Consumer interface {
	// Data delivers the next in-order chunk. The slice borrows either the
	// caller's segment buffer or a pooled reassembly buffer: it is valid
	// only until Data returns, as a pcap packet is its source's until
	// Release. A consumer that keeps the bytes must copy them.
	Data(b []byte)
	// Gap reports that n bytes were skipped (lost to capture or truncation)
	// before the following Data call.
	Gap(n int)
}

// DefaultMaxPending is the default buffered-bytes gap-skip threshold.
const DefaultMaxPending = 256 << 10

// Accounting is a Stream's hostile-input ledger. All byte counters are in
// payload bytes as fed to Segment; see the package comment for the
// conservation invariants tying them together.
type Accounting struct {
	// IngestBytes counts every payload byte fed to Segment while the
	// stream was open.
	IngestBytes int64
	// DeliveredBytes counts bytes handed to the consumer via Data.
	DeliveredBytes int64
	// DuplicateBytes counts overlap bytes dropped whose content matched
	// the kept copy, or that overlapped data no longer retained (behind
	// the delivery cursor, or trimmed while draining).
	DuplicateBytes int64
	// ConflictBytes counts overlap bytes dropped whose content differed
	// from the kept first copy — a retransmission that "changed its mind",
	// the classic reassembly-evasion signature.
	ConflictBytes int64
	// DiscardedBytes counts buffered bytes dropped by Discard without
	// delivery or gap accounting (the unparsed end-of-trace path).
	DiscardedBytes int64
	// GapSkippedBytes counts sequence space declared lost via Gap.
	GapSkippedBytes int64
	// GapEvents counts Gap callbacks.
	GapEvents int64
	// WrapEvents counts 32-bit sequence-number wraps of the delivery
	// cursor.
	WrapEvents int64
	// PeakPendingBytes is the high-water mark of buffered out-of-order
	// bytes observed after a Segment call returned (the gap-skip policy
	// has already run, so it never exceeds MaxPending).
	PeakPendingBytes int64
}

// Stream reassembles one direction of a TCP connection. The zero value is
// not ready to use; call NewStream, or Init for an embedded Stream.
type Stream struct {
	consumer Consumer
	next     uint32 // next expected sequence number
	started  bool
	// pending holds out-of-order segments sorted by sequence number,
	// pairwise non-overlapping, each backed by a pooled buffer.
	pending []segment
	// pendingBytes tracks buffered volume for the gap-skip policy. Because
	// insertion trims overlap, it counts distinct buffered bytes.
	pendingBytes int
	// MaxPending is the buffered-bytes threshold beyond which the stream
	// declares a gap and skips forward. Default 256 KB.
	MaxPending int
	closed     bool
	acct       Accounting
}

type segment struct {
	seq  uint32
	data []byte
}

// NewStream returns a stream delivering to consumer.
func NewStream(consumer Consumer) *Stream {
	s := &Stream{}
	s.Init(consumer)
	return s
}

// Init readies an embedded (or reused) Stream in place, equivalent to
// replacing it with NewStream's result.
func (s *Stream) Init(consumer Consumer) {
	*s = Stream{consumer: consumer, MaxPending: DefaultMaxPending}
}

// seqLess reports a < b in 32-bit sequence space.
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// SetISN establishes the initial sequence number (the SYN's seq + 1).
// Calling it is optional; if not called, the first data segment's sequence
// number seeds the stream.
func (s *Stream) SetISN(seq uint32) {
	if !s.started {
		s.next = seq
		s.started = true
	}
}

// Segment feeds one TCP segment's payload at the given sequence number.
// data is borrowed for the duration of the call: in-order bytes are handed
// to the consumer as-is, out-of-order bytes are copied into pooled
// buffers, so the caller may recycle data as soon as Segment returns.
func (s *Stream) Segment(seq uint32, data []byte) {
	if s.closed || len(data) == 0 {
		return
	}
	s.acct.IngestBytes += int64(len(data))
	if !s.started {
		s.next = seq
		s.started = true
	}
	// Drop or trim data entirely in the past (retransmission). The
	// delivered copy is not retained, so these bytes count as duplicates
	// regardless of content.
	if seqLess(seq, s.next) {
		overlap := s.next - seq
		if uint32(len(data)) <= overlap {
			s.acct.DuplicateBytes += int64(len(data))
			return
		}
		s.acct.DuplicateBytes += int64(overlap)
		data = data[overlap:]
		seq = s.next
	}
	if seq == s.next {
		s.consumer.Data(data)
		s.acct.DeliveredBytes += int64(len(data))
		s.setNext(s.next + uint32(len(data)))
		s.drainPending()
		s.notePeak()
		return
	}
	s.insertPending(seq, data)
	// Skip forward until the buffer is back under budget: MaxPending is a
	// hard bound on buffered bytes, even when the pending data sits in
	// several disjoint clusters.
	for s.pendingBytes > s.MaxPending {
		s.skipToPending()
	}
	s.notePeak()
}

// setNext advances the delivery cursor, recording 32-bit wraps. Every
// advance is less than 2^31, so a wrap shows as the raw value decreasing.
func (s *Stream) setNext(v uint32) {
	if v < s.next {
		s.acct.WrapEvents++
	}
	s.next = v
}

func (s *Stream) notePeak() {
	if int64(s.pendingBytes) > s.acct.PeakPendingBytes {
		s.acct.PeakPendingBytes = int64(s.pendingBytes)
	}
}

// noteOverlap accounts for dropped overlap bytes where both the kept
// first copy and the dropped later copy are in hand: identical bytes are
// duplicates, differing bytes are conflicts. The slices are equal length.
func (s *Stream) noteOverlap(kept, dropped []byte) {
	if bytes.Equal(kept, dropped) {
		s.acct.DuplicateBytes += int64(len(dropped))
		return
	}
	for i := range dropped {
		if dropped[i] == kept[i] {
			s.acct.DuplicateBytes++
		} else {
			s.acct.ConflictBytes++
		}
	}
}

// insertPending buffers out-of-order data, trimming every byte already
// held by a neighboring pending segment (first copy wins). A segment
// spanning past an existing one is split around it, so the pending list
// stays sorted and pairwise non-overlapping.
func (s *Stream) insertPending(seq uint32, data []byte) {
	for len(data) > 0 {
		// Binary-search the insertion point: first pending segment at or
		// beyond seq.
		idx := sort.Search(len(s.pending), func(i int) bool {
			return !seqLess(s.pending[i].seq, seq)
		})
		// Trim the head against the predecessor's copy.
		if idx > 0 {
			prev := &s.pending[idx-1]
			prevEnd := prev.seq + uint32(len(prev.data))
			if seqLess(seq, prevEnd) {
				overlap := prevEnd - seq
				keptOff := len(prev.data) - int(overlap)
				if uint32(len(data)) <= overlap {
					s.noteOverlap(prev.data[keptOff:keptOff+len(data)], data)
					return
				}
				s.noteOverlap(prev.data[keptOff:], data[:overlap])
				data = data[overlap:]
				seq = prevEnd
			}
		}
		chunk := data
		if idx < len(s.pending) {
			nxt := &s.pending[idx]
			if nxt.seq == seq {
				// This span's prefix is already buffered; skip past it and
				// reconsider the remainder.
				covered := uint32(len(nxt.data))
				if uint32(len(chunk)) <= covered {
					s.noteOverlap(nxt.data[:len(chunk)], chunk)
					return
				}
				s.noteOverlap(nxt.data, data[:covered])
				data = data[covered:]
				seq += covered
				continue
			}
			if seqLess(nxt.seq, seq+uint32(len(chunk))) {
				// Truncate at the successor; the loop handles what spills
				// past it on the next iteration.
				chunk = chunk[:nxt.seq-seq]
			}
		}
		s.insertSegmentAt(idx, seq, chunk)
		data = data[len(chunk):]
		seq += uint32(len(chunk))
	}
}

// insertSegmentAt copies chunk into a pooled buffer and splices it into
// the pending list at idx.
func (s *Stream) insertSegmentAt(idx int, seq uint32, chunk []byte) {
	buf := GetBuffer(len(chunk))
	buf = append(buf, chunk...)
	s.pending = append(s.pending, segment{})
	copy(s.pending[idx+1:], s.pending[idx:])
	s.pending[idx] = segment{seq: seq, data: buf}
	s.pendingBytes += len(chunk)
}

func (s *Stream) drainPending() {
	for len(s.pending) > 0 {
		seg := s.pending[0]
		if seqLess(s.next, seg.seq) {
			return
		}
		s.pending[0] = segment{}
		s.pending = s.pending[1:]
		s.pendingBytes -= len(seg.data)
		data := seg.data
		if seqLess(seg.seq, s.next) {
			// The cursor already passed this buffered copy (a fresher
			// in-order arrival won); the trimmed bytes are duplicates.
			overlap := s.next - seg.seq
			if uint32(len(data)) <= overlap {
				s.acct.DuplicateBytes += int64(len(data))
				PutBuffer(seg.data)
				continue
			}
			s.acct.DuplicateBytes += int64(overlap)
			data = data[overlap:]
		}
		s.consumer.Data(data)
		s.acct.DeliveredBytes += int64(len(data))
		s.setNext(s.next + uint32(len(data)))
		PutBuffer(seg.data)
	}
}

// skipToPending declares the bytes between next and the earliest pending
// segment lost, reports the gap, and resumes from the buffer.
func (s *Stream) skipToPending() {
	if len(s.pending) == 0 {
		return
	}
	gap := s.pending[0].seq - s.next
	s.consumer.Gap(int(gap))
	s.acct.GapEvents++
	s.acct.GapSkippedBytes += int64(gap)
	s.setNext(s.pending[0].seq)
	s.drainPending()
}

// Close flushes any buffered segments (reporting gaps between them) and
// marks the stream finished. Used at FIN/RST or end of trace.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	for len(s.pending) > 0 {
		s.skipToPending()
	}
	s.closed = true
}

// Discard drops buffered out-of-order data without delivering it,
// recycling the pooled segment buffers, and marks the stream finished.
// It is the end-of-trace path for streams the analysis never parses.
func (s *Stream) Discard() {
	s.acct.DiscardedBytes += int64(s.pendingBytes)
	for i := range s.pending {
		PutBuffer(s.pending[i].data)
		s.pending[i] = segment{}
	}
	s.pending = s.pending[:0]
	s.pendingBytes = 0
	s.closed = true
}

// PendingBytes reports how much distinct out-of-order data is buffered.
func (s *Stream) PendingBytes() int { return s.pendingBytes }

// Accounting returns a snapshot of the stream's hostile-input ledger.
func (s *Stream) Accounting() Accounting { return s.acct }

// NextSeq reports the sequence number of the next expected in-order byte.
// Meaningful only once Started.
func (s *Stream) NextSeq() uint32 { return s.next }

// Started reports whether the stream's sequence origin is established
// (via SetISN or the first data segment).
func (s *Stream) Started() bool { return s.started }

// BufferConsumer is a Consumer that accumulates the stream into memory,
// recording gap positions. It is the consumer used by most application
// analyzers in this repository. Buf's backing storage comes from the
// package buffer pool; call Release when the contents are dead so the
// next connection can reuse it.
type BufferConsumer struct {
	Buf     []byte
	Gaps    int
	GapByte int
	// Limit bounds growth; excess data is counted but discarded. Zero
	// means unlimited.
	Limit int
	// Overflow counts bytes dropped due to Limit.
	Overflow int
}

// Data implements Consumer, copying the borrowed chunk into Buf.
func (b *BufferConsumer) Data(d []byte) {
	if b.Limit > 0 && len(b.Buf)+len(d) > b.Limit {
		keep := b.Limit - len(b.Buf)
		if keep < 0 {
			keep = 0
		}
		b.Overflow += len(d) - keep
		d = d[:keep]
		if len(d) == 0 {
			return
		}
	}
	b.Buf = AppendPooled(b.Buf, d)
}

// Release recycles Buf's storage into the buffer pool. The consumer is
// reusable afterwards; any slice of Buf taken before Release is invalid.
func (b *BufferConsumer) Release() {
	PutBuffer(b.Buf)
	b.Buf = nil
}

// Gap implements Consumer.
func (b *BufferConsumer) Gap(n int) {
	b.Gaps++
	b.GapByte += n
}
