// Package pipeline is the concurrent, flow-sharded streaming engine under
// the analysis core. It reads packets incrementally from a Source (an
// in-memory slice or a pcap stream), batches them, and shards them by
// canonical 5-tuple hash across N workers. Each worker owns a private
// connection table and whatever per-shard state the caller's Sink
// maintains, so the hot path — decode, flow tracking, TCP reassembly —
// runs without locks. Because a connection's packets all hash to the same
// shard, per-connection state never crosses a worker boundary.
//
// Determinism: every packet carries a global index assigned in read
// order, and every connection records the index of its first packet, so
// the connections have one first-packet order whatever the worker count.
// The analysis layer builds that order from Sink.Publish while the
// workers run — the smallest watermark over shards bounds what every
// shard has seen — and replays all cross-connection accumulation in it,
// which is what makes its reports bit-identical for 1 or N workers.
// Result.SortedConns returns the same order after the run, for callers
// that only want it then.
package pipeline

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"enttrace/internal/flows"
	"enttrace/internal/kmerge"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
)

// Source is the pipeline's ingest seam: anything that yields packets in
// capture order, ending with a bare io.EOF. It is pcap's PacketSource;
// *pcap.PooledReader (file replay, read by the slab), *pcap.MapSource
// and pcap.SliceSource (in-memory images and packet lists), and
// gen.StreamSource (the synthetic load harness) all satisfy it directly,
// and the pipeline cannot tell them apart — a streamed generator run and
// a pcap replay of the same frames produce byte-identical results.
// Sources that additionally implement pcap.Releaser get every packet
// back exactly once, on the goroutine that calls Next, with never more
// than maxBatches batches' worth out at a time — which is what keeps
// pooled sources' memory bounded (a PooledReader's in slabs: a slab goes
// home with the last packet read from it); see DESIGN.md "Packet
// sources".
type Source = pcap.PacketSource

// isEOF recognizes a clean end of stream. Only a bare io.EOF counts:
// pcap.Reader wraps read failures — including an io.EOF hit midway
// through a record — in descriptive errors, and those must propagate.
func isEOF(err error) bool {
	return err == io.EOF
}

// ErrorPolicy selects how Run treats source read errors.
type ErrorPolicy int

// Error policies.
const (
	// FailFast aborts the run on the first source error (the default,
	// and the historical behavior).
	FailFast ErrorPolicy = iota
	// Degrade skips poisoned records and keeps going: recoverable
	// faults (per pcap.SourceFault) lose only the affected record;
	// terminal faults end the trace early. Either way the packets
	// already routed are drained, every error is folded into
	// Result.SourceErrors, and Run returns a nil error — the degraded
	// run is an answer, not a failure.
	Degrade
)

// ParseErrorPolicy reads a policy by its -on-error name: "fail" is
// FailFast, "skip" Degrade.
func ParseErrorPolicy(name string) (ErrorPolicy, error) {
	switch name {
	case "fail":
		return FailFast, nil
	case "skip":
		return Degrade, nil
	}
	return FailFast, fmt.Errorf("unknown -on-error %q (want fail or skip)", name)
}

// SourceError is one source read failure recorded by the Degrade
// policy. The fields mirror pcap.SourceFault; errors without that
// classification fall back to pcap.ClassifyReadError.
type SourceError struct {
	// Kind is the census key ("read-error", "torn-record", ...).
	Kind string
	// Index is the number of packets delivered before the error — the
	// failure's offset in the analyzed packet stream.
	Index int64
	// Lost is the captured bytes the failure dropped (0 when unknown).
	Lost int64
	// Terminal marks the error that ended the trace early.
	Terminal bool
	// Msg is the underlying error text.
	Msg string
}

// Sink receives per-packet callbacks on one shard. A Sink is owned by a
// single worker goroutine and needs no synchronization; cross-shard
// aggregation happens either after Run returns, when the caller walks
// Result.Shards in shard order, or at the shard's batch boundaries, when
// Publish hands the caller what the shard has seen so far.
//
// Per-connection sink state lives on the connection, not in a map keyed
// by it: conn.App is the sink's own slot (the pipeline never touches it),
// and conn.FirstIdx == idx exactly on the connection's first packet, so
// whatever is fixed when a connection is created — which hosts it names,
// how its payload will be kept — is decided once there and costs later
// packets a field load. A connection belongs to one shard for its whole
// life, so the slot needs no synchronization either; it travels with the
// connection into Result.
type Sink interface {
	// Packet is called for every successfully decoded packet routed to
	// this shard, in global read order within the shard. conn is nil for
	// frames with no network-layer addresses (ARP, IPX); p is reused
	// between calls and must not be retained. pk is the raw capture
	// record: when the source recycles packets (pcap.Releaser), pk and
	// any slice into pk.Data — including p.Payload — are valid only
	// until Packet returns, unless the sink calls pk.Retain() to keep
	// the bytes from being recycled — which under a PooledReader keeps
	// the packet's whole slab; a sink that keeps little should copy.
	Packet(idx int64, pk *pcap.Packet, p *layers.Packet, conn *flows.Conn, dir flows.Dir)
	// Undecodable is called for packets layers.Decode rejects.
	Undecodable(idx int64)
	// Publish is called once per batch, never per packet, after the
	// batch's callbacks: every packet routed to this shard whose global
	// index is below through has been passed to Packet or Undecodable.
	// through never decreases. more reports that another batch is already
	// queued for the shard, so work the sink defers to a quiet moment can
	// wait. The worker path calls it after each batch it drains; a
	// single-worker run, whose worker is its reader and never has a batch
	// queued, every BatchSize packets and once at end of input. It runs on
	// the shard's goroutine, like Packet, and is the sink's chance to hand
	// its batch to other goroutines while the source is still being read.
	Publish(through int64, more bool)
}

// Config parameterizes a pipeline run.
type Config struct {
	// Workers is the shard count; <= 0 uses GOMAXPROCS.
	Workers int
	// BatchSize is the number of packets handed to a worker per channel
	// operation; <= 0 uses DefaultBatchSize.
	BatchSize int
	// Flows configures each shard's connection table.
	Flows flows.Config
	// NewSink builds the per-shard sink. It is called serially (shard 0
	// first) before any packet is processed; base is the first packet's
	// timestamp. May be nil for flow-tracking-only runs.
	NewSink func(shard int, base time.Time) Sink
	// OnError selects the source read-error policy; the zero value is
	// FailFast.
	OnError ErrorPolicy
	// Stopped, when non-nil, is polled between packets; once it returns
	// true the run stops reading, drains the packets already routed,
	// and returns cleanly with Result.Stopped set — the graceful-drain
	// hook for long-running sources.
	Stopped func() bool
	// ErrCounter, when non-nil, is incremented as the Degrade policy
	// folds each source error — live mid-run progress for health
	// endpoints, ahead of the end-of-trace Result.
	ErrCounter *atomic.Int64
}

// DefaultBatchSize amortizes channel overhead without hurting locality.
const DefaultBatchSize = 256

// ConnRecord pairs a finished connection with the global index of its
// first packet — the pipeline's canonical ordering key.
type ConnRecord struct {
	Conn     *flows.Conn
	FirstIdx int64
	Shard    int
}

// ShardResult is one worker's output.
type ShardResult struct {
	Shard int
	Sink  Sink
	Conns []ConnRecord
}

// Result is a full pipeline run over one trace.
type Result struct {
	Shards []ShardResult
	// Packets is the total read from the source, decodable or not.
	Packets int64
	// Base is the first packet's timestamp (zero for an empty source).
	// Per-shard sinks receive it through Config.NewSink before any
	// packet is processed.
	Base time.Time
	// SourceErrors is the Degrade policy's error census, in occurrence
	// order (nil under FailFast, or when the source never failed).
	SourceErrors []SourceError
	// Stopped reports that Config.Stopped ended the run early.
	Stopped bool
	// CapEvicted counts connections the shard tables' MaxConns backstop
	// evicted, summed over shards.
	CapEvicted int64
}

// SortedConns merges every shard's connections into first-packet order.
// The order is identical for any worker count. Each shard's list is
// already sorted (a shard's table creates its connections in the order
// their first packets arrive), so this is a k-way merge of sorted runs,
// one per worker (kmerge has what that costs). FirstIdx values are
// unique global packet indices, so the merge order is total.
func (r *Result) SortedConns() []ConnRecord {
	runs := make([][]ConnRecord, 0, len(r.Shards))
	for _, s := range r.Shards {
		runs = append(runs, s.Conns)
	}
	return kmerge.MergeBy(runs, func(c ConnRecord) int64 { return c.FirstIdx })
}

// item is one routed packet.
type item struct {
	idx int64
	p   *pcap.Packet
}

// batch is what the router hands a worker: the shard's next packets, in
// routing order, and the read position they bring it to — every packet
// routed to the shard below through is in this batch or an earlier one.
type batch struct {
	items   []item
	through int64
}

// worker owns one shard: a connection table and the caller's sink.
type worker struct {
	shard int
	tbl   *flows.Table
	sink  Sink
	pkt   layers.Packet
	in    chan batch
	// batches takes drained batches back, packets and all, for the router
	// to release and refill.
	batches *batchPool
}

func newWorker(shard int, cfg Config, base time.Time) *worker {
	w := &worker{shard: shard, tbl: flows.NewTable(cfg.Flows)}
	if cfg.NewSink != nil {
		w.sink = cfg.NewSink(shard, base)
	}
	return w
}

func (w *worker) process(it item) {
	pk := it.p
	if err := layers.Decode(pk.Data, pk.OrigLen, &w.pkt); err != nil {
		if w.sink != nil {
			w.sink.Undecodable(it.idx)
		}
		return
	}
	conn, dir, isNew := w.tbl.Packet(pk.Timestamp, &w.pkt, pk.OrigLen)
	if isNew {
		conn.FirstIdx = it.idx
	}
	if w.sink != nil {
		w.sink.Packet(it.idx, pk, &w.pkt, conn, dir)
	}
}

// drain processes the shard's batches and publishes after each one.
func (w *worker) drain() {
	for b := range w.in {
		for _, it := range b.items {
			w.process(it)
		}
		w.batches.put(b.items)
		if w.sink != nil {
			w.sink.Publish(b.through, len(w.in) > 0)
		}
	}
}

// batchPool is the free list of routed-batch slices, and the road a
// pooled source's packets go home by. A worker puts a drained batch back
// with its packets still in it; the router, taking a batch to refill,
// first releases them. Release and the source's Next therefore run on one
// goroutine: what a release writes — a slab's reference count under
// PooledReader, a sync.Pool's per-P cache under the sources that pool
// single packets — was last written by the same core, where releasing
// from the workers made every Get a steal (EXPERIMENTS.md "Per
// connection, not per packet" has the profile), and a worker touches the
// source once per batch, not once per packet.
type batchPool struct {
	free      chan []item
	batchSize int
	// release recycles one packet; nil when the source does not pool.
	release func(*pcap.Packet)
}

// maxBatches bounds the batches of one run, and with them the packets a
// pooled source has issued and not yet got back: maxBatches × BatchSize.
// Per worker: the channel buffer, one being drained, one being filled.
//
// It is also the free list's capacity, which is why put can never block
// or drop. get allocates only when the list is empty, and every batch off
// the list is being filled (one per worker), queued (workerQueueDepth per
// worker) or being drained (one per worker) — so an allocation happens
// with fewer than maxBatches in existence, and the list, holding a subset
// of them, cannot be full when a batch comes back.
func maxBatches(workers int) int { return workers * (workerQueueDepth + 2) }

func newBatchPool(workers, batchSize int, release func(*pcap.Packet)) *batchPool {
	return &batchPool{
		free:      make(chan []item, maxBatches(workers)),
		batchSize: batchSize,
		release:   release,
	}
}

// get returns an empty batch for the router to fill, releasing the
// packets of the returned batch it reuses.
func (p *batchPool) get() []item {
	select {
	case b := <-p.free:
		p.releaseAll(b)
		return b[:0]
	default:
		return make([]item, 0, p.batchSize)
	}
}

// put hands a drained batch, with its packets, back to the router.
func (p *batchPool) put(b []item) { p.free <- b }

// drain releases the packets of every batch on the list. The router calls
// it once the workers have exited, when every batch that carried packets
// is there.
func (p *batchPool) drain() {
	for {
		select {
		case b := <-p.free:
			p.releaseAll(b)
		default:
			return
		}
	}
}

func (p *batchPool) releaseAll(b []item) {
	if p.release == nil {
		return
	}
	for _, it := range b {
		p.release(it.p)
	}
}

// workerQueueDepth is each worker's input channel buffer, in batches.
const workerQueueDepth = 4

func (w *worker) finish() ShardResult {
	w.tbl.Flush()
	// Conns is in creation order and FirstIdx is assigned at creation from
	// an index that only grows within a shard, so the records come out in
	// the FirstIdx order SortedConns merges by.
	conns := w.tbl.Conns()
	recs := make([]ConnRecord, len(conns))
	for i, c := range conns {
		recs[i] = ConnRecord{Conn: c, FirstIdx: c.FirstIdx, Shard: w.shard}
	}
	return ShardResult{Shard: w.shard, Sink: w.sink, Conns: recs}
}

// sourceReader wraps a source's Next with the error policy and the
// stop check. Exactly one goroutine (the router) calls next; the policy
// state needs no synchronization.
type sourceReader struct {
	src     Source
	degrade bool
	stopped func() bool
	errs    *atomic.Int64
	res     *Result
	// err is the terminal read error under FailFast — the one Run
	// returns after draining.
	err error
}

// next returns the next packet, or false when the stream is over: clean
// EOF, a stop request, a terminal fault (Degrade), or any error at all
// (FailFast, recorded in r.err). idx is the number of packets delivered
// so far — the offset the error census records. Under Degrade,
// recoverable faults are folded and skipped here, invisibly to the
// caller.
func (r *sourceReader) next(idx int64) (*pcap.Packet, bool) {
	for {
		if r.stopped != nil && r.stopped() {
			r.res.Stopped = true
			return nil, false
		}
		p, err := r.src.Next()
		if err == nil {
			return p, true
		}
		if isEOF(err) {
			return nil, false
		}
		if !r.degrade {
			r.err = err
			return nil, false
		}
		kind, recoverable := pcap.ClassifyReadError(err)
		r.res.SourceErrors = append(r.res.SourceErrors, SourceError{
			Kind:     kind,
			Index:    idx,
			Lost:     pcap.FaultLostBytes(err),
			Terminal: !recoverable,
			Msg:      err.Error(),
		})
		if r.errs != nil {
			r.errs.Add(1)
		}
		if !recoverable {
			return nil, false
		}
	}
}

// Run streams every packet from src through the sharded pipeline and
// returns the per-shard results. On a source read error the packets
// already routed are still drained; under the default FailFast policy
// the error is returned, under Degrade it is folded into
// Result.SourceErrors and the run keeps going when the fault was
// recoverable.
func Run(src Source, cfg Config) (*Result, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}

	res := &Result{}
	rdr := &sourceReader{
		src:     src,
		degrade: cfg.OnError == Degrade,
		stopped: cfg.Stopped,
		errs:    cfg.ErrCounter,
		res:     res,
	}
	first, ok := rdr.next(0)
	if !ok {
		if rdr.err != nil {
			return nil, rdr.err
		}
		return res, nil
	}
	base := first.Timestamp
	res.Base = base

	// Pooled sources get their packets back once the sink has seen them;
	// sinks keep a packet's bytes alive across that boundary by calling
	// Retain.
	var release func(*pcap.Packet)
	if rel, ok := src.(pcap.Releaser); ok {
		release = rel.Release
	}

	if workers == 1 {
		return runSerial(rdr, first, cfg, batchSize, res, release)
	}

	batches := newBatchPool(workers, batchSize, release)
	ws := make([]*worker, workers)
	for i := 0; i < workers; i++ {
		ws[i] = newWorker(i, cfg, base)
		ws[i].in = make(chan batch, workerQueueDepth)
		ws[i].batches = batches
	}
	done := make(chan int, workers)
	for _, w := range ws {
		w := w
		go func() {
			w.drain()
			done <- w.shard
		}()
	}

	pending := make([][]item, workers)
	for s := range pending {
		pending[s] = batches.get()
	}
	// sent is each shard's read position as its last batch carried it.
	sent := make([]int64, workers)
	sendTo := func(s int, through int64) {
		ws[s].in <- batch{pending[s], through}
		pending[s] = batches.get()
		sent[s] = through
	}
	// A shard the read has left behind — its flows quiet while another
	// shard's are busy — still has its read position carried on, in
	// whatever it holds or an empty batch, so that a caller ordering
	// shards by their watermarks is not held up by it. Only a shard with
	// nothing queued is: one with batches waiting is behind, not left
	// behind, and a catch-up queued behind another would be stale.
	leftBehind := int64(2 * workers * batchSize)
	catchUp := func(idx int64) {
		for s := range ws {
			if idx-sent[s] >= leftBehind && len(ws[s].in) == 0 {
				sendTo(s, idx)
			}
		}
	}

	pk := first
	var idx int64
	for {
		s := shardOf(pk.Data, workers)
		pending[s] = append(pending[s], item{idx: idx, p: pk})
		idx++
		if len(pending[s]) >= batchSize {
			sendTo(s, idx)
			catchUp(idx)
		}
		var ok bool
		pk, ok = rdr.next(idx)
		if !ok {
			break
		}
	}
	res.Packets = idx
	for s := range ws {
		if len(pending[s]) > 0 {
			sendTo(s, idx)
		}
		close(ws[s].in)
	}
	for range ws {
		<-done
	}
	batches.drain()
	for _, w := range ws {
		res.Shards = append(res.Shards, w.finish())
		res.CapEvicted += w.tbl.CapEvicted()
	}
	return res, rdr.err
}

// runSerial is the single-worker path: no goroutines, no channels. It
// must produce byte-identical results to the worker path. It stays
// because it is the instrument's baseline, not because it is faster:
// benchmark/'s traced op runs at Workers: 1 so that its stage spans do
// not overlap and sum to the op, and pipeline.w2_over_w1 and
// core.w_default_over_w1 are ratios over this path (0.81–0.92 and
// 0.67–1.01 over six traced batch-headers runs on two vCPUs, EXPERIMENTS
// "No generic hash per packet"). It publishes every batchSize packets,
// as the worker path does per batch.
func runSerial(rdr *sourceReader, first *pcap.Packet, cfg Config, batchSize int, res *Result, release func(*pcap.Packet)) (*Result, error) {
	w := newWorker(0, cfg, first.Timestamp)
	pk := first
	var idx int64
	for {
		w.process(item{idx: idx, p: pk})
		if release != nil {
			release(pk)
		}
		idx++
		if w.sink != nil && idx%int64(batchSize) == 0 {
			w.sink.Publish(idx, false)
		}
		var ok bool
		pk, ok = rdr.next(idx)
		if !ok {
			break
		}
	}
	if w.sink != nil && idx%int64(batchSize) != 0 {
		w.sink.Publish(idx, false)
	}
	res.Packets = idx
	res.Shards = []ShardResult{w.finish()}
	res.CapEvicted = w.tbl.CapEvicted()
	return res, rdr.err
}
