package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"enttrace/internal/layers"
	"enttrace/internal/pcap"
	"enttrace/internal/pipeline"
	"enttrace/internal/reassembly"
)

// A probe runs one layer alone over the workload's own bytes, through
// that layer's public API, so its cost can be set against the op's.

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// drain reads a source to its end, releasing each packet, and returns
// the packet count.
func drain(src pcap.PacketSource) (int64, error) {
	rel, _ := src.(pcap.Releaser)
	var n int64
	for {
		p, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if rel != nil {
			rel.Release(p)
		}
		n++
	}
}

// pooledSource opens a trace the way the op does.
func pooledSource(tr rawTrace, pool *pcap.Pool) (pcap.PacketSource, error) {
	rd, err := pcap.NewReader(bytes.NewReader(tr.raw))
	if err != nil {
		return nil, err
	}
	return pcap.NewPooledReader(rd, pool), nil
}

// probeRead drains every trace through the pooled reader.
func probeRead(in *analysis) (wall time.Duration, allocs uint64, err error) {
	pool := pcap.NewPool()
	before := mallocs()
	start := time.Now()
	for _, tr := range in.traces {
		src, err := pooledSource(tr, pool)
		if err != nil {
			return 0, 0, err
		}
		if _, err := drain(src); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start), mallocs() - before, nil
}

// probeMapSource drains every trace through the zero-copy source.
func probeMapSource(in *analysis) (time.Duration, error) {
	start := time.Now()
	for _, tr := range in.traces {
		src, err := pcap.NewMapSource(tr.raw)
		if err != nil {
			return 0, err
		}
		if _, err := drain(src); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// records returns every packet of every trace as views into the pcap
// bytes (never released, so the views stay valid), per trace.
func records(in *analysis) ([][]*pcap.Packet, error) {
	out := make([][]*pcap.Packet, len(in.traces))
	for i, tr := range in.traces {
		src, err := pcap.NewMapSource(tr.raw)
		if err != nil {
			return nil, err
		}
		for {
			p, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], p)
		}
	}
	return out, nil
}

// probeDecode decodes every record into one reused packet.
func probeDecode(recs [][]*pcap.Packet) (wall time.Duration, allocs uint64) {
	var p layers.Packet
	before := mallocs()
	start := time.Now()
	for _, tr := range recs {
		for _, pk := range tr {
			_ = layers.Decode(pk.Data, pk.OrigLen, &p) // undecodable frames are part of the traffic
		}
	}
	return time.Since(start), mallocs() - before
}

// flowsProbe is the packet stage alone: read, route, decode, flow table,
// no sink.
type flowsProbe struct {
	wall   time.Duration
	sorted time.Duration // Result.SortedConns over every trace
	conns  int
	skew   float64 // max over mean connections per shard, worst trace
}

func probeFlows(in *analysis, workers int) (flowsProbe, error) {
	var fp flowsProbe
	pool := pcap.NewPool()
	for _, tr := range in.traces {
		src, err := pooledSource(tr, pool)
		if err != nil {
			return fp, err
		}
		start := time.Now()
		res, err := pipeline.Run(src, pipeline.Config{Workers: workers})
		fp.wall += time.Since(start)
		if err != nil {
			return fp, err
		}
		start = time.Now()
		conns := res.SortedConns()
		fp.sorted += time.Since(start)
		fp.conns += len(conns)
		if len(conns) > 0 {
			most := 0
			for _, sh := range res.Shards {
				most = max(most, len(sh.Conns))
			}
			fp.skew = max(fp.skew, float64(most)*float64(len(res.Shards))/float64(len(conns)))
		}
	}
	return fp, nil
}

// segOp is one step of the reassembly probe: a SYN seeding a stream's
// sequence number, or a payload segment.
type segOp struct {
	stream int32
	syn    bool
	seq    uint32
	data   []byte
}

type reassemblyProbe struct {
	wall     time.Duration
	segments int64
	acct     reassembly.Accounting // summed; PeakPendingBytes is the maximum
}

// probeReassembly feeds every TCP payload segment, in capture order per
// (flow, direction), through one reassembly stream per direction. Each
// stream is closed at its last segment so buffers are held no longer
// than a live connection would hold them. Decoding and flow lookup
// happen before the clock starts.
func probeReassembly(recs [][]*pcap.Packet) (reassemblyProbe, error) {
	type dirKey struct {
		trace int
		key   layers.FlowKey
	}
	var rp reassemblyProbe
	var ops []segOp
	index := make(map[dirKey]int32)
	var last []int
	var p layers.Packet
	for ti, tr := range recs {
		for _, pk := range tr {
			if layers.Decode(pk.Data, pk.OrigLen, &p) != nil || !p.Layers.Has(layers.LayerTCP) {
				continue
			}
			syn := p.TCP.Flags&layers.TCPSyn != 0
			if !syn && len(p.Payload) == 0 {
				continue
			}
			key, ok := layers.FlowKeyOf(&p)
			if !ok {
				continue
			}
			dk := dirKey{ti, key}
			id, seen := index[dk]
			if !seen {
				id = int32(len(last))
				index[dk] = id
				last = append(last, 0)
			}
			if syn {
				ops = append(ops, segOp{stream: id, syn: true, seq: p.TCP.Seq + 1})
			}
			if len(p.Payload) > 0 {
				ops = append(ops, segOp{stream: id, seq: p.TCP.Seq, data: p.Payload})
				rp.segments++
			}
			last[id] = len(ops) - 1
		}
	}

	type dir struct {
		st  *reassembly.Stream
		buf reassembly.BufferConsumer
	}
	dirs := make([]dir, len(last))
	start := time.Now()
	for i, op := range ops {
		d := &dirs[op.stream]
		if d.st == nil {
			d.st = reassembly.NewStream(&d.buf)
		}
		if op.syn {
			d.st.SetISN(op.seq)
		} else {
			d.st.Segment(op.seq, op.data)
		}
		if i == last[op.stream] {
			d.st.Close()
			a := d.st.Accounting()
			rp.acct.IngestBytes += a.IngestBytes
			rp.acct.DeliveredBytes += a.DeliveredBytes
			rp.acct.DuplicateBytes += a.DuplicateBytes
			rp.acct.ConflictBytes += a.ConflictBytes
			rp.acct.DiscardedBytes += a.DiscardedBytes
			rp.acct.PeakPendingBytes = max(rp.acct.PeakPendingBytes, a.PeakPendingBytes)
			d.buf.Release()
		}
	}
	rp.wall = time.Since(start)
	a := rp.acct
	if a.IngestBytes != a.DeliveredBytes+a.DuplicateBytes+a.ConflictBytes+a.DiscardedBytes {
		return rp, fmt.Errorf("reassembly ledger does not conserve: %+v", a)
	}
	return rp, nil
}
