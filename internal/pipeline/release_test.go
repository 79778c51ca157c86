package pipeline

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enttrace/internal/faults"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
	"enttrace/internal/pcap"
)

// ledgerSource is a pooled source that books every packet it issues and
// every packet it gets back. Packets are recycled, so the book is kept per
// issue, not per pointer: a packet is outstanding from the Next that
// returned it to the one Release that ends that issue.
type ledgerSource struct {
	inner Source
	rel   pcap.Releaser

	mu               sync.Mutex
	out              map[*pcap.Packet]bool
	issued, released int64
	peak             int
	bad              []string
}

func newLedgerSource(inner Source) *ledgerSource {
	return &ledgerSource{inner: inner, rel: inner.(pcap.Releaser), out: make(map[*pcap.Packet]bool)}
}

func (l *ledgerSource) Next() (*pcap.Packet, error) {
	p, err := l.inner.Next()
	if err != nil {
		return p, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out[p] {
		l.bad = append(l.bad, fmt.Sprintf("packet %d issued while still outstanding", l.issued))
	}
	l.out[p] = true
	l.issued++
	l.peak = max(l.peak, len(l.out))
	return p, nil
}

func (l *ledgerSource) Release(p *pcap.Packet) {
	l.mu.Lock()
	if !l.out[p] {
		l.bad = append(l.bad, fmt.Sprintf("release %d of a packet that is not outstanding", l.released))
	}
	delete(l.out, p)
	l.released++
	l.mu.Unlock()
	l.rel.Release(p)
}

func (l *ledgerSource) outstanding(p *pcap.Packet) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.out[p]
}

// liveSink checks the other half of the contract: a packet handed to the
// sink has not gone back to its source yet.
type liveSink struct {
	src  *ledgerSource
	dead *atomic.Int64
}

func (s liveSink) Packet(idx int64, pk *pcap.Packet, p *layers.Packet, conn *flows.Conn, dir flows.Dir) {
	if !s.src.outstanding(pk) {
		s.dead.Add(1)
	}
}
func (s liveSink) Undecodable(int64) {}

// TestEveryPacketReleasedExactlyOnce pins the pooling contract of the
// batch return path: whatever ends the run, every packet Next returned
// goes back through Release exactly once, none goes back before its sink
// callback has run, and no more than maxBatches batches' worth are ever
// out at once.
func TestEveryPacketReleasedExactlyOnce(t *testing.T) {
	raw := pcapBytes(t, testTrace(t))

	type scenario struct {
		name    string
		sched   faults.Schedule
		policy  ErrorPolicy
		stopAt  int64 // > 0: raise Stopped as this packet is delivered
		wantErr bool
		// packets is the expected Result.Packets (0: the whole trace).
		packets int64
	}
	scenarios := []scenario{
		{name: "clean EOF"},
		{name: "FailFast mid-trace error", wantErr: true, packets: 700,
			sched: faults.Schedule{Events: []faults.Event{{Kind: faults.ReadError, Index: 700}}}},
		{name: "Degrade recoverable", policy: Degrade,
			sched: faults.Schedule{Events: []faults.Event{
				{Kind: faults.ReadError, Index: 50},
				{Kind: faults.ShortRead, Index: 120, Cut: 20},
				{Kind: faults.ReadError, Index: 900},
			}}},
		{name: "Degrade terminal", policy: Degrade, packets: 650,
			sched: faults.Schedule{Events: []faults.Event{{Kind: faults.Torn, Index: 650}}}},
		{name: "Stopped", stopAt: 800, packets: 800},
	}

	for _, sc := range scenarios {
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, 7, 256} {
				t.Run(fmt.Sprintf("%s/workers=%d/batch=%d", sc.name, workers, batch), func(t *testing.T) {
					rd, err := pcap.NewReader(bytes.NewReader(raw))
					if err != nil {
						t.Fatal(err)
					}
					src := newLedgerSource(faults.Wrap(pcap.NewPooledReader(rd, nil), sc.sched))
					var stop atomic.Bool
					var in Source = src
					if sc.stopAt > 0 {
						in = &releasingCounter{countingSource{inner: src, at: sc.stopAt, fire: func() { stop.Store(true) }}, src}
					}
					var dead atomic.Int64
					res, err := Run(in, Config{
						Workers:   workers,
						BatchSize: batch,
						OnError:   sc.policy,
						Stopped:   stop.Load,
						NewSink: func(int, time.Time) Sink {
							return liveSink{src: src, dead: &dead}
						},
					})
					if (err != nil) != sc.wantErr {
						t.Fatalf("Run error = %v, want error: %v", err, sc.wantErr)
					}
					if sc.packets > 0 && res.Packets != sc.packets {
						t.Errorf("analyzed %d packets, want %d", res.Packets, sc.packets)
					}
					if res.Packets < 600 {
						t.Fatalf("only %d packets ran: too few to fill and return batches", res.Packets)
					}
					if src.issued != res.Packets {
						t.Errorf("source issued %d packets, run counted %d", src.issued, res.Packets)
					}
					if src.released != src.issued || len(src.out) != 0 {
						t.Errorf("issued %d, released %d, %d still outstanding", src.issued, src.released, len(src.out))
					}
					for _, msg := range src.bad {
						t.Error(msg)
					}
					if n := dead.Load(); n > 0 {
						t.Errorf("%d packets reached the sink after their release", n)
					}
					bound := 1
					if workers > 1 {
						bound = maxBatches(workers) * batch
					}
					if src.peak > bound {
						t.Errorf("%d packets outstanding at once, bound is %d", src.peak, bound)
					}
				})
			}
		}
	}
}

// releasingCounter is countingSource over a pooled source: it forwards
// Release, which the embedded type (written for slice sources) lacks.
type releasingCounter struct {
	countingSource
	rel pcap.Releaser
}

func (r *releasingCounter) Release(p *pcap.Packet) { r.rel.Release(p) }
