//go:build unix

package fleet

import (
	"bufio"
	"net"
	"syscall"
	"testing"
	"time"
)

func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestShipperDrainDoesNotSpin pins that a shipper waiting for its last
// acks sleeps. Close closes the input channel, and a closed channel is
// always ready: a run loop that kept selecting on it burned a core from
// Close until the final ack (every -ship site's end-of-run re-export,
// and the aggregator it was waiting for starved beside it). The peer
// here reads everything and acknowledges nothing until 300 ms after
// Close was called; the process must spend next to no CPU meanwhile.
// Not parallel: it measures the whole process.
func TestShipperDrainDoesNotSpin(t *testing.T) {
	const deltas = 5
	const frames = deltas + 2 // HELLO, the deltas, FIN
	near, far := net.Pipe()
	allRead := make(chan struct{})
	release := make(chan struct{})
	peerErr := make(chan error, 1)
	go func() {
		defer far.Close()
		br := bufio.NewReader(far)
		var seqs []uint64
		for len(seqs) < frames {
			f, err := ReadFrame(br)
			if err != nil {
				peerErr <- err
				return
			}
			seqs = append(seqs, f.Seq)
		}
		close(allRead)
		<-release
		for _, seq := range seqs {
			b, err := EncodeFrame(&Frame{Type: FrameAck, Seq: seq})
			if err == nil {
				_, err = far.Write(b)
			}
			if err != nil {
				peerErr <- err
				return
			}
		}
		peerErr <- nil
	}()

	sh, err := NewShipper(ShipperConfig{
		Site:    "a",
		Dial:    func() (net.Conn, error) { return near, nil },
		Backoff: fastBackoff(1),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < deltas; w++ {
		sh.ShipDelta(w, int64(w), []byte{byte(w)})
	}
	sh.Fin(deltas-1, deltas)
	select {
	case <-allRead:
	case err := <-peerErr:
		t.Fatalf("peer: %v", err)
	}

	closed := make(chan error, 1)
	before := processCPU(t)
	go func() { closed <- sh.Close() }()
	const stall = 300 * time.Millisecond
	time.Sleep(stall)
	spent := processCPU(t) - before
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
	if st := sh.Stats(); st.Acked != frames-1 {
		t.Fatalf("acked %d tracked frames, want %d", st.Acked, frames-1)
	}
	if spent > 50*time.Millisecond {
		t.Fatalf("process used %v of CPU while the shipper waited %v for its acks: the drain loop is spinning", spent, stall)
	}
}
