package reassembly

import "sync"

// Buffer recycling for the reassembly layer. Two kinds of allocation used
// to dominate the analysis hot path: the per-segment copies made for
// out-of-order TCP data, and the append-growth of the BufferConsumer
// byte buffers that hold reassembled streams until replay. Both now draw
// from a shared size-classed pool, so in steady state a trace's buffers
// are the previous trace's buffers.
//
// The pool is a mutex-guarded free list per power-of-two size class
// rather than a sync.Pool: Put/Get never allocate (sync.Pool would box a
// slice header per Put), and the contention is low — buffers are fetched
// on stream growth and returned by the replay workers, a handful of
// Put calls per connection.
const (
	minClassBits = 12 // 4 KB: smallest pooled capacity
	maxClassBits = 22 // 4 MB: the largest per-direction stream limit in use
	numClasses   = maxClassBits - minClassBits + 1
	// maxParked bounds the bytes the pool keeps parked, over all size
	// classes, so a burst of large buffers cannot pin memory for the rest
	// of the process's life. What still draws on the pool is out-of-order
	// segments and the streams replay must classify before it can parse
	// (unclassified ephemeral ports, FTP control, Endpoint Mapper): a
	// full-payload trace of the reproduction's largest dataset has at
	// most 4 MiB of those out at once, so twice that is parked at most.
	maxParked = 8 << 20
)

type bufPool struct {
	mu     sync.Mutex
	free   [numClasses][][]byte
	parked int // bytes of capacity in free
}

var pool bufPool

// ParkedBytes reports how many bytes of buffer capacity the pool holds
// for reuse right now.
func ParkedBytes() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.parked
}

// classFor returns the smallest size class whose capacity is ≥ n, or -1
// when n exceeds the largest class.
func classFor(n int) int {
	size := 1 << minClassBits
	for c := 0; c < numClasses; c++ {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

// GetBuffer returns a zero-length buffer with capacity ≥ n, recycled when
// one is available. Pair it with PutBuffer when the data is dead.
func GetBuffer(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, 0, n)
	}
	pool.mu.Lock()
	if free := pool.free[c]; len(free) > 0 {
		b := free[len(free)-1]
		free[len(free)-1] = nil
		pool.free[c] = free[:len(free)-1]
		pool.parked -= cap(b)
		pool.mu.Unlock()
		return b
	}
	pool.mu.Unlock()
	return make([]byte, 0, 1<<(minClassBits+c))
}

// AppendPooled appends d to dst, growing dst through the buffer pool
// (double, copy, recycle the outgrown array) instead of the allocator.
// It is the pooled analogue of append for long-lived accumulation
// buffers; hand the final buffer to PutBuffer when its contents die.
func AppendPooled(dst, d []byte) []byte {
	if need := len(dst) + len(d); need > cap(dst) {
		newCap := 2 * cap(dst)
		if newCap < need {
			newCap = need
		}
		nb := GetBuffer(newCap)
		nb = nb[:len(dst)]
		copy(nb, dst)
		PutBuffer(dst)
		dst = nb
	}
	return append(dst, d...)
}

// PutBuffer returns a buffer to the pool. The caller must not touch b (or
// any slice aliasing it) afterwards. Undersized and oversized buffers are
// dropped for the garbage collector; putting nil is a no-op.
func PutBuffer(b []byte) {
	if cap(b) < 1<<minClassBits {
		return
	}
	// File under the largest class the capacity fully covers, so a Get
	// from that class always satisfies its size guarantee.
	c := 0
	for c+1 < numClasses && cap(b) >= 1<<(minClassBits+c+1) {
		c++
	}
	if cap(b) > 1<<maxClassBits {
		return
	}
	pool.mu.Lock()
	if pool.parked+cap(b) <= maxParked {
		pool.free[c] = append(pool.free[c], b[:0])
		pool.parked += cap(b)
	}
	pool.mu.Unlock()
}
