package fleet

import (
	"math/rand"
	"time"
)

// Backoff computes exponential retry delays with bounded jitter. Zero
// value is usable (defaults below); not safe for concurrent use — each
// connection loop owns one.
type Backoff struct {
	Base        time.Duration  // first delay (default 100ms)
	Max         time.Duration  // delay cap (default 30s)
	MaxAttempts int            // consecutive failures before give-up (0 = retry forever)
	Rand        func() float64 // randomness seam in [0,1); default math/rand.Float64 (0 = no jitter)

	attempt int
}

// Defaults applied by Next for zero fields.
const (
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffMax  = 30 * time.Second
)

// Each consecutive failure doubles the delay, and up to a fifth of it is
// randomized away.
const (
	backoffFactor = 2
	backoffJitter = 0.2
)

// Next returns the delay before the next retry and whether to retry at
// all; (0, false) means give up — MaxAttempts consecutive failures
// without a Reset. Jitter subtracts up to a fifth of the delay, so the
// returned delay is always within (0.8×delay, delay] and never exceeds
// the cap.
func (b *Backoff) Next() (time.Duration, bool) {
	if b.MaxAttempts > 0 && b.attempt >= b.MaxAttempts {
		return 0, false
	}
	base, max := b.Base, b.Max
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := float64(base)
	for i := 0; i < b.attempt && d < float64(max); i++ {
		d *= backoffFactor
	}
	if d > float64(max) {
		d = float64(max)
	}
	r := b.Rand
	if r == nil {
		r = rand.Float64
	}
	d -= d * backoffJitter * r()
	b.attempt++
	if d < 1 {
		d = 1
	}
	return time.Duration(d), true
}

// Reset clears the consecutive-failure count — call after a successful
// connection so the next failure starts from Base again.
func (b *Backoff) Reset() { b.attempt = 0 }
