package fleet

import (
	"testing"
	"time"
)

// noJitter pins the random seam to zero so delays are exact.
func noJitter() float64 { return 0 }

func TestBackoffGrowthAndCap(t *testing.T) {
	b := &Backoff{Base: 100 * time.Millisecond, Max: 1 * time.Second, Rand: noJitter}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1 * time.Second, // capped
		1 * time.Second, // stays capped
	}
	for i, w := range want {
		d, ok := b.Next()
		if !ok {
			t.Fatalf("attempt %d: gave up with MaxAttempts=0", i)
		}
		if d != w {
			t.Errorf("attempt %d: delay %v, want %v", i, d, w)
		}
	}
}

func TestBackoffResetOnSuccess(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Max: time.Second, Rand: noJitter}
	for i := 0; i < 4; i++ {
		b.Next()
	}
	if b.attempt != 4 {
		t.Fatalf("attempt count %d, want 4", b.attempt)
	}
	b.Reset()
	if b.attempt != 0 {
		t.Fatalf("attempt count after reset %d, want 0", b.attempt)
	}
	d, ok := b.Next()
	if !ok || d != 10*time.Millisecond {
		t.Fatalf("post-reset delay %v ok=%v, want base again", d, ok)
	}
}

func TestBackoffGiveUp(t *testing.T) {
	b := &Backoff{Base: time.Millisecond, MaxAttempts: 3, Rand: noJitter}
	for i := 0; i < 3; i++ {
		if _, ok := b.Next(); !ok {
			t.Fatalf("gave up early at attempt %d", i)
		}
	}
	if _, ok := b.Next(); ok {
		t.Fatal("did not give up after MaxAttempts")
	}
	// Reset re-arms the budget — a successful reconnect buys a fresh
	// retry allowance.
	b.Reset()
	if _, ok := b.Next(); !ok {
		t.Fatal("still given up after Reset")
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	cases := []struct {
		name string
		r    float64
		want time.Duration
	}{
		{"rand 0 keeps full delay", 0, 100 * time.Millisecond},
		{"rand 1 removes full jitter fraction", 1, 80 * time.Millisecond},
		{"rand 0.5 removes half", 0.5, 90 * time.Millisecond},
	}
	for _, tc := range cases {
		b := &Backoff{Base: 100 * time.Millisecond, Rand: func() float64 { return tc.r }}
		d, ok := b.Next()
		if !ok || d != tc.want {
			t.Errorf("%s: delay %v ok=%v, want %v", tc.name, d, ok, tc.want)
		}
	}
	// Real randomness stays within (0.8d, d].
	b := &Backoff{Base: 100 * time.Millisecond}
	for i := 0; i < 100; i++ {
		b.Reset()
		d, _ := b.Next()
		if d <= 80*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("jittered delay %v outside (80ms, 100ms]", d)
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	b := &Backoff{Rand: noJitter}
	d, ok := b.Next()
	if !ok || d != DefaultBackoffBase {
		t.Fatalf("zero-value first delay %v, want %v", d, DefaultBackoffBase)
	}
	for i := 0; i < 20; i++ {
		d, _ = b.Next()
	}
	if d != DefaultBackoffMax {
		t.Fatalf("zero-value cap %v, want %v", d, DefaultBackoffMax)
	}
}
