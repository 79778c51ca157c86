package filler

import (
	"bytes"
	"testing"
)

// TestFillMatchesPerByteReference holds the doubling copy equal to the
// loop it replaced, b[i] = pat[i%len(pat)], at every length around the
// pattern's multiples and its powers of two.
func TestFillMatchesPerByteReference(t *testing.T) {
	for _, pat := range []string{"x", "abcdefghijklmnopqrstuvw", "abcdefghijklmnopqrstuvwxyz0123456789"} {
		for n := 0; n <= 40*len(pat)+3; n++ {
			want := make([]byte, n)
			for i := range want {
				want[i] = pat[i%len(pat)]
			}
			if got := Bytes(n, pat); !bytes.Equal(got, want) {
				t.Fatalf("Bytes(%d, %q) = %q, want %q", n, pat, got, want)
			}
		}
	}
}
