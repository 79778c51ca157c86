//go:build !race

// The race detector drops pooled items at random, so an allocation count
// means nothing under it.

package fleet

import "testing"

// TestCheckAllocatesNothing: Check walks a payload without building it,
// the codec fixture's every wire form included.
func TestCheckAllocatesNothing(t *testing.T) {
	b, err := Marshal(mkFixture())
	if err != nil {
		t.Fatal(err)
	}
	if err := Check[wireFixture](b); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { Check[wireFixture](b) }); n != 0 {
		t.Errorf("Check allocates %.0f times a payload", n)
	}
}
