package main

import (
	"errors"
	"strings"
	"testing"
)

// TestSelectDatasets pins -datasets: known names resolve in D0..D4
// order whatever order they were given in, and a name that is not a
// dataset is a usage error naming it — it used to select nothing and
// exit 0 with an empty report.
func TestSelectDatasets(t *testing.T) {
	got, err := selectDatasets("D3, D1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "D1" || got[1].Name != "D3" {
		t.Errorf("selected %v, want D1 then D3", got)
	}
	for _, c := range []struct{ spec, unknown string }{
		{"D9", "D9"}, {"D1,D9", "D9"}, {"d1", "d1"}, {"", ""}, {"D1,", ""},
	} {
		_, err := selectDatasets(c.spec)
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Errorf("-datasets %q: got %v, want a usage error", c.spec, err)
		} else if !strings.Contains(err.Error(), `"`+c.unknown+`"`) {
			t.Errorf("-datasets %q: error %q does not name %q", c.spec, err, c.unknown)
		}
	}
}
