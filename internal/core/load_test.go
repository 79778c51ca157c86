package core

import (
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/flows"
	"enttrace/internal/layers"
)

func TestWindowPeak(t *testing.T) {
	bins := []int64{0, 100, 900, 100, 0, 0}
	if got := windowPeak(bins, 1); got != 900 {
		t.Errorf("peak 1 = %v", got)
	}
	if got := windowPeak(bins, 2); got != 500 {
		t.Errorf("peak 2 = %v, want (900+100)/2", got)
	}
	if got := windowPeak(bins, 6); got*6 != 1100 {
		t.Errorf("peak 6 = %v", got)
	}
}

func TestWindowPeakShortTrace(t *testing.T) {
	// Window larger than the trace still averages over the window size,
	// matching how a 60-second window dilutes a 10-second burst.
	bins := []int64{600}
	if got := windowPeak(bins, 60); got != 10 {
		t.Errorf("peak = %v, want 600/60", got)
	}
}

// Property: peaks are monotonically non-increasing along chains of
// window sizes where each divides the next. (For non-divisible pairs the
// claim is false in discrete time — a 2-bin peak average can undercut a
// 5-bin one when values alternate — so the figure uses 1/10/60 s windows,
// a divisible chain.)
func TestWindowPeakMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		bins := make([]int64, len(raw))
		for i, v := range raw {
			bins[i] = int64(v)
		}
		prev := windowPeak(bins, 1)
		for _, w := range []int{2, 10, 30, 60} {
			cur := windowPeak(bins, w)
			if cur > prev+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTraceLoadBinning: a trace's per-second series is the element-wise
// sum of its shards' bins, as long as the longest of them, whatever
// their order — and no bins at all for a trace no shard saw.
func TestTraceLoadBinning(t *testing.T) {
	shards := [][]int64{{1000, 0, 0, 100}, nil, {500}, {0, 7}}
	want := []int64{1500, 7, 0, 100}
	if tl := mergedTraceLoad("x", shards); tl.name != "x" || !slices.Equal(tl.bins, want) {
		t.Errorf("merged = %q %v, want x %v", tl.name, tl.bins, want)
	}
	slices.Reverse(shards)
	if tl := mergedTraceLoad("x", shards); !slices.Equal(tl.bins, want) {
		t.Errorf("merged in reverse shard order = %v, want %v", tl.bins, want)
	}
	if tl := mergedTraceLoad("empty", [][]int64{nil, {}}); len(tl.bins) != 0 {
		t.Errorf("bins = %v for a trace without packets", tl.bins)
	}
}

func TestFinishTraceRetransSplit(t *testing.T) {
	got := traceSeries(mergedTraceLoad("t", [][]int64{{1000}}), 1)
	local1 := netip.MustParseAddr("128.3.1.1")
	local2 := netip.MustParseAddr("128.3.1.2")
	remote := netip.MustParseAddr("8.8.8.8")
	ent := &flows.Conn{
		Key:   layers.FlowKey{Proto: layers.ProtoTCP, Src: local1, Dst: local2},
		Proto: layers.ProtoTCP, DataPkts: 1000, Retrans: 5, KeepAliveRetrans: 100,
	}
	wan := &flows.Conn{
		Key:   layers.FlowKey{Proto: layers.ProtoTCP, Src: local1, Dst: remote},
		Proto: layers.ProtoTCP, DataPkts: 2000, Retrans: 40,
	}
	udp := &flows.Conn{
		Key:   layers.FlowKey{Proto: layers.ProtoUDP, Src: local1, Dst: local2},
		Proto: layers.ProtoUDP, DataPkts: 500,
	}
	// A removed (scanner) connection counts toward neither rate.
	removed := &flows.Conn{
		Key:   layers.FlowKey{Proto: layers.ProtoTCP, Src: remote, Dst: local1},
		Proto: layers.ProtoTCP, DataPkts: 3000, Retrans: 3000,
	}
	got.retrans([]*flows.Conn{ent, wan, removed, udp}, []bool{true, true, false, true})
	// Keep-alives excluded from the denominator.
	wantEnt := 5.0 / 900.0
	if diff := got.RetransEnt - wantEnt; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ent rate = %v, want %v", got.RetransEnt, wantEnt)
	}
	if got.RetransWan != 0.02 {
		t.Errorf("wan rate = %v", got.RetransWan)
	}
	if got.EntDataPkts != 900 || got.WanDataPkts != 2000 {
		t.Errorf("denominators: %d/%d", got.EntDataPkts, got.WanDataPkts)
	}
}

func TestSaturationDwell(t *testing.T) {
	// One second at 100 Mbps (12.5 MB), then quiet.
	got := traceSeries(mergedTraceLoad("sat", [][]int64{{12_500_000, 0, 0, 0, 0, 100}}), 1)
	if got.SaturatedSeconds != 1 {
		t.Errorf("saturated seconds = %d", got.SaturatedSeconds)
	}
	if got.Peak1s < 99 || got.Peak1s > 101 {
		t.Errorf("peak 1s = %v Mbps", got.Peak1s)
	}
	if got.Peak60s >= got.Peak10s || got.Peak10s >= got.Peak1s {
		t.Errorf("peaks should decay: %v/%v/%v", got.Peak1s, got.Peak10s, got.Peak60s)
	}
}

// enterpriseD3ForFig gives apps_test a config without import cycles.
func enterpriseD3ForFig() enterprise.Config { return enterprise.D3() }

// TestBinMatchesDurationDivision holds binIndex to the Duration division
// it replaced, int(ts.Sub(base)/time.Second) clamped at 0: before the
// base, in the base's second with fewer nanoseconds, a nanosecond and a
// second on either side of each boundary, and over the pcap timestamp
// range (uint32 seconds), at bases across that range.
func TestBinMatchesDurationDivision(t *testing.T) {
	old := func(base, ts time.Time) int { return max(int(ts.Sub(base)/time.Second), 0) }
	check := func(base, ts time.Time) {
		t.Helper()
		if got, want := binIndex(base.Unix(), base.Nanosecond(), ts), old(base, ts); got != want {
			t.Fatalf("base %v, ts %v: bin %d, Duration division %d", base, ts, got, want)
		}
	}
	bases := []time.Time{
		time.Unix(0, 0), time.Unix(100, 0), time.Unix(100, 1), time.Unix(100, 999_999_999),
		time.Unix(1_104_969_600, 500_000_000), time.Unix(math.MaxUint32, 0), time.Unix(math.MaxUint32, 999_999_000),
	}
	offsets := []time.Duration{0, 1, -1, time.Second, time.Second - 1, time.Second + 1, -time.Second,
		-time.Second - 1, -time.Second + 1, 59*time.Second + 999_999_999, time.Hour, -time.Hour, 12*time.Hour + 1}
	rng := rand.New(rand.NewSource(1))
	for _, base := range bases {
		for _, d := range offsets {
			check(base, base.Add(d))
		}
		// The base's second with fewer nanoseconds, and the pcap range's
		// ends.
		check(base, time.Unix(base.Unix(), 0))
		check(base, time.Unix(base.Unix(), int64(max(base.Nanosecond()-1, 0))))
		check(base, time.Unix(0, 0))
		check(base, time.Unix(math.MaxUint32, 999_999_999).UTC())
		for i := 0; i < 10_000; i++ {
			check(base, time.Unix(int64(rng.Uint32()), rng.Int63n(1e9)))
			check(base, base.Add(time.Duration(rng.Int63n(int64(48*time.Hour)))-24*time.Hour))
		}
	}
}
