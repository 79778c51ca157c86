package sunrpc

import (
	"net/netip"

	"enttrace/internal/stats"
)

// Analyzer accumulates the paper's NFS statistics: Table 13's per-procedure
// request/byte mix, Figure 7's requests per host pair, Figure 8's
// request/reply size distributions, and the request success rate.
type Analyzer struct {
	Requests *stats.Counter // per ProcName
	Bytes    *stats.Counter // file payload bytes per ProcName
	// ReqSizes and ReplySizes are the Figure 8 message-size samples
	// (RPC message bytes, headers excluded per the figure caption —
	// we record the full RPC body which is the analogous quantity).
	ReqSizes, ReplySizes *stats.Dist
	// PerPair counts requests per client-server host pair (Figure 7).
	PerPair map[[2]netip.Addr]int64
	// OK and Failed count replies by outcome.
	OK, Failed int64

	pendingProc map[pendKey]uint32
}

type pendKey struct {
	client, server netip.Addr
	xid            uint32
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		Requests:    stats.NewCounter(),
		Bytes:       stats.NewCounter(),
		ReqSizes:    stats.NewDist(),
		ReplySizes:  stats.NewDist(),
		PerPair:     make(map[[2]netip.Addr]int64),
		pendingProc: make(map[pendKey]uint32),
	}
}

func pairOf(a, b netip.Addr) [2]netip.Addr {
	if a.Compare(b) > 0 {
		a, b = b, a
	}
	return [2]netip.Addr{a, b}
}

// Merge folds other's accumulated state into a. Counters, distributions,
// and per-pair sums are commutative; the pendingProc call/reply pairing
// unions correctly when each (client, server) host pair was fed to
// exactly one source.
func (a *Analyzer) Merge(other *Analyzer) {
	a.Requests.Merge(other.Requests)
	a.Bytes.Merge(other.Bytes)
	a.ReqSizes.Merge(other.ReqSizes)
	a.ReplySizes.Merge(other.ReplySizes)
	for pair, n := range other.PerPair {
		a.PerPair[pair] += n
	}
	a.OK += other.OK
	a.Failed += other.Failed
	for k, v := range other.pendingProc {
		a.pendingProc[k] = v
	}
}

// Cut moves the statistics banked since the last cut into the returned
// analyzer and installs fresh empties (nil when nothing was banked). The
// call/reply pairing state stays behind — the epoch contract: a reply
// arriving after the cut still matches the call observed before it, its
// outcome banks into the epoch in which the pairing completed, and
// merging every cut reproduces the uncut analyzer's statistics.
func (a *Analyzer) Cut() *Analyzer {
	if a.Requests.Total() == 0 && a.Bytes.Total() == 0 && a.ReqSizes.N() == 0 &&
		a.ReplySizes.N() == 0 && len(a.PerPair) == 0 && a.OK == 0 && a.Failed == 0 {
		return nil
	}
	s := &Analyzer{
		Requests: a.Requests, Bytes: a.Bytes,
		ReqSizes: a.ReqSizes, ReplySizes: a.ReplySizes,
		PerPair: a.PerPair, OK: a.OK, Failed: a.Failed,
	}
	a.Requests, a.Bytes = stats.NewCounter(), stats.NewCounter()
	a.ReqSizes, a.ReplySizes = stats.NewDist(), stats.NewDist()
	a.PerPair = make(map[[2]netip.Addr]int64)
	a.OK, a.Failed = 0, 0
	return s
}

// Message feeds one raw RPC message (a UDP payload) traveling src → dst.
func (a *Analyzer) Message(src, dst netip.Addr, raw []byte) {
	if r, ok := scanMessage(raw); ok {
		a.record(src, dst, r)
	}
}

// Records folds one direction's parsed TCP records, traveling src → dst.
func (a *Analyzer) Records(src, dst netip.Addr, recs []Record) {
	for _, r := range recs {
		a.record(src, dst, r)
	}
}

func (a *Analyzer) record(src, dst netip.Addr, r Record) {
	if r.Type == MsgCall {
		if r.Prog != ProgNFS {
			return
		}
		a.pendingProc[pendKey{client: src, server: dst, xid: r.XID}] = r.Proc
		name := ProcName(r.Proc)
		a.Requests.Inc(name)
		if r.Proc == ProcWrite {
			a.Bytes.Add(name, int64(r.Count))
		}
		a.ReqSizes.Observe(float64(r.Len))
		a.PerPair[pairOf(src, dst)]++
		return
	}
	// A reply does not repeat its procedure: the matched call names it.
	key := pendKey{client: dst, server: src, xid: r.XID}
	proc, ok := a.pendingProc[key]
	if !ok {
		return
	}
	delete(a.pendingProc, key)
	if r.Status == NFSOK {
		a.OK++
		if proc == ProcRead {
			a.Bytes.Add(ProcName(proc), int64(r.Count))
		}
	} else {
		a.Failed++
	}
	a.ReplySizes.Observe(float64(r.Len))
}

// SuccessRate is successful replies over all matched replies.
func (a *Analyzer) SuccessRate() float64 {
	total := a.OK + a.Failed
	if total == 0 {
		return 0
	}
	return float64(a.OK) / float64(total)
}
