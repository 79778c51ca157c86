package sunrpc

import (
	"net/netip"

	"enttrace/internal/fleet"
	"enttrace/internal/layers"
	"enttrace/internal/stats"
)

// Analyzer accumulates the paper's NFS statistics: Table 13's per-procedure
// request/byte mix, Figure 7's requests per host pair, Figure 8's
// request/reply size distributions, and the request success rate.
//
// It merges and cuts by its fields (fleet.Merge, fleet.Cut). The
// call/reply pairing stays with the analyzer that saw the call: a reply
// arriving after a cut still matches it, its outcome banks into the
// epoch in which the pairing completed, and merging every cut reproduces
// the uncut statistics, provided each (client, server) host pair is fed
// to one analyzer.
type Analyzer struct {
	Requests *stats.Counter // per ProcName
	Bytes    *stats.Counter // file payload bytes per ProcName
	// ReqSizes and ReplySizes are the Figure 8 message-size samples
	// (RPC message bytes, headers excluded per the figure caption —
	// we record the full RPC body which is the analogous quantity).
	ReqSizes, ReplySizes *stats.Dist
	// PerPair counts requests per client-server host pair (Figure 7).
	PerPair fleet.Map[layers.HostPair, int64]
	// OK and Failed count replies by outcome.
	OK, Failed int64

	pendingProc fleet.Map[pendKey, uint32] `agg:"pairing"`
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
		PerPair:     make(map[layers.HostPair]int64),
		pendingProc: make(map[pendKey]uint32),
	}
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
		a.PerPair[layers.NewHostPair(src, dst)]++
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
