package dns

import (
	"net/netip"
	"time"

	"enttrace/internal/fleet"
	"enttrace/internal/stats"
)

// Analyzer consumes DNS messages observed on the wire and produces the
// paper's §5.1.3 statistics: per-type request mix, return-code mix,
// latency distribution, and per-client request counts.
//
// It merges and cuts by its fields (fleet.Merge, fleet.Cut). The pairing
// state — pending queries and the per-operation dedup set — stays with
// the analyzer that saw it: a query answered after a cut pairs exactly
// as it would have without the cut, and merging every cut reproduces the
// uncut statistics, provided each (client, server) host pair is fed to
// one analyzer.
type Analyzer struct {
	pending fleet.Map[pendKey, pend] `agg:"pairing"`

	Types   *stats.Counter               // request type mix
	Rcodes  *stats.Counter               // return code mix (by distinct name+hostpair)
	Clients fleet.Map[netip.Addr, int64] // requests per client
	Latency *stats.Dist                  // seconds
	seenOp  fleet.Map[opKey, struct{}]   `agg:"pairing"`
}

type pendKey struct {
	client, server netip.Addr
	id             uint16
}

// opKey identifies one distinct operation: a name asked between one host
// pair. A comparable struct key avoids building a concatenated string per
// response.
type opKey struct {
	qname          string
	client, server netip.Addr
}

type pend struct {
	qname string
	at    time.Time
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		pending: make(map[pendKey]pend),
		Types:   stats.NewCounter(),
		Rcodes:  stats.NewCounter(),
		Clients: make(map[netip.Addr]int64),
		Latency: stats.NewDist(),
		seenOp:  make(map[opKey]struct{}),
	}
}

// Message feeds one decoded DNS message seen at time ts traveling
// src → dst.
func (a *Analyzer) Message(ts time.Time, src, dst netip.Addr, m *Message) {
	if !m.Response {
		a.Types.Inc(TypeName(m.QType))
		a.Clients[src]++
		a.pending[pendKey{client: src, server: dst, id: m.ID}] = pend{qname: m.QName, at: ts}
		return
	}
	key := pendKey{client: dst, server: src, id: m.ID}
	q, ok := a.pending[key]
	if !ok {
		return
	}
	delete(a.pending, key)
	a.Latency.Observe(ts.Sub(q.at).Seconds())
	// The paper counts success/failure by distinct operation (name,
	// host pair), not raw message count, to avoid retry skew.
	op := opKey{qname: q.qname, client: dst, server: src}
	if _, dup := a.seenOp[op]; !dup {
		a.seenOp[op] = struct{}{}
		a.Rcodes.Inc(rcodeName(m.Rcode))
	}
}

func rcodeName(rc uint8) string {
	switch rc {
	case RcodeNoError:
		return "NOERROR"
	case RcodeNXDomain:
		return "NXDOMAIN"
	case RcodeServFail:
		return "SERVFAIL"
	default:
		return "OTHER"
	}
}
