package netbios

import (
	"net/netip"
	"time"

	"enttrace/internal/fleet"
	"enttrace/internal/layers"
	"enttrace/internal/stats"
)

// Analyzer accumulates the §5.1.3 Netbios/NS statistics: request-type mix,
// name-type mix, per-client spread, and the failure rate counted per
// distinct (name, host pair) operation. It merges and cuts by its fields
// (fleet.Merge, fleet.Cut); the pending-query and dedup state stays with
// the analyzer that saw it, so cross-cut pairings resolve exactly as
// they would without the cut.
type Analyzer struct {
	Ops       *stats.Counter               // request type mix (query/refresh/...)
	NameTypes *stats.Counter               // workstation/server vs domain/browser
	Clients   fleet.Map[netip.Addr, int64] // requests per client
	Rcodes    *stats.Counter               // per-distinct-operation outcome

	pending fleet.Map[pendKey, pendVal] `agg:"pairing"`
	seenOp  fleet.Map[opKey, struct{}]  `agg:"pairing"`
}

// opKey identifies one distinct operation (name asked between one host
// pair) without building a concatenated string per response.
type opKey struct {
	name           string
	client, server netip.Addr
}

type pendKey struct {
	client, server netip.Addr
	id             uint16
}

type pendVal struct {
	name string
	op   uint8
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		Ops:       stats.NewCounter(),
		NameTypes: stats.NewCounter(),
		Clients:   make(map[netip.Addr]int64),
		Rcodes:    stats.NewCounter(),
		pending:   make(map[pendKey]pendVal),
		seenOp:    make(map[opKey]struct{}),
	}
}

// Message feeds one decoded NS message traveling src → dst at ts.
func (a *Analyzer) Message(ts time.Time, src, dst netip.Addr, m *NSMessage) {
	if !m.Response {
		a.Ops.Inc(OpName(m.Op))
		if m.Op == OpQuery {
			a.NameTypes.Inc(SuffixClass(m.Suffix))
		}
		a.Clients[src]++
		a.pending[pendKey{client: src, server: dst, id: m.ID}] = pendVal{name: m.Name, op: m.Op}
		return
	}
	key := pendKey{client: dst, server: src, id: m.ID}
	q, ok := a.pending[key]
	if !ok {
		return
	}
	delete(a.pending, key)
	if q.op != OpQuery {
		return // outcome accounting covers queries only, like the paper
	}
	op := opKey{name: q.name, client: dst, server: src}
	if _, dup := a.seenOp[op]; dup {
		return
	}
	a.seenOp[op] = struct{}{}
	if m.Rcode == RcodeNXDomain {
		a.Rcodes.Inc("NXDOMAIN")
	} else {
		a.Rcodes.Inc("NOERROR")
	}
}

// FailureRate is the fraction of distinct query operations that returned
// NXDOMAIN — the paper reports 36–50%.
func (a *Analyzer) FailureRate() float64 {
	return a.Rcodes.Fraction("NXDOMAIN")
}

// SSNAnalyzer tracks Session Service handshakes per host pair for the
// Netbios/SSN success-rate row of Table 9.
type SSNAnalyzer struct {
	pairs fleet.Map[layers.HostPair, ssnOutcome]
}

// ssnOutcome is a host pair's handshake outcome: the strongest
// session-service frame it saw.
type ssnOutcome uint8

// Join is the outcome of frames seen by o and then p: a positive
// response beats a negative one, which beats a bare request. It is a
// precedence lattice, so the outcome does not depend on how the frames
// were split across analyzers or cuts.
func (o ssnOutcome) Join(p ssnOutcome) ssnOutcome {
	if p.rank() > o.rank() {
		return p
	}
	return o
}

func (o ssnOutcome) rank() int {
	switch uint8(o) {
	case SSNRequest:
		return 1
	case SSNNegativeResponse:
		return 2
	case SSNPositiveResponse:
		return 3
	}
	return 0
}

// NewSSNAnalyzer returns an empty SSN analyzer.
func NewSSNAnalyzer() *SSNAnalyzer {
	return &SSNAnalyzer{pairs: make(map[layers.HostPair]ssnOutcome)}
}

// Frame feeds one session-service frame type observed between client and
// server.
func (s *SSNAnalyzer) Frame(client, server netip.Addr, typ uint8) {
	switch typ {
	case SSNRequest, SSNPositiveResponse, SSNNegativeResponse:
		k := layers.NewHostPair(client, server)
		s.pairs[k] = s.pairs[k].Join(ssnOutcome(typ))
	}
}

// Summary reports (successful, rejected, unanswered, total) host pairs.
func (s *SSNAnalyzer) Summary() (ok, rejected, unanswered, total int) {
	for _, v := range s.pairs {
		total++
		switch uint8(v) {
		case SSNPositiveResponse:
			ok++
		case SSNNegativeResponse:
			rejected++
		default:
			unanswered++
		}
	}
	return
}
