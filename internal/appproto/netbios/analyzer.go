package netbios

import (
	"net/netip"
	"time"

	"enttrace/internal/stats"
)

// Analyzer accumulates the §5.1.3 Netbios/NS statistics: request-type mix,
// name-type mix, per-client spread, and the failure rate counted per
// distinct (name, host pair) operation.
type Analyzer struct {
	Ops       *stats.Counter // request type mix (query/refresh/...)
	NameTypes *stats.Counter // workstation/server vs domain/browser
	Clients   *stats.Counter // requests per client
	Rcodes    *stats.Counter // per-distinct-operation outcome

	pending   map[pendKey]pendVal
	seenOp    map[opKey]struct{}
	addrNames map[netip.Addr]string
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
		Clients:   stats.NewCounter(),
		Rcodes:    stats.NewCounter(),
		pending:   make(map[pendKey]pendVal),
		seenOp:    make(map[opKey]struct{}),
		addrNames: make(map[netip.Addr]string),
	}
}

// addrString formats addr, caching the result per analyzer.
func (a *Analyzer) addrString(addr netip.Addr) string {
	if s, ok := a.addrNames[addr]; ok {
		return s
	}
	s := addr.String()
	a.addrNames[addr] = s
	return s
}

// Message feeds one decoded NS message traveling src → dst at ts.
func (a *Analyzer) Message(ts time.Time, src, dst netip.Addr, m *NSMessage) {
	if !m.Response {
		a.Ops.Inc(OpName(m.Op))
		if m.Op == OpQuery {
			a.NameTypes.Inc(SuffixClass(m.Suffix))
		}
		a.Clients.Inc(a.addrString(src))
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

// Merge folds other's accumulated state into a. Counters are
// commutative; the pending/seenOp pairing state is correct to union as
// long as each (client, server) host pair was fed to exactly one source.
func (a *Analyzer) Merge(other *Analyzer) {
	a.Ops.Merge(other.Ops)
	a.NameTypes.Merge(other.NameTypes)
	a.Clients.Merge(other.Clients)
	a.Rcodes.Merge(other.Rcodes)
	for k, v := range other.pending {
		a.pending[k] = v
	}
	for k := range other.seenOp {
		a.seenOp[k] = struct{}{}
	}
}

// Cut moves the counters banked since the last cut into the returned
// analyzer and installs fresh empties (nil when nothing was banked).
// The pending-query and per-operation dedup state stays behind — the
// epoch contract — so cross-cut pairings resolve exactly as they would
// without the cut.
func (a *Analyzer) Cut() *Analyzer {
	if a.Ops.Total() == 0 && a.NameTypes.Total() == 0 && a.Clients.Total() == 0 && a.Rcodes.Total() == 0 {
		return nil
	}
	s := &Analyzer{Ops: a.Ops, NameTypes: a.NameTypes, Clients: a.Clients, Rcodes: a.Rcodes}
	a.Ops, a.NameTypes = stats.NewCounter(), stats.NewCounter()
	a.Clients, a.Rcodes = stats.NewCounter(), stats.NewCounter()
	return s
}

// FailureRate is the fraction of distinct query operations that returned
// NXDOMAIN — the paper reports 36–50%.
func (a *Analyzer) FailureRate() float64 {
	return a.Rcodes.Fraction("NXDOMAIN")
}

// SSNAnalyzer tracks Session Service handshakes per host pair for the
// Netbios/SSN success-rate row of Table 9.
type SSNAnalyzer struct {
	// outcome per host pair: positive beats negative beats none.
	pairs map[pairKey]uint8
}

type pairKey struct{ a, b netip.Addr }

// NewSSNAnalyzer returns an empty SSN analyzer.
func NewSSNAnalyzer() *SSNAnalyzer {
	return &SSNAnalyzer{pairs: make(map[pairKey]uint8)}
}

func canonPair(x, y netip.Addr) pairKey {
	if x.Compare(y) > 0 {
		x, y = y, x
	}
	return pairKey{x, y}
}

// Frame feeds one session-service frame type observed between client and
// server.
func (s *SSNAnalyzer) Frame(client, server netip.Addr, typ uint8) {
	k := canonPair(client, server)
	cur := s.pairs[k]
	switch typ {
	case SSNRequest:
		if cur == 0 {
			s.pairs[k] = SSNRequest
		}
	case SSNPositiveResponse:
		s.pairs[k] = SSNPositiveResponse
	case SSNNegativeResponse:
		if cur != SSNPositiveResponse {
			s.pairs[k] = SSNNegativeResponse
		}
	}
}

// Merge folds other's per-pair outcomes into s under the same precedence
// Frame applies (positive beats negative beats request), which makes the
// merged outcome independent of how frames were split across sources.
func (s *SSNAnalyzer) Merge(other *SSNAnalyzer) {
	for k, v := range other.pairs {
		cur := s.pairs[k]
		switch {
		case v == SSNPositiveResponse || cur == SSNPositiveResponse:
			s.pairs[k] = SSNPositiveResponse
		case v == SSNNegativeResponse || cur == SSNNegativeResponse:
			s.pairs[k] = SSNNegativeResponse
		case cur == 0:
			s.pairs[k] = v
		}
	}
}

// Cut moves the per-pair outcomes observed since the last cut into the
// returned analyzer (nil when there were none). The outcome fold is a
// precedence lattice (positive beats negative beats request), so
// merging the cuts of consecutive epochs yields exactly the outcome the
// uncut analyzer would have reached.
func (s *SSNAnalyzer) Cut() *SSNAnalyzer {
	if len(s.pairs) == 0 {
		return nil
	}
	c := &SSNAnalyzer{pairs: s.pairs}
	s.pairs = make(map[pairKey]uint8)
	return c
}

// Summary reports (successful, rejected, unanswered, total) host pairs.
func (s *SSNAnalyzer) Summary() (ok, rejected, unanswered, total int) {
	for _, v := range s.pairs {
		total++
		switch v {
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
