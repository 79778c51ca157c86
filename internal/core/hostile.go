package core

import "enttrace/internal/reassembly"

// hostileCounters aggregates the reassembly layer's hostile-input ledger
// (see reassembly.Accounting and the overlap-conflict policy in that
// package's doc) plus the packet-time RST signals tracked on connStreams.
// Every field is a commutative sum except peakPending, which merges by
// max (agg:"max"); each connection contributes exactly once (at replay,
// after its streams are released), so window sums reproduce the batch
// aggregate and the report is identical for any worker/replay-worker
// grid point.
type hostileCounters struct {
	// streams counts stream directions that ingested at least one byte.
	streams int64
	// Byte ledger, summed over streams (conservation: ingest = delivered
	// + duplicate + conflict + discarded once streams are closed).
	ingest, delivered, duplicate, conflict, discarded int64
	// Gap / wrap events.
	gapSkipped, gapEvents, wrapEvents int64
	// peakPending is the largest buffered out-of-order volume any single
	// stream direction reached.
	peakPending int64 `agg:"max"`
	// RST-shaped signals from packet time.
	bogusRST, postRSTData int64
}

// addStream folds one stream direction's ledger. Streams that never
// ingested a byte contribute nothing (and are not counted), keeping the
// census meaningful on traces full of payload-less connections.
func (h *hostileCounters) addStream(a reassembly.Accounting) {
	if a.IngestBytes == 0 {
		return
	}
	h.streams++
	h.ingest += a.IngestBytes
	h.delivered += a.DeliveredBytes
	h.duplicate += a.DuplicateBytes
	h.conflict += a.ConflictBytes
	h.discarded += a.DiscardedBytes
	h.gapSkipped += a.GapSkippedBytes
	h.gapEvents += a.GapEvents
	h.wrapEvents += a.WrapEvents
	if a.PeakPendingBytes > h.peakPending {
		h.peakPending = a.PeakPendingBytes
	}
}

// fold accounts one connection's hostile-input evidence. Called once per
// connection at replay, after release, so the discard ledger is final.
func (h *hostileCounters) fold(app *connStreams) {
	if app == nil {
		return
	}
	h.bogusRST += app.bogusRST
	h.postRSTData += app.postRSTData
	if app.buffered {
		h.addStream(app.cliStream.Accounting())
		h.addStream(app.srvStream.Accounting())
	}
}
