// Package enttrace is a reproduction of "A First Look at Modern
// Enterprise Traffic" (Pang, Allman, Bennett, Lee, Paxson, Tierney —
// IMC 2005): a synthetic enterprise-network traffic generator, a
// Bro-style trace-analysis pipeline, and a benchmark harness that
// regenerates every table and figure of the paper.
//
// The analysis core runs on a concurrent, flow-sharded streaming
// pipeline (internal/pipeline): traces feed in incrementally, packets
// are sharded by canonical 5-tuple across lock-free workers, and the
// report is bit-identical for any worker count. With windowing enabled
// (-window), per-epoch reports cut at fixed boundaries in packet time
// and compose exactly back to the batch report; -serve exposes the
// latest window, any window by index, and liveness over HTTP while a
// long run streams.
//
// Input comes through one seam — anything satisfying pcap.PacketSource:
// replayed capture files, in-memory traces, the adversarial evasion
// workloads (entgen -evasion, TestEvasionGrid), or the streamed
// generator (entanalyze -gen), which synthesizes frames on the fly from
// a load schedule for soak runs at rates and durations no trace file
// covers, in bounded memory, with reports byte-identical to replaying
// the equivalent pcap.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-versus-measured
// results. The root package is documentation only; the library lives
// under internal/ and the executables under cmd/.
package enttrace
