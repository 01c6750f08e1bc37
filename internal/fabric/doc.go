// Package fabric is the distributed check fabric: a coordinator/worker
// layer that spreads a cfccheck portfolio — and, for DPOR jobs, single
// explorations — across processes over a pluggable transport, with
// results bit-identical to the single-process run.
//
// # Topology
//
// One coordinator (Coordinate) owns the job list and all merged state;
// any number of workers (Work) connect, pull work and stream results
// back. Workers are stateless between messages — every job is a pure
// replay of a deterministic program — so a worker that disconnects
// mid-job costs nothing but the wasted cycles: the coordinator re-queues
// its outstanding work and any other worker (or the same one,
// reconnected) re-executes it with an identical outcome.
//
// Work travels at two granularities:
//
//   - Whole portfolio entries (JobSpec: workload name, process count,
//     check.Options). The worker runs check.Explore exactly as the
//     single-process cfccheck would and returns the Result. Every job
//     travels this way when sharding is off (Shards <= 1), and every
//     non-DPOR job travels this way when it is on.
//
//   - DPOR waves (Shards > 1, DPOR jobs). The wave-synchronised DPOR
//     engine splits along its BSP seam: a check.WaveMaster at the
//     coordinator owns the node tree, visited set and the serial commit
//     pass, and each wave's pure expansion tasks fan out to workers
//     (check.WaveProber) in contiguous chunks. Waves are barriers;
//     reports are reassembled into task order before commit, which makes
//     the result bit-identical at any worker count by induction over
//     waves. A wave prober keeps its live session across chunks, and
//     wave replies carry replayed/saved decision deltas
//     (check.ProbeStats); cfccheck surfaces them in FABRIC-SUMMARY as
//     the locality ratio (the tasks' total schedule length over the
//     decisions the sessions actually executed).
//
// The wave jobs run first, one at a time with the whole pool, and the
// whole jobs then fan out over the pool.
//
// # Guarantees
//
// At any worker and shard count, portfolio verdicts, States, Runs,
// Truncated and ReducedNodes equal the single-process run, and a
// violating entry reports the identical witness: whole-entry results are
// the deterministic check.Explore output, wave jobs run the in-process
// engine's own serial commit over pure reports (see check/wave.go), and
// every witness is re-verified at the coordinator by serial replay
// (check.ReplaysToViolation) before it is reported.
//
// Failure handling is by re-execution, never by trust: a disconnected
// worker's jobs are re-queued; a malformed or oversized frame drops only
// the offending connection; a job exceeding the coordinator's job
// timeout is reported DEGRADED instead of wedging the run.
//
// # Wire format (protocol v7)
//
// A frame is a 4-byte big-endian payload length, at most MaxFrame, then
// the payload: one tag byte naming the message type, then every Msg
// field in one fixed order, whatever the type (V, ID, Shard, Job,
// Nodes, WReports, Res, Ms, Replayed, Saved, Err). Nested structs write
// their fields in declaration order the same way. Integers are
// encoding/binary varints — zig-zag for signed values, so a small
// negative schedule entry (a crash decision) stays one byte — bools and
// 8-bit enums one byte, a pointer a presence byte before its value, a
// string or slice a length prefix before its bytes or elements. JobSpec's check.Options travels as a length-prefixed JSON
// object: it appears in a few frames per job, and JSON carries any
// field Options gains without a codec change. codec.go holds the
// encoder and decoder; WriteFrame encodes straight after a reserved
// header and hands the transport the whole frame in one Write.
//
// Why binary: a DPOR wave holds about two tasks on average, so each wave
// is one coordinator↔worker round trip on the critical path, and the
// JSON codec (field names of every pending step, reflection on every
// value) was a large share of that trip. The binary payload is a
// fraction of the JSON size and decodes without reflection.
//
// Hostile input: a worker is any process that can connect, so ReadFrame
// treats every byte as untrusted and fails the frame, never the process:
//
//   - a length of zero or above MaxFrame is rejected before the payload
//     is read, and an accepted length allocates nothing by itself: the
//     payload buffer starts at 64 KiB at most and doubles only as bytes
//     arrive, so a peer that declares 8 MiB and stalls pins one chunk;
//   - every count is checked against the bytes left divided by the
//     smallest encoding of one element before anything is allocated for
//     it, so a frame claiming 2^40 wave reports costs nothing, and decoded
//     memory stays proportional to the frame;
//   - an unknown tag, a malformed or overflowing varint, a bool byte
//     other than 0 or 1, an out-of-range integer, invalid option JSON
//     and trailing bytes after the last field are all errors;
//   - empty slices decode to nil, so a decoded Msg re-encodes to bytes
//     that decode to the same Msg (FuzzReadFrame checks this).
//
// An error drops only the offending connection. The Transport interface
// (Dial/Serve over an opaque address) carries the byte stream: TCP for
// real deployments, an in-process pipe (NewPipeTransport) for
// deterministic tests, leaving room for a durable queue later.
//
// Protocol v7 changes, relative to v6:
//
//   - the frames are unchanged, but the state digests in wave replies
//     (WaveReport.Key) are the checker's additive digest, a sum of one
//     term per cell and per process; a v6 worker's keys would never
//     match a v7 coordinator's visited keys, so the run would
//     double-count states instead of failing;
//   - a version 6 hello decodes under version 7, and the version check
//     at hello drops it.
//
// Protocol v6 changes, relative to v5:
//
//   - a result (WireResult) no longer carries the bit that said the
//     PORAuto fallback kept the reference exploration: the static
//     reduction and its fallback are gone from the checker, so a result
//     is one byte shorter;
//   - a version 5 hello carries no result, so it decodes under version
//     6; the version check at hello drops it.
//
// Protocol v5 changes, relative to v4:
//
//   - frontier probing is gone, so the probe/probed frames
//     (MsgProbe/MsgProbed), their descent-chain reports (Msg.Reports) and
//     the cache-bypass bit of a node (WireNode.Full) are removed; only
//     whole jobs and DPOR waves travel;
//   - a version 4 hello still carries the report count, so it has a
//     trailing byte under version 5 and fails to decode, which drops its
//     connection like a version mismatch.
//
// Protocol v4 changes, relative to v3:
//
//   - the frames are unchanged, but the state digests in probe replies
//     (ProbeReport.Hash) and wave replies (WaveReport.Key) follow the
//     checker's incremental state identity; a v3 worker's digests would
//     never match a v4 coordinator's visited keys, so the run would
//     double-count states instead of failing, and the version check at
//     hello refuses it.
//
// Protocol v3 changes, relative to v2:
//
//   - the payload is the binary encoding above instead of one JSON
//     object; the messages, their fields and the length prefix are
//     unchanged;
//   - a version 2 hello ('{', byte 123, is no tag) fails to decode, so an
//     old worker is dropped at its first frame.
//
// Protocol v2 added, relative to v1:
//
//   - probe/wave node batches are delta-encoded (WireNode): each node
//     ships the length of the schedule prefix it shares with the
//     batch's first node plus its own tail, which collapses the long
//     shared prefixes DFS-sorted batches are built from;
//
//   - probe replies carry one descent chain ([]Report) per dispatched
//     node instead of a single report, plus replayed/saved decision
//     deltas;
//
//   - wave/waved frames (MsgWave, MsgWaved) carry DPOR wave chunks and
//     their task-ordered reports for the BSP split.
//
// Hello frames carry ProtoVersion; a version mismatch is rejected at
// handshake, so a worker never sees frames of another version.
package fabric
