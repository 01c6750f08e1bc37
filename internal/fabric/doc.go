// Package fabric is the distributed check fabric: a coordinator/worker
// layer that spreads a cfccheck portfolio — and, for large
// configurations, single explorations — across processes over a
// pluggable transport, with results bit-identical to the single-process
// run.
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
// Work travels at three granularities:
//
//   - Whole portfolio entries (JobSpec: workload name, process count,
//     check.Options). The worker runs check.Explore exactly as the
//     single-process cfccheck would and returns the Result. This is the
//     path when sharding is off (Shards <= 1).
//
//   - Frontier subtrees, for sharding one DFS exploration across
//     machines. The coordinator runs a check.ShardMaster (the one
//     visited set); workers hold a check.Prober per open shard and turn
//     batches of frontier nodes — serialised decision-stack prefixes
//     plus their sleep masks, executed via Session.Seek — into probe
//     reports. This splits an exploration exactly the way the
//     in-process work-stealer splits it across cores, except the
//     visited-set arbitration stays at the coordinator, which is what
//     keeps the merged counters exact.
//
//   - DPOR waves. The wave-synchronised DPOR engine is not
//     frontier-shardable (sleep sets flow between siblings), so sharded
//     DPOR jobs run as a BSP split instead: a check.WaveMaster at the
//     coordinator owns the node tree, visited set and the serial commit
//     pass, and each wave's pure expansion tasks fan out to workers
//     (check.WaveProber) in contiguous chunks. Waves are barriers;
//     reports are reassembled into task order before commit, which makes
//     the result bit-identical at any worker count by induction over
//     waves.
//
// # Locality
//
// Frontier scheduling is prefix-local so that worker probers — whose sim
// sessions extend in place and rewind any divergence by re-running the
// processes that moved since the common prefix — mostly extend:
//
//   - Affinity: a node's children are routed to the deque of the worker
//     that reported them, and each owner's batch is drained deepest-
//     first in DFS order, so consecutive nodes share long schedule
//     prefixes with the session the owner already holds.
//
//   - Descent chains: after probing an expandable node a prober
//     immediately probes its first branch — a one-decision session
//     extension — and repeats until a leaf, violation, truncation or
//     dedup hit, returning the whole chain in one reply. The master
//     replays the chain link by link against the authoritative visited
//     set, reconstructing each link's node from its own parent copy (a
//     report can never inject an underived node) and stopping at the
//     first arbitration loss; non-first branches are enqueued to the
//     owner's deque.
//
//   - Steal-on-idle: affinity is advisory. A worker with an empty deque
//     steals from the unowned pool, then from other owners, so a
//     stalled or lost worker never wedges the exploration.
//
// A worker's advisory dedup cache of reported state digests
// short-circuits probes of states it already reported; the
// coordinator's visited set stays authoritative, and a dedup reply the
// master cannot arbitrate is re-dispatched with the cache bypassed
// (Node.Full), which always makes progress. Probe replies carry
// replayed/saved decision deltas (check.ProbeStats); cfccheck surfaces
// them in FABRIC-SUMMARY as the locality ratio (the probed schedules'
// total length over the decisions the sessions actually executed, so it
// counts cheap rewinds as well as extensions).
//
// # Guarantees
//
// At any worker and shard count, portfolio verdicts, States, Runs,
// Truncated and ReducedNodes equal the single-process run, and a
// violating entry reports the identical canonical witness: whole-entry
// results are the deterministic check.Explore output, sharded
// explorations close the same visited set as the serial explorer (see
// check/shard.go for the argument), and every violation is re-verified
// at the coordinator — witnesses by serial replay (check.ReplaysToViolation),
// sharded detections by a canonical serial rerun (check.CanonicalResult),
// mirroring the in-process parallel explorer's contract. As in-process,
// the counter guarantee is exact for explorations that complete within
// their budgets; truncated counters are visit-order dependent in every
// mode.
//
// Failure handling is by re-execution, never by trust: a disconnected
// worker's jobs are re-queued; a malformed or oversized frame drops only
// the offending connection; a job exceeding the coordinator's job
// timeout is reported DEGRADED instead of wedging the run.
//
// # Wire format (protocol v4)
//
// A frame is a 4-byte big-endian payload length, at most MaxFrame, then
// the payload: one tag byte naming the message type, then every Msg
// field in one fixed order, whatever the type (V, ID, Shard, Job,
// Nodes, Reports, WReports, Res, Ms, Replayed, Saved, Err). Nested
// structs write their fields in declaration order the same way (Report
// skips the embedded ProbeReport.Violation, which travels as Vio).
// Integers are encoding/binary varints — zig-zag for signed values, so
// a small negative schedule entry (a crash decision) stays one byte —
// bools and 8-bit enums one byte, a pointer a presence byte before its
// value, a string or slice a length prefix before its bytes or
// elements. JobSpec's check.Options travels as a length-prefixed JSON
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
//     it, so a frame claiming 2^40 reports costs nothing, and decoded
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
