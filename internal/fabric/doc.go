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
// # Wire format (protocol v2)
//
// Frames are 4-byte big-endian length prefixes followed by one JSON
// object (Msg), at most MaxFrame bytes. JSON keeps the frames
// inspectable and the uint64 sleep masks and hashes exact (Go decodes
// integer literals into uint64 without a float round-trip). The
// Transport interface (Dial/Serve over an opaque address) carries the
// byte stream: TCP for real deployments, an in-process pipe
// (NewPipeTransport) for deterministic tests, leaving room for a
// durable queue later.
//
// Protocol v2 adds, relative to v1:
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
// handshake, so v1 workers never see v2 frames.
package fabric
