// Package check is an exhaustive explorer for small configurations: it
// enumerates every interleaving of a deterministic program (optionally
// with crash injection) up to a depth bound, prunes equivalent states, and
// verifies safety properties on every reachable state.
//
// # State model
//
// Processes in the simulator are deterministic functions of the values
// their shared-memory operations return, so a global state is fully
// described by the shared cell values plus each process's observation
// history; the explorer replays schedules (the simulator is cheap) and
// digests that description to prune: two schedule prefixes with equal
// digests lead to identical futures, so only the first arrival's subtree
// is expanded. Options.CollapseSpins additionally canonicalises busy-wait
// loops, which makes the state space of deadlock-free spin algorithms
// finite.
//
// The description is folded incrementally (replay.go). Whenever the
// session moves, stateAt folds each new trace event once into its
// process's history — under collapse an event either appends one entry
// or completes another iteration of a busy-wait period, which cuts the
// history back to a prefix — and every entry carries the chain digest of
// the history up to it, so a history's digest is its last entry's. The
// same pass keeps the written-bit masks symmetry reduction needs and the
// done/crashed statuses that decide which processes are live. Each
// folded event pushes one undo record: a Seek that rewinds the session
// to decision k keeps the trace's events before k
// (sim.Session.EventsBefore), so the fold pops back to them and folds
// only what the Seek replays. A state's digest then mixes the live
// memory's cell values with each process's (history length, chain
// digest) — O(cells + processes) per node instead of a pass over the
// whole trace.
//
// One digest definition serves every reader: chainEntry extends a
// history's digest and mixHist combines the per-process pairs after the
// cell values. The serial explorer's sibling peek keys a child without
// replaying it by substituting the one cell and the one history the
// branch changes (a collapsed append is a prefix, whose digest is
// already in the chain); symmetry reduction chains each remapped history
// through the same chainEntry, so its identity permutation reproduces
// the plain key exactly.
//
// Visited sets store only these 64-bit digests, so every "proved" rests
// on one assumption: no two distinct states of a job share a digest. By
// the birthday bound a job of s states collides with probability about
// s²/2^65 — 2^-27 at cfccheck's default budget of 2^19 states. The
// golden test (testdata/golden_check.txt) pins the states, runs,
// verdicts and witnesses of the n = 2 portfolio, the n = 2 and 3 crash
// variants and the racy-mutex canaries, in reference and DPOR+sym mode,
// so a collision or a fold bug there shows as a changed line.
//
// # Replay engine
//
// Replays run on the simulator's direct engine through a sim.Session with
// one reuse arena, so a replay costs no goroutines, no channels and no
// per-replay trace allocations. The session's checkpointed decision stack
// (sim.Session.Seek) is the core of the exploration's economics: in
// depth-first order the next node's schedule almost always has the
// session's current stack as a prefix, and Seek then extends the live run
// by a single decision instead of replaying the prefix. A sibling switch
// rewinds to the common prefix: only the processes that acted after it
// are re-run, fed their recorded responses, while the others stay parked,
// so it pays those processes' kept steps plus the new decisions rather
// than the whole schedule.
//
// # Partial-order reduction
//
// Options.POR delegates node expansion to an ample-set + sleep-set
// provider (por.go) instead of branching on every ready process. The
// independence relation comes from three sources: the opset oracle
// proves when two pending accesses commute (different cells, disjoint
// bit-field footprints of one packed word, or a commuting operation
// pair — a table brute-forced against Op.Apply), Local steps commute
// with everything, and phase-mark/output steps are property-visible —
// the safety properties observe their relative order — so they are
// never pruned alone and two visible steps never commute. Where one
// process's pending step commutes with every other live process's
// pending step (and clears two dynamic footprint guards plus a cycle
// proviso tied to the spin collapse), the node branches on that single
// step; sleep sets then remove the remaining permutational duplicates,
// travelling with stolen frontier nodes in the parallel explorer.
// Crash branches are never pruned.
//
// Reduced state counts are NOT comparable to -por=false counts: the
// reduced exploration skips the interior states of commuting diamonds
// and counts (state, sleep set) expansions, so States and Runs shrink —
// that is the point — while verdicts must not change. The soundness
// story is differential rather than proof-carrying (pending steps
// cannot reveal a future conflict, so the ample choice is a heuristic
// persistent-set approximation): any violation found under POR replays
// to a real one, and cfccheck -pordiff re-checks the whole portfolio —
// reference versus static POR versus DPOR — agreeing verdicts,
// replaying witnesses — in CI on every push. The unreduced reference
// run is always available: cfccheck -dpor=false -por=false, or zero
// Options.POR/DPOR at the library level.
//
// # Dynamic partial-order reduction and symmetry
//
// Options.DPOR replaces the static provider with source-DPOR (dpor.go):
// every node starts with a single step branch, and when an executed
// schedule exhibits a conflict — two dependent accesses by different
// processes, judged by the same opset oracle under a vector-clock
// happens-before — a backtrack point is registered at the earliest node
// that could have reordered it (the initials of the reordered suffix,
// the source-set refinement). Because backtrack sets are computed from
// conflicts each run actually exhibits rather than from pending steps,
// the dynamic reduction needs no footprint guards and no profitability
// fallback, and the differential fuzz harness (fuzz_test.go) holds it
// to two-sided verdict agreement with the unreduced reference on
// adversarial random programs — where the static heuristic is only held
// to its documented one-sided contract (never inventing a violation).
//
// Options.Symmetry canonicalises the DPOR visited key under the
// program's declared pid-permutation group (symmetry.go,
// sim/symmetry.go): one representative per orbit is expanded, which
// compounds with the dynamic reduction to make exhaustive n = 4 proofs
// of the declaring portfolio entries routine. Declaration carries a
// soundness obligation — uniform bodies up to the declared pid
// encodings; algorithms that scan registers in fixed index order
// (lamport-fast, lamport-packed) fall under the scalarset restriction
// and must not declare.
//
// The DPOR engine is wave-synchronised rather than work-stealing: each
// tree level is expanded by a parallel pass of pure per-node work, then
// a serial commit pass makes every order-sensitive decision (visited
// arbitration, counters, backtrack joins, violation selection) in
// deterministic task order. Results — including truncated ones and
// counterexamples — are therefore bit-identical at any Workers count by
// construction, with no serial re-run.
//
// The same split is the checker's only distribution seam (wave.go):
// WaveProbers run the stage pass in other processes and a WaveMaster
// runs the commit, so the fabric (internal/fabric) spreads one DPOR
// exploration over workers wave by wave. Explorations with the other
// engines are not split; the fabric ships each one whole to a worker,
// which runs Explore unchanged.
//
// # Serial and parallel exploration
//
// Options.Workers selects between two explorers over the same replay
// core. The serial explorer (Workers <= 1) is a recursive depth-first
// search on the calling goroutine. The parallel explorer runs a pool of
// workers, each with a private program instance (one Builder call each)
// and live session; subtree frontiers are distributed over per-worker
// deques with work stealing, the visited set is sharded, and every
// reachable state's subtree is expanded by exactly one worker. Completed
// (non-truncated) explorations report identical States, Runs and
// verdicts in both modes, and counterexamples are canonicalised to the
// serial depth-first-first witness; see Options.Workers and the
// commentary in parallel.go for why visit order cannot change the
// result.
package check
