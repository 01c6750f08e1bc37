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
// the plain key exactly. The remapped chains are kept alongside the
// fold, per process and history position under every non-identity
// permutation, extended lazily when a key is asked for and cut back
// wherever the fold truncates a history, so a symmetric key costs
// O(permutations × (cells + processes)) too (symmetry.go). They are the
// exact digests a walk over every history would chain, so they add no
// hash assumption.
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
// The reference exploration (Options.DPOR false) reduces nothing: at
// every node it branches on a step of each live process, then, with
// Options.ExploreCrashes, on a crash of each, and it prunes only states
// it has already visited. That makes it the sound engine — its "proved"
// is a proof under the digest assumption above and, with spin collapse,
// the collapse's own condition — and it is what cfccheck -dpor=false
// runs.
//
// Options.DPOR reduces. Its independence relation (por.go) comes from
// three sources: the opset oracle proves when two accesses commute
// (different cells, disjoint bit-field footprints of one packed word, or
// a commuting operation pair — a table brute-forced against Op.Apply),
// Local steps commute with everything, and phase-mark/output steps are
// property-visible — the safety properties observe their relative order
// — so two visible steps never commute. Reduced state counts are not
// comparable to the reference's: the reduced exploration skips the
// interior states of commuting diamonds and counts (state, sleep set)
// expansions.
//
// DPOR is not sound. Where it prunes a revisited state it approximates
// the races the pruned subtree would have found (the stateful-DPOR
// caveat in dpor.go), and the approximation proves two seeded broken
// locks that the reference refutes: Lamport's fast mutex that ignores
// its read of x after writing y, and Peterson's lock with its turn
// write before its flag write (TestReferenceRefutesSeededMutants pins
// both against the reference). A violation DPOR reports is real, and its
// witness replays. cfccheck -pordiff compares the two engines' verdicts
// across the portfolio in CI, and the differential fuzz harness
// (fuzz_test.go) requires exact agreement on random loop-free programs
// without phase marks. Neither gate holds DPOR to soundness: the
// portfolio's algorithms are correct, so both engines say "proved" on
// them, and coverage-guided fuzzing finds loop-free programs on which
// DPOR misses a violation the reference finds (fuzz_test.go names one).
//
// # Dynamic partial-order reduction and symmetry
//
// Options.DPOR replaces the reference's full expansion with source-DPOR
// (dpor.go): every node starts with a single step branch, and when an
// executed schedule exhibits a conflict — two dependent accesses by
// different processes, judged by the same opset oracle under a
// vector-clock happens-before — a backtrack point is registered at the
// earliest node that could have reordered it (the initials of the
// reordered suffix, the source-set refinement). Backtrack sets come from
// conflicts each run actually exhibits rather than from pending steps.
//
// The race analysis reads only what a step can depend on. Each worker
// keeps the decoded path of the schedule it last analysed, with its
// vector clocks and an index: per cell, the ascending positions of the
// accesses to it, and the positions of the property-visible steps. The
// opset oracle already says accesses to different cells commute, so a
// step's clock and races (and those of the compensation ghosts) come
// from its own list alone; an access the index cannot hold — an
// operation opset does not know — sends the scan over the whole path.
// The next task keeps the path, clocks and index up to the first
// decision where its schedule leaves the last one and decodes only the
// trace events after it (sim.Session.EventsBefore).
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
// The DPOR engine is wave-synchronised: each tree level is expanded by
// a pass of pure per-node work on Options.Workers goroutines, then
// a serial commit pass makes every order-sensitive decision (visited
// arbitration, counters, backtrack joins, violation selection) in
// deterministic task order. Results — including truncated ones and
// counterexamples — are therefore bit-identical at any Workers count by
// construction, with no serial re-run.
//
// The same split is the checker's only distribution seam (wave.go):
// WaveProbers run the stage pass in other processes and a WaveMaster
// runs the commit, so the fabric (internal/fabric) spreads one DPOR
// exploration over workers wave by wave. Reference explorations are
// not split; the fabric ships each one whole to a worker, which runs
// Explore unchanged.
//
// # Where exploration runs
//
// Two explorers share the replay core. The reference exploration is a
// recursive depth-first search on the calling goroutine. The DPOR
// engine runs its stage pass on Options.Workers
// goroutines, each with a private program instance (one Builder call
// each) and live session, and its commit pass on the calling goroutine;
// only the commit pass touches the visited set. Both are deterministic:
// the same options give the same Result, truncated or violating
// explorations included, at any Workers count. To spread reference
// explorations over cores, explore several of them at once —
// cmd/cfccheck -workers runs that many portfolio jobs side by side and
// prints their rows in job order.
package check
