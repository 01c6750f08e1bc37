// Package mutex implements the mutual-exclusion algorithms studied in
// Section 2 of Alur & Taubenfeld: Lamport's fast algorithm, the Theorem 3
// tournament construction for arbitrary atomicity l, the Peterson/Fischer
// and Kessels bit-only tournaments, a packed-word (multi-grain) variant of
// Lamport's algorithm after Michael & Scott, a test-and-set lock baseline,
// and backoff wrappers (Section 4).
//
// Every algorithm is written against the simulator's Proc API, so each
// shared-memory access is one atomic scheduled event and complexity is
// measured, not estimated. An Algorithm is a family (instantiable for any
// process count); New declares its registers in a Memory and returns an
// Instance whose Lock/Unlock are called by process bodies (see package
// driver for the bodies and run shapes).
//
// Instances are plain data plus register handles: all mutable state lives
// in the simulator's Memory, and instance methods are pure functions of
// the values their accesses return. One instance therefore serves any
// number of sequential runs (the memory is reset per run), and the model
// checker's DPOR stage pass builds one instance per worker — never
// sharing instances across goroutines, because the Memory underneath is
// single-run state.
//
// The portfolio doubles as the checker's test corpus: every algorithm
// here is exhaustively verified for small process counts by cfccheck and
// the internal/check tests, and the deliberately broken designs kept in
// internal/check's regression tests document what the safe designs are
// protecting against.
package mutex
