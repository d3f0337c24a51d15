// Package analysis is gridvo's custom static-analysis suite: a
// stdlib-only driver (go/parser + go/types, no golang.org/x/tools) that
// loads and type-checks every package in the module and runs
// project-specific checks guarding the invariants the test suite
// promises dynamically — bit-reproducible solves, seed-derived
// randomness, replayable fault schedules, cancellable solver entry
// points.
//
// The check catalog:
//
//   - maporder: map iteration feeding a slice, serialized output, or a
//     hash without an intervening sort.
//   - floatcmp: exact ==/!= between floats (zero guards and x!=x NaN
//     tests allowed).
//   - recipmul: v := 1/x later used as a multiplier — the subnormal
//     overflow pattern behind the PR 4 NormalizeRows bug.
//   - ctxthread: exported solver-core functions that iterate over
//     module code without accepting a context.
//   - noclock: time.Now/time.Since outside the server/stats/fault/main
//     allowlist.
//   - randsource: math/rand imported outside internal/xrand.
//   - densehot: dense-matrix scans in hot solver loops where the sparse
//     substrate applies.
//
// Five further checks ride the interprocedural layer (module-wide call
// graph plus per-function fact store, see module.go):
//
//   - lockfield: a struct field that is mutex-guarded — inferred from
//     majority-under-lock access or declared via //gridvolint:guards —
//     accessed without the lock held.
//   - goleak: a goroutine launched with no reachable cancellation,
//     WaitGroup, or bounded-channel exit path.
//   - lockcall: a mutex held across a blocking operation (channel op,
//     select without default, transitively blocking call).
//   - fptaint: a nondeterministic value (map order, wall clock,
//     math/rand) flowing through a call chain into a fingerprint sink.
//   - allocguard: an allocating construct inside a function marked
//     //gridvolint:zeroalloc (the B&B steady-state set).
//
// Intentional exceptions are annotated in the source:
//
//	//gridvolint:ignore <check> <reason>
//
// A directive suppresses its check on its own line and the line below;
// placed in a declaration's doc comment it covers the whole declaration.
// The reason is mandatory and malformed directives are diagnostics
// themselves, so every suppression stays auditable. When every check
// runs, a directive that suppressed nothing is reported as stale, so
// suppressions cannot outlive the code they excused.
//
// Diagnostics print as "file:line:col  [check]  message"; the
// cmd/gridvolint driver adds -json output and exits non-zero on any
// finding, which is how CI keeps the tree clean.
package analysis
