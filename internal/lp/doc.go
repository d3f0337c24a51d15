// Package lp implements a dense two-phase primal simplex solver for small
// linear programs. It is the optimization substrate behind the
// coalitional-game analytics: deciding core non-emptiness (and exhibiting
// a core imputation) is a linear program with one constraint per
// coalition.
//
// The solver handles problems of the form
//
//	min / max  c·x
//	s.t.       aᵢ·x {≤,=,≥} bᵢ     for each constraint i
//	           x ≥ 0
//
// via the standard two-phase tableau method with Bland's rule for
// anti-cycling. It is exact up to floating-point tolerance and intended
// for problems with at most a few thousand constraints and a few hundred
// variables — ample for 16-player games, far from a production LP code.
package lp
