package mechanism

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/coalition"
	"gridvo/internal/fault"
)

// EngineStats aggregates solver-engine activity: how many coalition
// evaluations hit the IP solver, how many were served from the cache, and
// what the fresh solves cost. All counters are cumulative; Result.Stats
// carries the per-run delta.
type EngineStats struct {
	// Solves counts fresh IP solves performed by the engine.
	Solves int64
	// CacheHits counts coalition evaluations served from the cache —
	// i.e. solves avoided.
	CacheHits int64
	// WarmStarts counts fresh solves launched with a seed projected from
	// a cached parent coalition's solution (the incumbent-inheritance
	// path of the warm-start pipeline).
	WarmStarts int64
	// SeedAccepted counts warm-start seeds the solver repaired into a
	// feasible starting incumbent (always ≤ WarmStarts).
	SeedAccepted int64
	// SeedWins counts accepted seeds that beat every constructive
	// heuristic, i.e. inherited incumbents that were strictly better than
	// anything a cold solve starts from (always ≤ SeedAccepted).
	SeedWins int64
	// Nodes sums branch-and-bound nodes across fresh solves.
	Nodes int64
	// PrunedBySymmetry sums branches skipped by the solver's twin
	// symmetry rule across fresh solves. Nonzero only when coalition
	// instances contain GSPs with identical cost and time rows.
	PrunedBySymmetry int64
	// PrunedByDominance sums branches skipped by the twin dominance rule
	// across fresh solves (same identical-row precondition).
	PrunedByDominance int64
	// WallTime sums solver wall-clock time across fresh solves.
	WallTime time.Duration
	// PowerIterations sums power-method multiply steps performed by the
	// engine's reputation solves: the global vector and the mechanism
	// loop's per-coalition solves. Solves served from the reputation memo
	// perform none.
	PowerIterations int64
	// PowerIterationsSaved estimates multiply steps avoided by
	// eigenvector warm starts. For the first iteration it is exact (the
	// grand coalition's global vector is reused instead of recomputed);
	// for later iterations it is the shortfall versus the run's cold
	// first solve, a proxy since the true cold count for each subgraph is
	// never computed.
	PowerIterationsSaved int64
	// ReputationHits counts reputation solves served from the engine's
	// reputation memo instead of the power method: the global vector and
	// each eviction round's scores on a trajectory an earlier run on the
	// engine already walked. A hit performs no multiply steps, so it adds
	// nothing to PowerIterations or PowerIterationsSaved.
	ReputationHits int64
	// Degraded counts fresh evaluations served below the exact tier of
	// the degradation ladder: searches truncated by the node budget or a
	// (real or injected) cancellation, and inputs the malformed-input
	// guard rejected with an explicit infeasible solution instead of a
	// solve.
	Degraded int64
	// Reformations counts eviction-loop rounds whose membership was
	// changed by churn (joins or leaves between iterations), forcing an
	// online re-formation of the VO in flight.
	Reformations int64
	// ChurnJoins / ChurnLeaves count the individual membership changes
	// behind those re-formations.
	ChurnJoins  int64
	ChurnLeaves int64
}

// Evaluations returns the total coalition evaluations the engine served
// (fresh solves plus cache hits).
func (s EngineStats) Evaluations() int64 { return s.Solves + s.CacheHits }

// HitRate returns CacheHits / Evaluations, or 0 when nothing was served.
func (s EngineStats) HitRate() float64 {
	if t := s.Evaluations(); t > 0 {
		return float64(s.CacheHits) / float64(t)
	}
	return 0
}

// WarmStartRate returns SeedAccepted / WarmStarts — the fraction of
// seeded solves whose inherited incumbent survived repair — or 0 when no
// solve was warm-started.
func (s EngineStats) WarmStartRate() float64 {
	if s.WarmStarts > 0 {
		return float64(s.SeedAccepted) / float64(s.WarmStarts)
	}
	return 0
}

// Add returns the fieldwise sum (for harness-level aggregation).
func (s EngineStats) Add(o EngineStats) EngineStats {
	return EngineStats{
		Solves:               s.Solves + o.Solves,
		CacheHits:            s.CacheHits + o.CacheHits,
		WarmStarts:           s.WarmStarts + o.WarmStarts,
		SeedAccepted:         s.SeedAccepted + o.SeedAccepted,
		SeedWins:             s.SeedWins + o.SeedWins,
		Nodes:                s.Nodes + o.Nodes,
		PrunedBySymmetry:     s.PrunedBySymmetry + o.PrunedBySymmetry,
		PrunedByDominance:    s.PrunedByDominance + o.PrunedByDominance,
		WallTime:             s.WallTime + o.WallTime,
		PowerIterations:      s.PowerIterations + o.PowerIterations,
		PowerIterationsSaved: s.PowerIterationsSaved + o.PowerIterationsSaved,
		ReputationHits:       s.ReputationHits + o.ReputationHits,
		Degraded:             s.Degraded + o.Degraded,
		Reformations:         s.Reformations + o.Reformations,
		ChurnJoins:           s.ChurnJoins + o.ChurnJoins,
		ChurnLeaves:          s.ChurnLeaves + o.ChurnLeaves,
	}
}

// Sub returns the fieldwise difference (for per-run deltas on a shared
// engine).
func (s EngineStats) Sub(o EngineStats) EngineStats {
	return EngineStats{
		Solves:               s.Solves - o.Solves,
		CacheHits:            s.CacheHits - o.CacheHits,
		WarmStarts:           s.WarmStarts - o.WarmStarts,
		SeedAccepted:         s.SeedAccepted - o.SeedAccepted,
		SeedWins:             s.SeedWins - o.SeedWins,
		Nodes:                s.Nodes - o.Nodes,
		PrunedBySymmetry:     s.PrunedBySymmetry - o.PrunedBySymmetry,
		PrunedByDominance:    s.PrunedByDominance - o.PrunedByDominance,
		WallTime:             s.WallTime - o.WallTime,
		PowerIterations:      s.PowerIterations - o.PowerIterations,
		PowerIterationsSaved: s.PowerIterationsSaved - o.PowerIterationsSaved,
		ReputationHits:       s.ReputationHits - o.ReputationHits,
		Degraded:             s.Degraded - o.Degraded,
		Reformations:         s.Reformations - o.Reformations,
		ChurnJoins:           s.ChurnJoins - o.ChurnJoins,
		ChurnLeaves:          s.ChurnLeaves - o.ChurnLeaves,
	}
}

// String renders the stats for the cmds' summaries.
func (s EngineStats) String() string {
	out := fmt.Sprintf("%d solves (%d warm-started), %d cache hits (%.1f%% hit rate), %d nodes, %s solver time, %d power iterations (%d saved)",
		s.Solves, s.WarmStarts, s.CacheHits, 100*s.HitRate(), s.Nodes, s.WallTime, s.PowerIterations, s.PowerIterationsSaved)
	if s.ReputationHits > 0 {
		out += fmt.Sprintf(", %d reputation hits", s.ReputationHits)
	}
	if s.PrunedBySymmetry > 0 || s.PrunedByDominance > 0 {
		out += fmt.Sprintf(", %d twin prunes (%d symmetry, %d dominance)",
			s.PrunedBySymmetry+s.PrunedByDominance, s.PrunedBySymmetry, s.PrunedByDominance)
	}
	if s.Degraded > 0 {
		out += fmt.Sprintf(", %d degraded", s.Degraded)
	}
	if s.Reformations > 0 {
		out += fmt.Sprintf(", %d re-formations (%d joins, %d leaves)",
			s.Reformations, s.ChurnJoins, s.ChurnLeaves)
	}
	return out
}

// Engine is the unified solve path for one scenario: every layer that
// needs v(C) — the mechanism loop, the stability check, the merge-split
// baseline, coalition.Game value functions — routes through Engine.Solve,
// which memoizes solutions by coalition bitmask. One engine per scenario
// means TVOF iterations, RVOF baselines, and post-hoc stability analyses
// never re-solve a coalition any of them already solved.
//
// Solutions are cached only when the search was not interrupted by the
// context (an interrupted solve is deadline-dependent, hence not
// deterministic); node-budget truncation is deterministic and cacheable.
// Beside the solutions the engine memoizes the mechanism loop's
// reputation trajectories (repMemo), so a repeated formation performs no
// power iterations either. Engine is safe for concurrent use.
type Engine struct {
	sc     *Scenario
	solver assign.Solver
	opts   assign.Options
	inject *fault.Injector

	mu      sync.Mutex
	noCache bool
	cache   map[uint64]cachedSolution
	rep     repMemo
	stats   EngineStats
}

// cachedSolution is the part of an assign.Solution the cache keeps: the
// answer and its certificate, without the per-solve Nodes and Stats
// (about 150 bytes an entry), which describe the search that produced
// the answer rather than the answer. A cache hit therefore returns zero
// Nodes and Stats; the engine's own counters already hold the effort.
type cachedSolution struct {
	assign            []int
	cost, lowerBound  float64
	feasible, optimal bool
	budgetHit         bool
}

// solution rebuilds the assign.Solution a hit returns, with a defensive
// copy of the assignment.
func (c *cachedSolution) solution() assign.Solution {
	return assign.Solution{
		Feasible:      c.feasible,
		Assign:        append([]int(nil), c.assign...),
		Cost:          c.cost,
		Optimal:       c.optimal,
		LowerBound:    c.lowerBound,
		NodeBudgetHit: c.budgetHit,
	}
}

// NewEngine creates the solve engine for a scenario with the given solver
// options. The scenario's matrices, deadline, and payment must not change
// afterwards — the cache keys coalitions only by membership. Any
// SeedAssign in the options is discarded: warm-start seeds are projected
// per solve from cached parent solutions, never fixed engine-wide.
func NewEngine(sc *Scenario, solverOpts assign.Options) *Engine {
	solverOpts.SeedAssign = nil
	return &Engine{
		sc:     sc,
		solver: assign.DefaultSolver(),
		opts:   solverOpts,
		cache:  map[uint64]cachedSolution{},
	}
}

// SetSolver replaces the backend (tests inject counting or stub solvers;
// future PRs can swap in alternative backends). Not safe to call
// concurrently with Solve.
func (e *Engine) SetSolver(s assign.Solver) {
	if s == nil {
		s = assign.DefaultSolver()
	}
	e.solver = s
}

// SetInjector installs a fault injector: the engine visits it once per
// coalition evaluation (fault.PointEngine, the malformed-input faults) and
// forwards it to the IP solver via Options.Inject (fault.PointSolve). Any
// solve a fault touched is excluded from the cache, so injected failures
// stay transient instead of poisoning later evaluations. Like SetSolver,
// not safe to call concurrently with Solve; nil disables injection.
func (e *Engine) SetInjector(in *fault.Injector) {
	e.inject = in
	e.opts.Inject = in
}

// Injector returns the installed fault injector (nil when disabled).
func (e *Engine) Injector() *fault.Injector { return e.inject }

// SetCacheEnabled toggles memoization of coalition solutions and of
// reputation trajectories (the determinism tests compare cache-on and
// cache-off runs). Disabling does not drop entries already cached; it
// only bypasses lookups and stores.
func (e *Engine) SetCacheEnabled(on bool) {
	e.mu.Lock()
	e.noCache = !on
	e.mu.Unlock()
}

// Scenario returns the scenario the engine solves for.
func (e *Engine) Scenario() *Scenario { return e.sc }

// Stats returns a snapshot of the cumulative engine stats.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// CacheLen reports how many distinct coalitions are cached.
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// memberMask returns the coalition bitmask, or false when the member set
// cannot be keyed (≥64 GSPs — beyond coalition.MaxPlayers the cache is
// bypassed rather than wrong).
func memberMask(members []int) (uint64, bool) {
	var mask uint64
	for _, g := range members {
		if g < 0 || g > 63 {
			return 0, false
		}
		mask |= 1 << uint(g)
	}
	return mask, true
}

// Solve returns the assignment solution for the coalition given by global
// GSP indices, serving from the cache when the coalition was already
// solved. Cache hits return a defensive copy of the assignment so callers
// can retain it without aliasing each other, and zero Nodes and Stats
// (see cachedSolution). It is SolveWithParent without a warm-start hint.
func (e *Engine) Solve(ctx context.Context, members []int) assign.Solution {
	return e.SolveWithParent(ctx, members, nil)
}

// SolveWithParent is Solve with incumbent inheritance: parent, when
// non-nil, names a related coalition (typically this coalition plus the
// GSP an iteration just evicted, or a merge constituent) whose cached
// solution — if present and feasible — is projected onto members and
// passed to the solver as Options.SeedAssign. The solver repairs the
// projection and uses it as its starting incumbent, so each TVOF/RVOF
// iteration resumes from its parent's optimum instead of re-deriving one
// from scratch. Seeds only tighten the incumbent, never any bound, so
// cacheability is unchanged and a seeded solve is never worse than a cold
// one. Cache misses with an unusable parent degrade silently to a cold
// solve.
func (e *Engine) SolveWithParent(ctx context.Context, members, parent []int) assign.Solution {
	// Fault hook: one visit per coalition evaluation. EmptyCoalition
	// replaces the member set; PoisonCost corrupts the instance below.
	// Either way the degraded result is returned explicitly and never
	// cached.
	plan := e.inject.Visit(fault.PointEngine)
	if plan.Class == fault.EmptyCoalition {
		members = nil
	}
	// Malformed-input guard, the bottom rung of the degradation ladder: an
	// empty coalition cannot satisfy coverage (13) while tasks remain, and
	// a corrupted instance must not reach the solver (SolveCtx treats an
	// invalid instance as a caller bug and panics). Both come back as an
	// explicit infeasible solution instead of an error or a panic.
	if len(members) == 0 && e.sc.N() > 0 {
		e.mu.Lock()
		e.stats.Degraded++
		e.mu.Unlock()
		return assign.Solution{Optimal: true}
	}

	mask, keyable := memberMask(members)
	var seed []int
	e.mu.Lock()
	if keyable && !e.noCache {
		if c, ok := e.cache[mask]; ok {
			e.stats.CacheHits++
			e.mu.Unlock()
			return c.solution()
		}
	}
	if parent != nil && !e.noCache {
		if pmask, ok := memberMask(parent); ok {
			// Cached entries are immutable once stored, so projecting
			// from the stored assignment outside the lock is safe.
			if pc, ok := e.cache[pmask]; ok && pc.feasible {
				seed = pc.assign
			}
		}
	}
	e.mu.Unlock()

	opts := e.opts
	if seed != nil {
		opts.SeedAssign = projectAssign(seed, parent, members)
	}
	in := e.sc.Instance(members)
	if plan.Class == fault.PoisonCost {
		in = poisonCost(in, plan.Pick)
	}
	if plan.Fired() {
		// A fault-touched instance may now be malformed; reject it here
		// (degraded, infeasible, uncached) rather than let the solver
		// panic. Clean solves skip this re-validation entirely.
		if err := in.Validate(); err != nil {
			e.mu.Lock()
			e.stats.Degraded++
			e.mu.Unlock()
			return assign.Solution{}
		}
	}
	sol := e.solver.SolveCtx(ctx, in, opts)

	e.mu.Lock()
	e.stats.Solves++
	if opts.SeedAssign != nil {
		e.stats.WarmStarts++
		e.stats.SeedAccepted += sol.Stats.SeedAccepted
		e.stats.SeedWins += sol.Stats.SeedWins
	}
	e.stats.Nodes += sol.Stats.Nodes
	e.stats.PrunedBySymmetry += sol.Stats.PrunedBySymmetry
	e.stats.PrunedByDominance += sol.Stats.PrunedByDominance
	e.stats.WallTime += sol.Stats.WallTime
	if !sol.Optimal {
		e.stats.Degraded++
	}
	if keyable && !e.noCache && !sol.Stats.Interrupted() && !plan.Fired() {
		e.cache[mask] = cachedSolution{
			assign:     append([]int(nil), sol.Assign...),
			cost:       sol.Cost,
			lowerBound: sol.LowerBound,
			feasible:   sol.Feasible,
			optimal:    sol.Optimal,
			budgetHit:  sol.NodeBudgetHit,
		}
	}
	e.mu.Unlock()
	return sol
}

// poisonCost returns a copy of the instance with one cost entry set to NaN
// — the injected malformed-matrix input. Cost rows are deep-copied so the
// scenario's backing matrices stay intact; pick selects the entry.
func poisonCost(in *assign.Instance, pick uint64) *assign.Instance {
	k, n := in.NumGSPs(), in.NumTasks()
	if k == 0 || n == 0 {
		return in
	}
	out := &assign.Instance{
		Cost:     make([][]float64, k),
		Time:     in.Time,
		Deadline: in.Deadline,
		Budget:   in.Budget,
	}
	for i := range out.Cost {
		out.Cost[i] = append([]float64(nil), in.Cost[i]...)
	}
	out.Cost[int(pick%uint64(k))][int((pick>>32)%uint64(n))] = math.NaN()
	return out
}

// noteChurn folds one churned round's membership changes into the engine
// stats: the round counts as a re-formation, attributed like notePower to
// the run that observed it.
func (e *Engine) noteChurn(joins, leaves int) {
	e.mu.Lock()
	e.stats.Reformations++
	e.stats.ChurnJoins += int64(joins)
	e.stats.ChurnLeaves += int64(leaves)
	e.mu.Unlock()
}

// notePower folds one reputation solve's power-method activity into the
// engine stats: iters multiply steps performed, saved steps avoided by a
// warm start (see EngineStats.PowerIterationsSaved for the estimate's
// semantics).
func (e *Engine) notePower(iters, saved int) {
	e.mu.Lock()
	e.stats.PowerIterations += int64(iters)
	e.stats.PowerIterationsSaved += int64(saved)
	e.mu.Unlock()
}

// projectAssign maps a parent coalition's task assignment onto a child
// coalition: tasks whose GSP the child retains keep it (re-indexed to the
// child's local indices); tasks of departed members become -1, the
// orphan marker the solver's seed repair reassigns. parent and child are
// ascending global GSP indices; parentAssign is indexed by task with
// parent-local values.
func projectAssign(parentAssign, parent, child []int) []int {
	local := map[int]int{}
	for cl, g := range child {
		local[g] = cl
	}
	seed := make([]int, len(parentAssign))
	for j, pl := range parentAssign {
		seed[j] = -1
		if pl >= 0 && pl < len(parent) {
			if cl, ok := local[parent[pl]]; ok {
				seed[j] = cl
			}
		}
	}
	return seed
}

// Value returns the characteristic function v(C) of eq. (15) under the
// engine: P − C(T,C) when feasible, else 0.
func (e *Engine) Value(ctx context.Context, members []int) float64 {
	sol := e.Solve(ctx, members)
	return e.sc.Value(&sol)
}

// ValueFunc adapts the engine to coalition.ValueFunc, so coalition.Game
// construction shares the per-scenario cache instead of owning a second,
// disjoint memoization of the same NP-hard solves.
func (e *Engine) ValueFunc(ctx context.Context) coalition.ValueFunc {
	return func(members []int) float64 { return e.Value(ctx, members) }
}

// errEngineScenario rejects an engine passed for the wrong scenario — a
// cross-scenario cache would silently serve wrong solutions.
var errEngineScenario = errors.New("mechanism: engine belongs to a different scenario")

// engineFor returns the engine a mechanism entry point should use: the
// one the caller passed via Options, else a fresh engine for the
// scenario. Options.Inject, when set, is installed on the engine either
// way (callers sharing an engine across concurrent runs must install the
// injector themselves, before any run starts).
func engineFor(sc *Scenario, opts *Options) (*Engine, error) {
	eng := opts.Engine
	if eng != nil {
		if eng.sc != sc {
			return nil, errEngineScenario
		}
	} else {
		eng = NewEngine(sc, opts.Solver)
	}
	if opts.Inject != nil {
		eng.SetInjector(opts.Inject)
	}
	return eng, nil
}
