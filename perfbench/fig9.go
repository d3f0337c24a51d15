package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
	"gridvo/internal/reputation"
	"gridvo/internal/sim"
	"gridvo/internal/xrand"
)

// The scenarios of fig9-sweep are those of the recorded Table I sweep of
// referencePicks; the run seed only orders the cells (see ledger.json for
// why).
const (
	fig9SimSeed   = 42   // the sim seed of referencePicks
	fig9TraceJobs = 4000 // synthetic Atlas trace length of referencePicks
)

// fig9Params are the sweep's sizes and how often a run sets up; the
// smoke test shrinks them.
type fig9Params struct {
	Sizes []int
	Reps  int
	// Setups is how many times a run sets up; setup_s is their median.
	Setups int
}

func defaultFig9Params() fig9Params {
	return fig9Params{Sizes: []int{256, 1024, 8192}, Reps: 3, Setups: 5}
}

func (p fig9Params) config() sim.Config {
	cfg := sim.DefaultConfig(fig9SimSeed)
	cfg.ProgramSizes = p.Sizes
	cfg.Repetitions = p.Reps
	cfg.TraceJobs = fig9TraceJobs
	return cfg
}

// fig9Cell is one (program size, repetition) scenario of the sweep.
type fig9Cell struct {
	size, rep int
	sc        *mechanism.Scenario
	retries   int
}

// fig9Setup is the program-side set-up: sim.NewEnv plus every
// BuildScenario, each of which includes the grand coalition's
// feasibility solves.
type fig9Setup struct {
	env      *sim.Env
	cells    []fig9Cell
	total    time.Duration
	newEnvMS float64
	buildMS  []float64
}

func setUpFig9(p fig9Params, tr *tracer) (*fig9Setup, error) {
	s := &fig9Setup{}
	start := time.Now()
	id := tr.begin("sim.new_env", -1, -1)
	env, err := sim.NewEnv(p.config())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	s.env = env
	s.newEnvMS = msOf(time.Since(start))
	for _, size := range p.Sizes {
		for rep := 0; rep < p.Reps; rep++ {
			t0 := time.Now()
			id := tr.begin("sim.build_scenario", -1, -1)
			sc, meta, err := env.BuildScenario(size, rep)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			s.buildMS = append(s.buildMS, msOf(time.Since(t0)))
			s.cells = append(s.cells, fig9Cell{size: size, rep: rep, sc: sc, retries: meta.FeasibilityRetries})
		}
	}
	s.total = time.Since(start)
	return s, nil
}

// pairResult is one op: the cell it ran and its TVOF and RVOF results,
// which are checked once the phase's time and memory are measured.
type pairResult struct {
	op     int64
	cell   int
	tv, rv *mechanism.Result
}

// pick is the bitwise fingerprint of a run's selection.
func pick(res *mechanism.Result) string {
	f := res.Final()
	if f == nil {
		return fmt.Sprintf("%d none", len(res.Iterations))
	}
	return fmt.Sprintf("%d %d %v %x %x %x %x", len(res.Iterations), res.Selected, f.Members,
		math.Float64bits(f.Payoff), math.Float64bits(f.Value), math.Float64bits(f.Cost), math.Float64bits(f.AvgReputation))
}

// checkRun verifies one mechanism result: a selected VO exists, its
// assignment satisfies every IP constraint, v(C) = P − C(T,C) ≥ 0, and
// the equal shares sum to v(C).
func checkRun(sc *mechanism.Scenario, res *mechanism.Result) error {
	f := res.Final()
	if f == nil {
		return fmt.Errorf("%v selected no VO", res.Rule)
	}
	if err := assign.Verify(sc.Instance(f.Members), f.Assignment); err != nil {
		return fmt.Errorf("%v selection infeasible: %w", res.Rule, err)
	}
	if f.Value < 0 || math.Float64bits(f.Value) != math.Float64bits(sc.Payment-f.Cost) {
		return fmt.Errorf("%v v(C) = %v, want P − C = %v ≥ 0", res.Rule, f.Value, sc.Payment-f.Cost)
	}
	if shares := f.Payoff * float64(len(f.Members)); math.Abs(shares-f.Value) > 1e-9*math.Max(1, math.Abs(f.Value)) {
		return fmt.Errorf("%v shares sum to %v, v(C) = %v", res.Rule, shares, f.Value)
	}
	return nil
}

// checkReference compares a TVOF pick with the recorded one of its cell
// (see referencePicks); cells the recording does not have pass.
func checkReference(c fig9Cell, res *mechanism.Result) error {
	for _, ref := range referencePicks {
		if ref.size != c.size || ref.rep != c.rep {
			continue
		}
		f := res.Final()
		switch {
		case f == nil:
			return fmt.Errorf("n=%d rep=%d: no VO, the reference picked %d GSPs", c.size, c.rep, ref.voSize)
		case len(f.Members) != ref.voSize:
			return fmt.Errorf("n=%d rep=%d: VO size %d, reference %d", c.size, c.rep, len(f.Members), ref.voSize)
		case math.Abs(f.AvgReputation-ref.avgRep) > 1e-9:
			return fmt.Errorf("n=%d rep=%d: VO reputation %v, reference %v", c.size, c.rep, f.AvgReputation, ref.avgRep)
		case f.Payoff < ref.payoff-1e-6*(1+math.Abs(ref.payoff)):
			return fmt.Errorf("n=%d rep=%d: payoff %v below the reference %v", c.size, c.rep, f.Payoff, ref.payoff)
		}
	}
	return nil
}

// fig9Phase is one phase's ops and their latencies.
type fig9Phase struct {
	results []pairResult
	lat     latencies
}

// runFig9Phase runs pairs. With ops == nil it runs whole sweeps — every
// cell once, in a seeded order — until limit has passed; otherwise it
// runs exactly the given cells. A nil tracer is the untraced path through
// sim.Env.RunPairContext. Only the pairs are timed; checkFig9Phase checks
// them afterwards.
func runFig9Phase(ctx context.Context, p fig9Params, s *fig9Setup, order *xrand.RNG, limit time.Duration, ops []int,
	tr *tracer, ts *timedSolver, rep *report, opBase int64) (*fig9Phase, error) {
	ph := &fig9Phase{}
	cfg := p.config()
	start := time.Now()
	runOne := func(ci int) error {
		c := s.cells[ci]
		op := opBase + int64(len(ph.results))
		rep.Attempted++
		t0 := time.Now()
		var tv, rv *mechanism.Result
		var err error
		if tr == nil {
			tv, rv, err = s.env.RunPairContext(ctx, c.sc, c.size, c.rep)
		} else {
			tv, rv, err = tracedPair(ctx, cfg, c, tr, ts, op)
		}
		ph.lat.add(time.Since(t0))
		if err != nil {
			return fmt.Errorf("pair n=%d rep=%d: %w", c.size, c.rep, err)
		}
		ph.results = append(ph.results, pairResult{op: op, cell: ci, tv: tv, rv: rv})
		return nil
	}
	if ops != nil {
		for _, ci := range ops {
			if err := runOne(ci); err != nil {
				return nil, err
			}
		}
	} else {
		for time.Since(start) < limit {
			for _, ci := range order.Perm(len(s.cells)) {
				if err := runOne(ci); err != nil {
					return nil, err
				}
			}
		}
	}
	return ph, nil
}

// checkFig9Phase checks every op of a phase: both selections are valid,
// the TVOF pick matches the recording, and a cell's selections are the
// same on every run of it (firstPick keeps each cell's first).
func checkFig9Phase(rep *report, s *fig9Setup, ph *fig9Phase, firstPick map[int]string) {
	for _, r := range ph.results {
		c := s.cells[r.cell]
		for _, res := range []*mechanism.Result{r.tv, r.rv} {
			if err := checkRun(c.sc, res); err != nil {
				rep.fail(r.op, "n=%d rep=%d: %v", c.size, c.rep, err)
			}
		}
		if err := checkReference(c, r.tv); err != nil {
			rep.fail(r.op, "%v", err)
		}
		got := pick(r.tv) + " | " + pick(r.rv)
		if want, ok := firstPick[r.cell]; !ok {
			firstPick[r.cell] = got
		} else if got != want {
			rep.fail(r.op, "n=%d rep=%d: selection %q differs from the first run of the cell %q", c.size, c.rep, got, want)
		}
	}
}

// tracedPair is sim.Env.RunPairContext rebuilt from public functions so
// that each layer gets spans: its own engine per pair with a timing
// solver, and the sim RNG streams run-<size>-<rep>-tvof|rvof. It does not
// rebuild the per-cell churn schedule, so it refuses a churned config.
func tracedPair(ctx context.Context, cfg sim.Config, c fig9Cell, tr *tracer, ts *timedSolver, op int64) (tv, rv *mechanism.Result, err error) {
	if !cfg.Churn.IsZero() {
		return nil, nil, fmt.Errorf("the traced pair does not rebuild churn schedules")
	}
	root := tr.begin("sim.pair", -1, op)
	defer tr.end(root)
	eng := mechanism.NewEngine(c.sc, cfg.Solver)
	eng.SetSolver(ts)
	streams := xrand.New(cfg.Seed)
	key := fmt.Sprintf("run-%d-%d", c.size, c.rep)
	run := func(rule mechanism.EvictionRule, suffix string) (*mechanism.Result, error) {
		o := cfg.Mechanism
		o.Eviction = rule
		o.Solver = cfg.Solver
		o.Engine = eng
		id := tr.begin("mechanism.run", root, op)
		ts.parent, ts.op = id, op
		defer tr.end(id)
		return mechanism.RunContext(ctx, c.sc, o, streams.Split(key+suffix))
	}
	if tv, err = run(mechanism.EvictLowestReputation, "-tvof"); err != nil {
		return nil, nil, err
	}
	if rv, err = run(mechanism.EvictRandom, "-rvof"); err != nil {
		return nil, nil, err
	}
	return tv, rv, nil
}

// replayReputation re-runs a result's reputation sequence on the mirror —
// the global vector, then each iteration's eviction scores with the
// mechanism's warm start and cold fallback — and checks every vector
// bitwise against the result.
func replayReputation(m *repMirror, sc *mechanism.Scenario, res *mechanism.Result, op int64) error {
	opts := reputation.DefaultOptions()
	global, gdiag := m.global(sc.Trust, opts, op)
	if !sameBits(global, res.GlobalReputation) {
		return fmt.Errorf("%v: mirror global reputation differs", res.Rule)
	}
	cur := sc.Trust
	var init []float64
	for i := range res.Iterations {
		rec := &res.Iterations[i]
		scores := global
		if i > 0 {
			ro := opts
			ro.InitialVector = init
			if gdiag.Iterations > 0 && (ro.MaxIter == 0 || gdiag.Iterations < ro.MaxIter) {
				ro.MaxIter = gdiag.Iterations
			}
			x, d := m.global(cur, ro, op)
			if d.Warm && !d.Converged {
				ro.InitialVector, ro.MaxIter = nil, opts.MaxIter
				x, _ = m.global(cur, ro, op)
			}
			scores = x
		}
		if !sameBits(scores, rec.Reputation) {
			return fmt.Errorf("%v iteration %d: mirror eviction scores differ", res.Rule, i)
		}
		if rec.Evicted < 0 {
			break
		}
		var keep []int
		init = init[:0]
		for k, g := range rec.Members {
			if g != rec.Evicted {
				keep = append(keep, k)
				init = append(init, scores[k])
			}
		}
		cur = cur.Subgraph(keep)
	}
	return nil
}

func runFig9(ctx context.Context, o runOpts, p fig9Params) (*report, error) {
	rep := newReport("fig9-sweep")
	rep.Params = map[string]any{
		"sim_seed": fig9SimSeed, "sizes": p.Sizes, "reps": p.Reps, "trace_jobs": fig9TraceJobs,
		"node_budget": assign.DefaultNodeBudget, "setups": p.Setups, "clients": 1, "loop": "closed",
	}
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	var setups, newEnv, builds []float64
	var s *fig9Setup
	for i := 0; i < p.Setups; i++ {
		// Collect the previous set-up's scenarios before timing the next.
		s = nil
		runtime.GC()
		var err error
		if s, err = setUpFig9(p, tr); err != nil {
			return nil, fmt.Errorf("fig9 set-up: %w", err)
		}
		setups = append(setups, s.total.Seconds())
		newEnv = append(newEnv, s.newEnvMS)
		builds = append(builds, s.buildMS...)
	}
	rep.E2E["setup_s"] = median(setups)
	retries := 0
	for _, c := range s.cells {
		retries += c.retries
	}
	rep.Layers["sim.new_env_ms"] = median(newEnv)
	rep.Layers["sim.build_scenario_ms"] = median(builds)
	rep.Layers["sim.feasibility_retries"] = float64(retries)

	order := xrand.New(o.Seed).Split("fig9-order")
	limit := o.Seconds
	if o.Trace {
		limit = o.Seconds / 2
	}
	before := readMem()
	ph, err := runFig9Phase(ctx, p, s, order, limit, nil, nil, nil, rep, 0)
	if err != nil {
		return nil, err
	}
	allocPerOp(rep.E2E, before, readMem(), len(ph.results))
	ops := len(ph.results)
	rep.E2E["ops_per_s"] = float64(ops) / (sum(ph.lat.ms) / 1000)
	rep.E2E["op_p50_ms"] = ph.lat.p50()
	rep.tails(&ph.lat)
	firstPick := map[int]string{}
	checkFig9Phase(rep, s, ph, firstPick)
	// Whole sweeps run every cell, so each cell's payoff is set.
	var solves, degraded int64
	payoffs := make([]float64, len(s.cells))
	cellOps := make([]int, ops)
	for i, r := range ph.results {
		for _, res := range []*mechanism.Result{r.tv, r.rv} {
			solves += res.Stats.Solves
			degraded += res.Stats.Degraded
		}
		if f := r.tv.Final(); f != nil {
			payoffs[r.cell] = f.Payoff
		}
		cellOps[i] = r.cell
	}
	rep.E2E["certified_frac"] = 1 - ratio(float64(degraded), float64(solves))
	rep.E2E["vo_payoff_mean"] = ratio(sum(payoffs), float64(len(payoffs)))
	// The results are the benchmark's, not state the program retains.
	ph.results = nil
	if !o.Trace {
		heap, err := retainedMB(func() error { s = nil; return nil })
		rep.E2E["live_heap_mb"] = heap
		return rep, err
	}
	rep.Notes["live_heap_mb"] = "measured by the untraced run"

	ts := &timedSolver{tr: tr}
	mirror := &repMirror{tr: tr}
	traced, err := runFig9Phase(ctx, p, s, nil, 0, cellOps, tr, ts, rep, int64(ops))
	if err != nil {
		return nil, err
	}
	checkFig9Phase(rep, s, traced, firstPick)
	var st mechanism.EngineStats
	iterations, runs := 0, 0
	for _, r := range traced.results {
		c := s.cells[r.cell]
		for _, res := range []*mechanism.Result{r.tv, r.rv} {
			if err := replayReputation(mirror, c.sc, res, r.op); err != nil {
				rep.fail(r.op, "%v", err)
			}
			st = st.Add(res.Stats)
			iterations += len(res.Iterations)
			runs++
		}
	}
	spans := tr.snapshot()
	L := rep.Layers
	assignLayer(L, ts.solves, runs)
	mirror.fill(L, spans)
	L["mechanism.run_ms"] = ratio(sum(spanDurations(spans, "mechanism.run")), float64(runs))
	L["mechanism.self_ms"] = ratio(selfTimes(spans)["mechanism"], float64(runs))
	L["mechanism.iterations"] = ratio(float64(iterations), float64(runs))
	L["mechanism.coalition_hit_rate"] = st.HitRate()
	L["mechanism.warm_start_rate"] = st.WarmStartRate()
	L["mechanism.power_iterations"] = ratio(float64(st.PowerIterations), float64(runs))
	L["mechanism.vo_payoff_mean"] = rep.E2E["vo_payoff_mean"]
	selfPerOp(L, spans, ops, "sim", "reputation", "trust")
	L["trace.ops"] = float64(ops)
	L["trace.overhead_ms_per_op"] = (sum(traced.lat.ms) - sum(ph.lat.ms)) / float64(ops)
	rep.Spans = spans
	zeroLayers(L)
	return rep, nil
}
