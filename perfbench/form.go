package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gridvo"
	"gridvo/internal/mechanism"
	"gridvo/internal/server"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// form-service requests formSpecs' specs with Zipf popularity in a fixed
// sequence; one in formLargeEvery specs is formLarge, the rest formSmall.
const (
	// formCatalogSeed generates the specs; the run seed draws the request
	// sequence. A few specs make the power iteration run to its 10000-step
	// cap on every request, cached or not, and cost 1–25 ms each time;
	// drawn per run seed, they moved throughput 4× between seeds
	// depending on how popular they landed.
	formCatalogSeed = 42
	formLargeEvery  = 4
	formZipf        = 1.0     // popularity exponent over the specs
	formJobShare    = 0.25    // share of ops sent through /v1/jobs
	formSequenceLen = 1 << 16 // length of the fixed request sequence
	formLongPoll    = "10s"   // ?wait= budget of one job poll
	// formEngineCache sizes the server's engine LRU to hold every spec. At
	// the default 64 the run is dominated by re-solving the few specs
	// whose cold B&B takes 100–200 ms each time they are evicted, and
	// which specs those are changes with the seed: throughput then varied
	// 1.8× between seeds.
	formEngineCache = 256
	// formJobTTL keeps finished jobs pollable for this long. Every client
	// polls its job to the end at once, so a short TTL leaves the live
	// heap to the engine caches instead of a registry that grows with
	// the run's throughput under the 5-minute default.
	formJobTTL = time.Second
	// formRateBlock is the block size of ops_per_s (see blockRate), about
	// a quarter second of ops.
	formRateBlock = 1000
)

// formSmall and formLarge are the spec shapes, GSPs × tasks.
var formSmall, formLarge = [2]int{6, 16}, [2]int{10, 32}

// formParams are the catalog size and how often a run sets up; the smoke
// test shrinks them.
type formParams struct {
	Specs  int
	Setups int // server starts per run; setup_s is their median
}

func defaultFormParams() formParams {
	return formParams{Specs: 200, Setups: 5}
}

// formSpec is one distinct scenario with the request seed it is always
// sent with, so that repeats hit the server's engine cache.
type formSpec struct {
	spec *mechanism.ScenarioSpec
	seed uint64
	body []byte
}

// formSpecs builds the specs the way loadgen's mix does: an Erdős–Rényi
// trust graph with p = 0.5 in which everyone is trusted, speeds in
// [120, 500] GFLOPS, workloads in [20000, 40000] and loadgen's deadline
// and payment.
func formSpecs(p formParams) ([]formSpec, error) {
	root := xrand.New(formCatalogSeed).Split("form-specs")
	out := make([]formSpec, p.Specs)
	for i := range out {
		rng := root.SplitN("spec", i)
		m, n := formSmall[0], formSmall[1]
		if i%formLargeEvery == formLargeEvery-1 {
			m, n = formLarge[0], formLarge[1]
		}
		tg := trust.ErdosRenyi(rng.Split("trust"), m, 0.5)
		trust.EnsureEveryNodeTrusted(rng.Split("fix"), tg)
		sp := &mechanism.ScenarioSpec{
			GSPs:     make([]mechanism.GSPSpec, m),
			Tasks:    make([]float64, n),
			Deadline: 4000,
			Payment:  8000 * float64(n) / 12,
			Trust:    tg,
		}
		for g := range sp.GSPs {
			sp.GSPs[g] = mechanism.GSPSpec{Name: fmt.Sprintf("g%d-%d", i, g), SpeedGFLOPS: rng.Uniform(120, 500)}
		}
		for t := range sp.Tasks {
			sp.Tasks[t] = rng.Uniform(20000, 40000)
		}
		reqSeed := rng.Uint64() >> 11
		body, err := json.Marshal(server.FormRequest{Scenario: *sp, Seed: reqSeed})
		if err != nil {
			return nil, err
		}
		out[i] = formSpec{spec: sp, seed: reqSeed, body: body}
	}
	return out, nil
}

// formOp is one entry of the request sequence.
type formOp struct {
	spec int
	job  bool
}

func formSequence(seed uint64, p formParams) []formOp {
	rng := xrand.New(seed).Split("form-sequence")
	// Spec i has popularity rank i+1, so every seed puts the same shapes
	// at the same ranks: with a seeded rank order, whether the few most
	// popular specs were large moved throughput 2× between seeds.
	zipf := xrand.NewZipf(rng.Split("popularity"), p.Specs, formZipf)
	kind := rng.Split("kind")
	seq := make([]formOp, formSequenceLen)
	for i := range seq {
		seq[i] = formOp{spec: zipf.Next() - 1, job: kind.Bool(formJobShare)}
	}
	return seq
}

// formSample is one op as the client saw it.
type formSample struct {
	op               int64
	spec             int
	job, ok, deduped bool
	status           int
	err              string
	start, end       time.Time
	handlerMS        float64 // sync: reply duration_ms
	queueMS, runMS   float64 // jobs: terminal status
	fingerprint      uint64
	engine           server.EngineStatsJSON
}

func (s *formSample) latMS() float64 { return msOf(s.end.Sub(s.start)) }

// fingerprint is an FNV-1a hash over the bits of a reply's selection;
// timings and engine counters, which differ between cache misses and
// hits, are left out. It allocates nothing, so taking it adds no
// allocation to the timed phase.
func fingerprint(r *server.FormResponse) uint64 {
	h := fnvHash(14695981039346656037)
	h.str(r.Rule)
	h.bool(r.Feasible)
	h.ints(r.Members)
	h.word(uint64(len(r.MemberNames)))
	for _, name := range r.MemberNames {
		h.str(name)
	}
	for _, x := range [...]float64{r.Payoff, r.Value, r.Cost, r.AvgReputation} {
		h.word(math.Float64bits(x))
	}
	h.ints(r.Assignment)
	h.word(uint64(len(r.GlobalReputation)))
	for _, x := range r.GlobalReputation {
		h.word(math.Float64bits(x))
	}
	h.bool(r.Partial)
	h.bool(r.Degraded)
	return uint64(h)
}

// fnvHash is a running 64-bit FNV-1a hash.
type fnvHash uint64

func (h *fnvHash) byte(b byte) { *h = (*h ^ fnvHash(b)) * 1099511628211 }

func (h *fnvHash) word(x uint64) {
	for i := 0; i < 64; i += 8 {
		h.byte(byte(x >> i))
	}
}

func (h *fnvHash) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fnvHash) ints(xs []int) {
	h.word(uint64(len(xs)))
	for _, x := range xs {
		h.word(uint64(x))
	}
}

func (h *fnvHash) bool(b bool) {
	if b {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

// doFormOp sends one op: a POST /v1/vo/form, or a POST /v1/jobs followed
// by long-polls until the job is terminal.
func doFormOp(svc *service, sp formSpec, op formOp) formSample {
	s := formSample{spec: op.spec, job: op.job, start: time.Now()}
	var resp *server.FormResponse
	if !op.job {
		var fr server.FormResponse
		s.status, s.err = errString(svc.do("POST", "/v1/vo/form", sp.body, &fr))
		s.end = time.Now()
		if s.status == http.StatusOK && s.err == "" {
			resp, s.handlerMS = &fr, fr.DurationMS
		}
	} else {
		var sub server.JobSubmitResponse
		s.status, s.err = errString(svc.do("POST", "/v1/jobs", sp.body, &sub))
		for s.status == http.StatusAccepted && s.err == "" {
			var st server.JobStatusResponse
			s.status, s.err = errString(svc.do("GET", "/v1/jobs/"+sub.ID+"?wait="+formLongPoll, nil, &st))
			if s.status != http.StatusOK || s.err != "" {
				break
			}
			if st.State == string(server.JobQueued) || st.State == string(server.JobRunning) {
				s.status = http.StatusAccepted
				continue
			}
			if st.State == string(server.JobFailed) || st.Result == nil {
				s.err = "job " + sub.ID + " ended " + st.State + ": " + st.Error
				break
			}
			resp, s.queueMS, s.runMS, s.deduped = st.Result, st.QueueMS, st.RunMS, st.Deduped
		}
		s.end = time.Now()
	}
	if resp != nil {
		s.ok = true
		s.fingerprint = fingerprint(resp)
		s.engine = resp.Engine
	}
	return s
}

func errString(status int, err error) (int, string) {
	if err != nil {
		return status, err.Error()
	}
	return status, ""
}

// runFormPhase runs the sequence from its start on maxConns closed-loop
// clients: until limit has passed (count == 0), or for exactly count ops.
// The ops taken always form a prefix of the sequence.
func runFormPhase(svc *service, specs []formSpec, seq []formOp, limit time.Duration, count int64) ([]formSample, time.Time) {
	var next atomic.Int64
	var wg sync.WaitGroup
	per := make([][]formSample, maxConns)
	start := time.Now()
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if count == 0 && time.Since(start) >= limit {
					return
				}
				k := next.Add(1) - 1
				if count > 0 && k >= count {
					return
				}
				op := seq[k%int64(len(seq))]
				s := doFormOp(svc, specs[op.spec], op)
				s.op = k
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	n := 0
	for _, ps := range per {
		n += len(ps)
	}
	out := make([]formSample, n)
	for _, ps := range per {
		for _, s := range ps {
			out[s.op] = s
		}
	}
	return out, start
}

// checkForm marks failed ops: transport errors and non-2xx replies, and
// replies whose selection differs from want, gridvo.FormVOEngine's on
// the same spec and seed. Job results are held to the same selections as
// sync replies.
func checkForm(rep *report, samples []formSample, want []uint64) {
	for i := range samples {
		s := &samples[i]
		switch {
		case !s.ok:
			rep.fail(s.op, "spec %d job=%v: status %d %s", s.spec, s.job, s.status, s.err)
		case s.fingerprint != want[s.spec]:
			rep.fail(s.op, "spec %d job=%v: reply differs from gridvo.FormVOEngine", s.spec, s.job)
		}
	}
}

// expectedSelection is the selection of gridvo.FormVOEngine on a fresh
// engine, packaged the way the server packages a run, with the run's
// iteration count and payoff. setSolver installs a solver on the engine.
func expectedSelection(ctx context.Context, sp formSpec, setSolver func(*mechanism.Engine)) (uint64, int, float64, error) {
	sc, err := sp.spec.Build(sp.seed)
	if err != nil {
		return 0, 0, 0, err
	}
	eng := gridvo.NewEngine(sc)
	setSolver(eng)
	res, err := gridvo.FormVOEngine(ctx, eng, gridvo.TVOF, sp.seed)
	if err != nil {
		return 0, 0, 0, err
	}
	r := &server.FormResponse{Rule: res.Rule.String(), GlobalReputation: res.GlobalReputation, Degraded: res.Degraded}
	if f := res.Final(); f != nil {
		r.Feasible, r.Members = true, f.Members
		for _, g := range f.Members {
			r.MemberNames = append(r.MemberNames, sc.GSPs[g].Name)
		}
		r.Payoff, r.Value, r.Cost, r.AvgReputation = f.Payoff, f.Value, f.Cost, f.AvgReputation
		for _, local := range f.Assignment {
			r.Assignment = append(r.Assignment, f.Members[local])
		}
	}
	return fingerprint(r), len(res.Iterations), r.Payoff, nil
}

// formDelta is the change of the server counters over a phase.
type formDelta struct {
	hits, misses, deduped, shed int64
}

func counters(m server.MetricsSnapshot) formDelta {
	return formDelta{
		hits: m.EngineCache.Hits, misses: m.EngineCache.Misses,
		deduped: m.Jobs.Deduped, shed: m.ShedTotal,
	}
}

func (a formDelta) sub(b formDelta) formDelta {
	return formDelta{a.hits - b.hits, a.misses - b.misses, a.deduped - b.deduped, a.shed - b.shed}
}

// formRun is one measured phase on its own server.
type formRun struct {
	samples       []formSample
	start         time.Time
	delta         formDelta
	before, after memSnap
	heapMB        float64
}

// fillService starts a server and sends every spec once through
// POST /v1/vo/form, filling the engine cache with each spec's cold B&B
// solves — the program-side set-up of form-service. The timed phase then
// measures the steady state of a warm service.
func fillService(cfg server.Config, specs []formSpec) (*service, time.Duration, error) {
	t0 := time.Now()
	svc, err := startService(cfg)
	if err != nil {
		return nil, 0, err
	}
	for i, sp := range specs {
		status, err := svc.do("POST", "/v1/vo/form", sp.body, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			svc.stop()
			return nil, 0, fmt.Errorf("filling spec %d: %w", i, err)
		}
	}
	return svc, time.Since(t0), nil
}

// measureForm runs one phase on the server *svcp and stops it, reading
// the server's counters before and after and its retained heap at the
// end. It takes the server over: *svcp is nil on return.
func measureForm(svcp **service, cfg server.Config, specs []formSpec, seq []formOp, limit time.Duration, count int64) (*formRun, error) {
	svc := *svcp
	*svcp = nil
	defer func() {
		if svc != nil {
			svc.stop()
		}
	}()
	m0, err := svc.metrics()
	if err != nil {
		return nil, err
	}
	r := &formRun{before: readMem()}
	r.samples, r.start = runFormPhase(svc, specs, seq, limit, count)
	r.after = readMem()
	m1, err := svc.metrics()
	if err != nil {
		return nil, err
	}
	r.delta = counters(m1).sub(counters(m0))
	// Let the finished jobs outlive their TTL, then submit one more so the
	// registry drops them: the heap then holds the engine caches, not a
	// registry that grows with the run's throughput.
	time.Sleep(cfg.JobTTL)
	if s := doFormOp(svc, specs[0], formOp{job: true}); !s.ok {
		return nil, fmt.Errorf("registry-draining job: status %d %s", s.status, s.err)
	}
	r.heapMB, err = retainedMB(func() error { err := svc.stop(); svc = nil; return err })
	return r, err
}

func runForm(ctx context.Context, o runOpts, p formParams) (*report, error) {
	rep := newReport("form-service")
	rep.Params = map[string]any{
		"catalog_seed": formCatalogSeed, "specs": p.Specs, "small": fmt.Sprintf("%dx%d", formSmall[0], formSmall[1]),
		"large": fmt.Sprintf("%dx%d every %d", formLarge[0], formLarge[1], formLargeEvery),
		"zipf":  formZipf, "job_share": formJobShare, "clients": maxConns, "loop": "closed",
		"long_poll": formLongPoll, "setups": p.Setups, "engine_cache": formEngineCache, "job_ttl": formJobTTL.String(),
	}
	specs, err := formSpecs(p)
	if err != nil {
		return nil, err
	}
	seq := formSequence(o.Seed, p)
	cfg := server.Config{EngineCacheSize: formEngineCache, JobTTL: formJobTTL}

	svc, setup, err := repeatSetUp(p.Setups, func() (*service, time.Duration, error) { return fillService(cfg, specs) })
	if err != nil {
		return nil, err
	}
	rep.E2E["setup_s"] = setup

	limit := o.Seconds
	if o.Trace {
		limit = o.Seconds / 2
	}
	run, err := measureForm(&svc, cfg, specs, seq, limit, 0)
	if err != nil {
		return nil, err
	}
	ops := len(run.samples)
	rep.Attempted += int64(ops)
	var lat latencies
	var ends []time.Time
	for i := range run.samples {
		if run.samples[i].ok {
			ends = append(ends, run.samples[i].end)
			lat.ms = append(lat.ms, run.samples[i].latMS())
		}
	}
	rep.E2E["ops_per_s"] = blockRate(run.start, ends, formRateBlock)
	rep.E2E["op_p50_ms"] = lat.p50()
	rep.tails(&lat)
	allocPerOp(rep.E2E, run.before, run.after, ops)
	rep.E2E["live_heap_mb"] = run.heapMB

	// The expected selections: gridvo.FormVOEngine on a fresh engine per
	// spec, the server's cache-fill path. In the traced run the same calls
	// carry the mechanism and assign spans, and their cold solves give
	// certified_frac (the timed phase is all cache hits).
	tr := newTracer()
	ts := &timedSolver{tr: tr}
	var buildMS []float64
	iterations := 0
	want := make([]uint64, p.Specs)
	payoffs := make([]float64, p.Specs)
	for i, sp := range specs {
		t0 := time.Now()
		if _, err := sp.spec.Build(sp.seed); err != nil {
			return nil, err
		}
		buildMS = append(buildMS, msOf(time.Since(t0)))
		// Mirror ops are numbered after both phases' ops.
		op := int64(2*ops + i)
		id := tr.begin("mechanism.run", -1, op)
		ts.parent, ts.op = id, op
		fp, iters, payoff, err := expectedSelection(ctx, sp, func(e *mechanism.Engine) { e.SetSolver(ts) })
		tr.end(id)
		if err != nil {
			return nil, err
		}
		want[i], payoffs[i] = fp, payoff
		iterations += iters
	}
	certified := 0
	for _, s := range ts.solves {
		if s.optimal {
			certified++
		}
	}
	rep.E2E["certified_frac"] = ratio(float64(certified), float64(len(ts.solves)))
	rep.E2E["vo_payoff_mean"] = ratio(sum(payoffs), float64(len(payoffs)))
	checkForm(rep, run.samples, want)
	if !o.Trace {
		return rep, nil
	}

	// The traced run: the same ops on a freshly filled server, with the
	// server-side intervals each reply reports recorded as spans inside
	// the client's.
	if svc, _, err = fillService(cfg, specs); err != nil {
		return nil, err
	}
	traced, err := measureForm(&svc, cfg, specs, seq, 0, int64(ops))
	if err != nil {
		return nil, err
	}
	rep.Attempted += int64(len(traced.samples))
	for i := range traced.samples {
		traced.samples[i].op += int64(ops)
	}
	checkForm(rep, traced.samples, want)
	L := rep.Layers
	assignLayer(L, ts.solves, len(specs))
	L["mechanism.iterations"] = ratio(float64(iterations), float64(len(specs)))
	L["mechanism.spec_build_ms"] = median(buildMS)
	formLayers(rep, tr, traced, run)
	return rep, nil
}

// formLayers fills the per-layer metrics of the traced form-service run
// that come from the replies, the server's counters and the spans.
func formLayers(rep *report, tr *tracer, traced, untraced *formRun) {
	L := rep.Layers
	var handler, overhead, queue, runMS, jobOverhead, latSum, base []float64
	var eng server.EngineStatsJSON
	runs := 0
	for i := range traced.samples {
		s := &traced.samples[i]
		if !s.ok || !untraced.samples[i].ok {
			continue
		}
		latSum = append(latSum, s.latMS())
		base = append(base, untraced.samples[i].latMS())
		root := tr.add("http.request", -1, s.op, s.start, s.end)
		var inner int
		if s.job {
			queue = append(queue, s.queueMS)
			runMS = append(runMS, s.runMS)
			jobOverhead = append(jobOverhead, s.latMS()-s.queueMS-s.runMS)
			runStart := s.end.Add(-msDuration(s.runMS))
			tr.add("server.jobs.queue", root, s.op, runStart.Add(-msDuration(s.queueMS)), runStart)
			inner = tr.add("server.jobs.run", root, s.op, runStart, s.end)
		} else {
			handler = append(handler, s.handlerMS)
			overhead = append(overhead, s.latMS()-s.handlerMS)
			inner = tr.add("server.form", root, s.op, s.end.Add(-msDuration(s.handlerMS)), s.end)
		}
		if s.deduped {
			continue
		}
		e := s.engine
		tr.add("assign.solve", inner, s.op, s.end.Add(-msDuration(e.SolverMS)), s.end)
		runs++
		eng.Solves += e.Solves
		eng.CacheHits += e.CacheHits
		eng.WarmStarts += e.WarmStarts
		eng.SeedAccepted += e.SeedAccepted
		eng.PowerIterations += e.PowerIterations
	}
	ops := len(traced.samples)
	L["mechanism.coalition_hit_rate"] = ratio(float64(eng.CacheHits), float64(eng.Solves+eng.CacheHits))
	L["mechanism.warm_start_rate"] = ratio(float64(eng.SeedAccepted), float64(eng.WarmStarts))
	L["mechanism.power_iterations"] = ratio(float64(eng.PowerIterations), float64(runs))
	d := traced.delta
	L["mechanism.engine_cache_hit_rate"] = ratio(float64(d.hits), float64(d.hits+d.misses))
	L["mechanism.engine_cache_hits"] = float64(d.hits)
	L["mechanism.engine_cache_misses"] = float64(d.misses)
	L["mechanism.vo_payoff_mean"] = rep.E2E["vo_payoff_mean"]
	spans := tr.snapshot()
	self := selfTimes(spans)
	mirrorRuns := float64(len(spanDurations(spans, "mechanism.run")))
	L["mechanism.run_ms"] = ratio(sum(spanDurations(spans, "mechanism.run")), mirrorRuns)
	L["mechanism.self_ms"] = ratio(self["mechanism"], mirrorRuns)
	L["server.form.handler_ms_p50"] = median(handler)
	L["server.form.overhead_ms_p50"] = median(overhead)
	L["server.jobs.queue_ms_p50"] = median(queue)
	L["server.jobs.run_ms_p50"] = median(runMS)
	L["server.jobs.overhead_ms_p50"] = median(jobOverhead)
	L["server.shed_frac"] = ratio(float64(d.shed), float64(ops))
	L["server.jobs_deduped"] = float64(d.deduped)
	L["server.self_ms"] = ratio(self["server"], float64(ops))
	L["http.self_ms"] = ratio(self["http"], float64(ops))
	L["trace.ops"] = float64(ops)
	L["trace.overhead_ms_per_op"] = ratio(sum(latSum)-sum(base), float64(len(latSum)))
	rep.Spans = spans
	zeroLayers(L)
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }
