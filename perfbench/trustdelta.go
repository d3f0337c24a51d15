package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"gridvo/internal/reputation"
	"gridvo/internal/server"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// trust-delta's timed batches each hold trustBatch ops, of which a
// share trustDeleteShare delete a seeded edge and the rest set a random
// edge's weight.
const (
	trustBatch       = 64
	trustDeleteShare = 0.125
	// trustEncoded is how many timed batches are encoded before the phase,
	// twice what 20 s of the phase sends; a phase that outruns them
	// encodes the rest as it goes.
	trustEncoded = 6000
)

// trustParams configures trust-delta: a sparse Erdős–Rényi trust graph
// of GSPs nodes seeded through chunked deltas, then a stream of delta
// batches of which one in SolveEvery re-solves reputation warm and one
// solving batch in ScoresEvery returns the full vector. The smoke test
// shrinks them.
type trustParams struct {
	GSPs        int
	MeanDegree  float64
	Chunk       int // ops per seeding batch; keeps bodies under the 8 MiB cap
	SolveEvery  int // every SolveEvery-th batch sets "solve": true
	ScoresEvery int // every ScoresEvery-th solving batch sets "include_scores"
	Setups      int // seedings per run; setup_s is their median
}

func defaultTrustParams() trustParams {
	return trustParams{GSPs: 50000, MeanDegree: 16, Chunk: 100000, SolveEvery: 8, ScoresEvery: 8, Setups: 5}
}

// trustSeed is the seeding: the generated graph's edges as chunked delta
// bodies, the last of which asks for the cold solve.
type trustSeed struct {
	edges  []trust.DeltaOp
	reqs   []server.TrustDeltaRequest
	bodies [][]byte
}

func makeTrustSeed(seed uint64, p trustParams) (*trustSeed, error) {
	g := trust.SparseErdosRenyi(xrand.New(seed).Split("trust-graph"), p.GSPs, p.MeanDegree)
	ts := &trustSeed{}
	for _, e := range g.Edges() {
		ts.edges = append(ts.edges, trust.DeltaOp{From: e.From, To: e.To, Weight: e.Weight})
	}
	for lo := 0; lo < len(ts.edges); lo += p.Chunk {
		hi := min(lo+p.Chunk, len(ts.edges))
		req := server.TrustDeltaRequest{N: p.GSPs, Edges: ts.edges[lo:hi], Solve: hi == len(ts.edges)}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		ts.reqs = append(ts.reqs, req)
		ts.bodies = append(ts.bodies, body)
	}
	return ts, nil
}

// trustStream generates the timed batches in a fixed order.
type trustStream struct {
	p     trustParams
	rng   *xrand.RNG
	seed  *trustSeed
	k     int
	solve int
}

func newTrustStream(seed uint64, p trustParams, ts *trustSeed) *trustStream {
	return &trustStream{p: p, rng: xrand.New(seed).Split("trust-stream"), seed: ts}
}

func (s *trustStream) next() server.TrustDeltaRequest {
	req := server.TrustDeltaRequest{Edges: make([]trust.DeltaOp, trustBatch)}
	for i := range req.Edges {
		if s.rng.Bool(trustDeleteShare) {
			e := s.seed.edges[s.rng.IntN(len(s.seed.edges))]
			req.Edges[i] = trust.DeltaOp{From: e.From, To: e.To}
			continue
		}
		from := s.rng.IntN(s.p.GSPs)
		to := s.rng.IntN(s.p.GSPs - 1)
		if to >= from {
			to++
		}
		req.Edges[i] = trust.DeltaOp{From: from, To: to, Weight: 1 - s.rng.Float64()}
	}
	if s.k%s.p.SolveEvery == s.p.SolveEvery-1 {
		req.Solve = true
		req.IncludeScores = s.solve%s.p.ScoresEvery == 0
		s.solve++
	}
	s.k++
	return req
}

// seedService starts a server and applies the seeding — the program-side
// set-up of trust-delta, cold solve included.
func seedService(ts *trustSeed) (*service, time.Duration, error) {
	t0 := time.Now()
	svc, err := startService(server.Config{})
	if err != nil {
		return nil, 0, err
	}
	for i, body := range ts.bodies {
		var r server.TrustDeltaResponse
		status, err := svc.do("POST", "/v1/trust/delta", body, &r)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			svc.stop()
			return nil, 0, fmt.Errorf("seeding batch %d: %w", i, err)
		}
	}
	return svc, time.Since(t0), nil
}

// trustSample is one timed batch as the client saw it. The vector of an
// include_scores reply is kept as a hash of its bits, so the benchmark
// holds little memory of its own while the heap is measured.
type trustSample struct {
	op         int64
	ok         bool
	status     int
	err        string
	start, end time.Time
	stats      trust.StoreStats
	solved     bool
	iterations int
	warm       bool
	scores     string
	durationMS float64
}

func (s *trustSample) latMS() float64 { return msOf(s.end.Sub(s.start)) }

// encodeBatches encodes the stream's next n batches.
func encodeBatches(stream *trustStream, n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		var err error
		if out[i], err = json.Marshal(stream.next()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runTrustPhase sends batches on one connection, closed loop: until
// limit has passed (count == 0), or exactly count batches. It sends the
// stream's batches in order, the encoded ones first.
func runTrustPhase(svc *service, stream *trustStream, encoded [][]byte, limit time.Duration, count int) ([]trustSample, time.Time) {
	var out []trustSample
	start := time.Now()
	for k := 0; (count == 0 && time.Since(start) < limit) || (count > 0 && k < count); k++ {
		s := trustSample{op: int64(k)}
		var body []byte
		var err error
		if k < len(encoded) {
			body = encoded[k]
		} else {
			body, err = json.Marshal(stream.next())
		}
		if err != nil {
			s.err = err.Error()
		} else {
			var r server.TrustDeltaResponse
			s.start = time.Now()
			s.status, s.err = errString(svc.do("POST", "/v1/trust/delta", body, &r))
			s.end = time.Now()
			s.stats, s.solved, s.iterations, s.warm, s.durationMS = r.Stats, r.Solved, r.Iterations, r.Warm, r.DurationMS
			if r.Scores != nil {
				s.scores = bitsHash(r.Scores)
			}
		}
		s.ok = s.status == http.StatusOK && s.err == ""
		out = append(out, s)
	}
	return out, start
}

// bitsHash is a SHA-256 over the bits of xs: equal hashes mean bitwise
// equal vectors.
func bitsHash(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trustMirror replays the seeding and a phase's batches — regenerated
// from the stream's seed — on a mirror trust.Store and checks each reply
// against it: store version and edge count always, iterations and warm
// start of every solve, and the scores of include_scores replies bitwise
// against reputation.Global. With a mirror tracer, the trust, reputation
// and matrix calls become spans.
func trustMirror(rep *report, ts *trustSeed, stream *trustStream, samples []trustSample, m *repMirror) error {
	store := trust.NewStore(0)
	var tr *tracer
	if m != nil {
		tr = m.tr
	}
	solve := func(op int64) (trust.SolveResult, error) {
		res, _, err := store.Resolve(func(g *trust.Graph, warm []float64) (trust.SolveResult, error) {
			opts := reputation.Options{DanglingUniform: true, InitialVector: warm}
			var x []float64
			var d reputation.Diagnostics
			if m != nil && op >= 0 {
				x, d = m.global(g, opts, op)
			} else {
				var err error
				if x, d, err = reputation.Global(g, opts); err != nil {
					return trust.SolveResult{}, err
				}
			}
			return trust.SolveResult{Scores: x, Iterations: d.Iterations, Converged: d.Converged, Warm: d.Warm}, nil
		})
		return res, err
	}
	for _, req := range ts.reqs {
		if _, err := store.ApplyDelta(req.N, req.Edges); err != nil {
			return fmt.Errorf("mirror seeding: %w", err)
		}
		if req.Solve {
			if _, err := solve(-1); err != nil {
				return fmt.Errorf("mirror seeding: %w", err)
			}
		}
	}
	for i := range samples {
		s := &samples[i]
		req := stream.next()
		if !s.ok {
			rep.fail(s.op, "status %d %s", s.status, s.err)
			continue
		}
		id := tr.begin("trust.apply_delta", -1, s.op)
		st, err := store.ApplyDelta(req.N, req.Edges)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("mirror batch %d: %w", s.op, err)
		}
		if st.Version != s.stats.Version || st.Edges != s.stats.Edges {
			rep.fail(s.op, "store version/edges %d/%d, mirror %d/%d", s.stats.Version, s.stats.Edges, st.Version, st.Edges)
		}
		if !req.Solve {
			continue
		}
		res, err := solve(s.op)
		if err != nil {
			return fmt.Errorf("mirror solve %d: %w", s.op, err)
		}
		if !s.solved || res.Iterations != s.iterations || res.Warm != s.warm {
			rep.fail(s.op, "solve iterations/warm %d/%v, mirror %d/%v", s.iterations, s.warm, res.Iterations, res.Warm)
		}
		if req.IncludeScores && bitsHash(res.Scores) != s.scores {
			rep.fail(s.op, "scores differ from reputation.Global on the mirror")
		}
	}
	return nil
}

func runTrust(_ context.Context, o runOpts, p trustParams) (*report, error) {
	rep := newReport("trust-delta")
	rep.Params = map[string]any{
		"gsps": p.GSPs, "mean_degree": p.MeanDegree, "chunk": p.Chunk, "batch": trustBatch,
		"solve_every": p.SolveEvery, "scores_every": p.ScoresEvery, "delete_share": trustDeleteShare,
		"setups": p.Setups, "clients": 1, "loop": "closed",
	}
	ts, err := makeTrustSeed(o.Seed, p)
	if err != nil {
		return nil, err
	}
	rep.Params["seed_edges"] = len(ts.edges)
	svc, setup, err := repeatSetUp(p.Setups, func() (*service, time.Duration, error) { return seedService(ts) })
	if err != nil {
		return nil, err
	}
	rep.E2E["setup_s"] = setup

	limit := o.Seconds
	if o.Trace {
		limit = o.Seconds / 2
	}
	stream := newTrustStream(o.Seed, p, ts)
	encoded, err := encodeBatches(stream, trustEncoded)
	if err != nil {
		return nil, err
	}
	before := readMem()
	samples, start := runTrustPhase(svc, stream, encoded, limit, 0)
	after := readMem()
	encoded = nil
	heap, err := retainedMB(func() error { err := svc.stop(); svc = nil; return err })
	if err != nil {
		return nil, err
	}
	ops := len(samples)
	rep.Attempted += int64(ops)
	var lat latencies
	var ends []time.Time
	shed := 0
	for i := range samples {
		if samples[i].ok {
			ends = append(ends, samples[i].end)
			lat.ms = append(lat.ms, samples[i].latMS())
		}
		if samples[i].status == http.StatusTooManyRequests {
			shed++
		}
	}
	// One block is one cycle of SolveEvery batches: SolveEvery-1
	// write-only, one solving.
	rep.E2E["ops_per_s"] = blockRate(start, ends, p.SolveEvery)
	rep.E2E["op_p50_ms"] = lat.p50()
	rep.tails(&lat)
	allocPerOp(rep.E2E, before, after, ops)
	rep.E2E["live_heap_mb"] = heap
	rep.Notes["certified_frac"] = "n/a: trust deltas run no IP solve"
	rep.Notes["vo_payoff_mean"] = "n/a: trust deltas select no VO"
	if !o.Trace {
		return rep, trustMirror(rep, ts, newTrustStream(o.Seed, p, ts), samples, nil)
	}

	// The traced run: the same batches on a freshly seeded server; the
	// mirror replays them with spans around every layer call.
	if svc, _, err = seedService(ts); err != nil {
		return nil, err
	}
	stream = newTrustStream(o.Seed, p, ts)
	if encoded, err = encodeBatches(stream, ops); err != nil {
		return nil, err
	}
	traced, _ := runTrustPhase(svc, stream, encoded, 0, ops)
	if err := svc.stop(); err != nil {
		return nil, err
	}
	rep.Attempted += int64(len(traced))
	for i := range traced {
		t, u := &traced[i], &samples[i]
		t.op += int64(ops)
		if t.ok && u.ok && (t.stats != u.stats || t.iterations != u.iterations || t.scores != u.scores) {
			rep.fail(t.op, "traced reply differs from the untraced reply of the same batch")
		}
		if t.status == http.StatusTooManyRequests {
			shed++
		}
	}
	tr := newTracer()
	mirror := &repMirror{tr: tr}
	if err := trustMirror(rep, ts, newTrustStream(o.Seed, p, ts), traced, mirror); err != nil {
		return nil, err
	}
	var handler, overhead, latSum, base []float64
	for i := range traced {
		s := &traced[i]
		if !s.ok || !samples[i].ok {
			continue
		}
		latSum = append(latSum, s.latMS())
		base = append(base, samples[i].latMS())
		handler = append(handler, s.durationMS)
		overhead = append(overhead, s.latMS()-s.durationMS)
		root := tr.add("http.request", -1, s.op, s.start, s.end)
		tr.add("server.trust", root, s.op, s.end.Add(-msDuration(s.durationMS)), s.end)
	}
	spans := tr.snapshot()
	L := rep.Layers
	mirror.fill(L, spans)
	L["trust.apply_delta_ms"] = median(spanDurations(spans, "trust.apply_delta"))
	L["server.trust.handler_ms_p50"] = median(handler)
	L["server.trust.overhead_ms_p50"] = median(overhead)
	L["server.shed_frac"] = ratio(float64(shed), float64(2*ops))
	selfPerOp(L, spans, ops, "reputation", "trust", "server", "http")
	L["trace.ops"] = float64(ops)
	L["trace.overhead_ms_per_op"] = ratio(sum(latSum)-sum(base), float64(len(latSum)))
	rep.Spans = spans
	zeroLayers(L)
	return rep, nil
}
