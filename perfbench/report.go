package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"gridvo/internal/assign"
	"gridvo/internal/matrix"
	"gridvo/internal/reputation"
	"gridvo/internal/trust"
)

// runOpts are the command-line arguments, shared by every workload.
type runOpts struct {
	Seed    uint64
	Seconds time.Duration
	Trace   bool
}

// report is everything one run measured. E2E and Layers hold the values
// the final JSON line draws from; Notes explain report-only metrics that
// are undefined on this run.
type report struct {
	Workload  string
	Params    map[string]any
	Attempted int64
	failedOps map[int64]bool
	Failures  []string
	E2E       map[string]float64
	Notes     map[string]string
	Layers    map[string]float64
	Spans     []span
}

func newReport(workload string) *report {
	return &report{
		Workload:  workload,
		Params:    map[string]any{},
		failedOps: map[int64]bool{},
		E2E:       map[string]float64{},
		Notes:     map[string]string{},
		Layers:    map[string]float64{},
	}
}

// maxFailureMessages bounds the messages kept; every failed op still
// counts.
const maxFailureMessages = 20

// fail marks op as failed and keeps the first messages.
func (r *report) fail(op int64, format string, args ...any) {
	r.failedOps[op] = true
	if len(r.Failures) < maxFailureMessages {
		r.Failures = append(r.Failures, fmt.Sprintf("op %d: ", op)+fmt.Sprintf(format, args...))
	}
}

// tails records the report-only tail latencies with their bases:
// op_p99_ms where at least ten samples lie beyond the 99th percentile,
// and op_tail_ms at the highest percentile that has ten beyond it.
func (r *report) tails(l *latencies) {
	n := len(l.ms)
	if v, ok := l.p99(); ok {
		r.E2E["op_p99_ms"] = v
		r.Notes["op_p99_ms"] = fmt.Sprintf("of %d ops", n)
	} else {
		r.Notes["op_p99_ms"] = fmt.Sprintf("n/a: %d ops, a p99 needs 1000", n)
	}
	if v, p, ok := l.tail(); ok {
		r.E2E["op_tail_ms"] = v
		r.Notes["op_tail_ms"] = fmt.Sprintf("p%v of %d ops", p, n)
	} else {
		r.Notes["op_tail_ms"] = fmt.Sprintf("n/a: %d ops, a tail needs 20", n)
	}
}

// Failed is the number of distinct ops with at least one failure.
func (r *report) Failed() int64 { return int64(len(r.failedOps)) }

// envStamp identifies the machine, toolchain and source a result came
// from.
func envStamp() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"git_commit":  rev,
		"source_hash": sourceHash("."),
	}
}

// sourceHash fingerprints the Go sources and module files under root, so
// a result from a checkout without git history still names the code it
// measured. Hidden directories (build outputs) are skipped.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// memSnap holds the cumulative allocation counters.
type memSnap struct {
	totalAlloc, mallocs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// allocPerOp sets allocs_per_op and alloc_mb_per_op from the counters
// before and after a phase of ops ops.
func allocPerOp(e2e map[string]float64, before, after memSnap, ops int) {
	e2e["allocs_per_op"] = ratio(float64(after.mallocs-before.mallocs), float64(ops))
	e2e["alloc_mb_per_op"] = ratio(float64(after.totalAlloc-before.totalAlloc)/(1<<20), float64(ops))
}

// heapMB collects garbage and returns the live heap in MB. The second
// collection empties the sync.Pool victim caches the first one fills, so
// pooled scratch, which the runtime drains anyway, is not counted.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// retainedMB is the live heap the program holds at the end of a timed
// phase: the heap after garbage collection, less the heap once release
// has dropped the program's state (the server, or the sweep's scenarios),
// so the benchmark's own bookkeeping is not counted.
func retainedMB(release func() error) (float64, error) {
	with := heapMB()
	if err := release(); err != nil {
		return 0, err
	}
	return with - heapMB(), nil
}

// solveRecord is one IP solve seen by timedSolver.
type solveRecord struct {
	ms        float64
	nodes     int64
	optimal   bool
	budgetHit bool
	gap       float64
	seeded    bool
	seedOK    bool
}

// timedSolver wraps assign.SolveCtx, recording an assign.solve span under
// the current parent and the solve's counts.
type timedSolver struct {
	tr     *tracer
	parent int
	op     int64
	solves []solveRecord
}

func (s *timedSolver) SolveCtx(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
	start := time.Now()
	sol := assign.SolveCtx(ctx, in, opts)
	end := time.Now()
	s.tr.add("assign.solve", s.parent, s.op, start, end)
	s.solves = append(s.solves, solveRecord{
		ms:        msOf(end.Sub(start)),
		nodes:     sol.Nodes,
		optimal:   sol.Optimal,
		budgetHit: sol.NodeBudgetHit,
		gap:       sol.Gap(),
		seeded:    opts.SeedAssign != nil,
		seedOK:    sol.Stats.SeedAccepted > 0,
	})
	return sol
}

// assignLayer fills the assign.* metrics from recorded solves; runs, the
// number of mechanism runs, is the base of the busy time.
func assignLayer(layers map[string]float64, solves []solveRecord, runs int) {
	var ms []float64
	var nodes int64
	certified, budgetHit, seeded, seedOK := 0, 0, 0, 0
	gapMax := 0.0
	for _, s := range solves {
		ms = append(ms, s.ms)
		nodes += s.nodes
		if s.optimal {
			certified++
		}
		if s.budgetHit {
			budgetHit++
		}
		if s.seeded {
			seeded++
			if s.seedOK {
				seedOK++
			}
		}
		if s.gap > gapMax {
			gapMax = s.gap
		}
	}
	n := float64(len(solves))
	layers["assign.solves"] = n
	layers["assign.nodes"] = float64(nodes)
	layers["assign.busy_ms"] = ratio(sum(ms), float64(runs))
	layers["assign.solve_ms_p50"] = median(ms)
	layers["assign.ns_per_node"] = ratio(sum(ms)*1e6, float64(nodes))
	layers["assign.certified_frac"] = ratio(float64(certified), n)
	layers["assign.budget_hit_frac"] = ratio(float64(budgetHit), n)
	layers["assign.gap_max"] = gapMax
	layers["assign.seed_accepted_frac"] = ratio(float64(seedOK), float64(seeded))
}

// timedMatrix records a matrix.tmulvec span around every Aᵀx product —
// the power iteration's kernel — and delegates everything else.
type timedMatrix struct {
	matrix.Matrix
	tr     *tracer
	parent int
	op     int64
	calls  *int
}

func (m timedMatrix) TMulVec(x []float64) []float64 {
	id := m.tr.begin("matrix.tmulvec", m.parent, m.op)
	y := m.Matrix.TMulVec(x)
	m.tr.end(id)
	*m.calls++
	return y
}

// repMirror re-runs reputation solves outside the program, through the
// public trust, matrix and reputation functions reputation.Global
// composes, so each of those layers gets its own spans.
type repMirror struct {
	tr         *tracer
	solves     int
	warm       int
	iterations int
	tmulvec    int
	edges      []float64
	nnz, n     int
}

// global is reputation.Global(g, opts) split at its layer boundaries:
// trust normalization, then the power iteration over a timed matrix.
func (m *repMirror) global(g *trust.Graph, opts reputation.Options, op int64) ([]float64, reputation.Diagnostics) {
	root := m.tr.begin("reputation.global", -1, op)
	nid := m.tr.begin("trust.normalize", root, op)
	a, _ := g.Normalized(trust.NormalizeOptions{DanglingUniform: opts.DanglingUniform})
	m.tr.end(nid)
	x, diag := reputation.PowerIterate(timedMatrix{Matrix: a, tr: m.tr, parent: root, op: op, calls: &m.tmulvec}, opts)
	m.tr.end(root)
	m.solves++
	if diag.Warm {
		m.warm++
	}
	m.iterations += diag.Iterations
	m.edges = append(m.edges, float64(g.NumEdges()))
	m.nnz, m.n = a.NNZ(), a.Rows()
	return x, diag
}

// fill writes the reputation.*, trust.normalize_ms and matrix.* metrics.
// bytes_per_iteration is computed, not measured: one CSR Aᵀx reads the
// values and column indices (16 B per nonzero), the row pointers and x
// (8 B per row each), and reads and writes the scattered y (16 B per
// row).
func (m *repMirror) fill(layers map[string]float64, spans []span) {
	global := spanDurations(spans, "reputation.global")
	tm := spanDurations(spans, "matrix.tmulvec")
	layers["reputation.global_ms"] = median(global)
	layers["reputation.solves"] = float64(m.solves)
	layers["reputation.iterations"] = ratio(float64(m.iterations), float64(m.solves))
	layers["reputation.ms_per_iteration"] = ratio(sum(global), float64(m.iterations))
	layers["reputation.warm_frac"] = ratio(float64(m.warm), float64(m.solves))
	layers["trust.normalize_ms"] = median(spanDurations(spans, "trust.normalize"))
	layers["trust.edges"] = median(m.edges)
	layers["matrix.tmulvec_ms"] = median(tm)
	layers["matrix.tmulvec_calls"] = float64(m.tmulvec)
	layers["matrix.bytes_per_iteration"] = float64(16*m.nnz + 32*m.n + 8)
}

// selfPerOp divides each layer's span self time by ops.
func selfPerOp(layers map[string]float64, spans []span, ops int, names ...string) {
	self := selfTimes(spans)
	for _, l := range names {
		layers[l+".self_ms"] = ratio(self[l], float64(ops))
	}
}

// zeroLayers sets every per-layer metric the workload did not measure to
// 0: the layer is not called on this workload.
func zeroLayers(layers map[string]float64) {
	for _, d := range perLayer {
		if _, ok := layers[d.Name]; !ok {
			layers[d.Name] = 0
		}
	}
}

// sameBits reports whether two float slices are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
