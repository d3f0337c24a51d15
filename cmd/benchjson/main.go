// Command benchjson runs a reduced experiment sweep twice — warm-start
// pipeline on (default) and off (-no-warm-start forced) — and writes a
// machine-readable before/after comparison to a JSON file. It backs the
// perf notes in EXPERIMENTS.md: wall time, B&B node counts, warm-start
// acceptance, and power-method iterations saved, plus a per-point identity
// check that both configurations select the same VOs.
//
// With -baseline it instead compares the current tree against a prior
// report: the baseline's warm side plays the "before" role (no cold
// sweep is run), speedup becomes prior wall time / current wall time,
// and the selection check demands the same VOs at every point — the
// regression guard that a change which should not alter
// injection-disabled behavior in fact did not.
//
// Usage:
//
//	benchjson                          # writes BENCH_PR3.json
//	benchjson -out bench.json -sizes 256,1024 -reps 3 -seed 42
//	benchjson -baseline BENCH_PR3.json -out BENCH_PR4.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"gridvo/internal/adversary"
	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
	"gridvo/internal/server"
	"gridvo/internal/sim"
	"gridvo/internal/workload/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// pointJSON summarizes one program size of one sweep.
type pointJSON struct {
	Size       int       `json:"size"`
	TVOFPayoff []float64 `json:"tvof_payoff"`
	TVOFSize   []float64 `json:"tvof_size"`
	TVOFRep    []float64 `json:"tvof_rep"`
	// TVOFSec / RVOFSec are per-repetition mechanism wall times (the
	// Fig. 9 metric) — the per-size before/after comparison.
	TVOFSec []float64 `json:"tvof_sec"`
	RVOFSec []float64 `json:"rvof_sec"`
}

// sideJSON is one sweep (warm or cold) of the comparison.
type sideJSON struct {
	Seconds  float64     `json:"seconds"`
	NsPerRun float64     `json:"ns_per_run"`
	Runs     int         `json:"runs"`
	Stats    statsJSON   `json:"engine_stats"`
	Points   []pointJSON `json:"points"`
}

// statsJSON flattens mechanism.EngineStats with explicit units.
type statsJSON struct {
	Solves               int64   `json:"solves"`
	CacheHits            int64   `json:"cache_hits"`
	WarmStarts           int64   `json:"warm_starts"`
	SeedAccepted         int64   `json:"seed_accepted"`
	SeedWins             int64   `json:"seed_wins"`
	WarmStartRate        float64 `json:"warm_start_rate"`
	Nodes                int64   `json:"nodes"`
	PrunedBySymmetry     int64   `json:"pruned_by_symmetry"`
	PrunedByDominance    int64   `json:"pruned_by_dominance"`
	SolverMS             float64 `json:"solver_ms"`
	PowerIterations      int64   `json:"power_iterations"`
	PowerIterationsSaved int64   `json:"power_iterations_saved"`
}

func toStatsJSON(s mechanism.EngineStats) statsJSON {
	return statsJSON{
		Solves:               s.Solves,
		CacheHits:            s.CacheHits,
		WarmStarts:           s.WarmStarts,
		SeedAccepted:         s.SeedAccepted,
		SeedWins:             s.SeedWins,
		WarmStartRate:        s.WarmStartRate(),
		Nodes:                s.Nodes,
		PrunedBySymmetry:     s.PrunedBySymmetry,
		PrunedByDominance:    s.PrunedByDominance,
		SolverMS:             float64(s.WallTime) / float64(time.Millisecond),
		PowerIterations:      s.PowerIterations,
		PowerIterationsSaved: s.PowerIterationsSaved,
	}
}

// envJSON records the build/runtime environment a report was measured
// under, so the perf trajectory across BENCH_*.json artifacts stays
// comparable between machines. Reports written before PR 8 lack the
// block; consumers (including -baseline mode) tolerate its absence.
type envJSON struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func currentEnv() *envJSON {
	return &envJSON{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// reportJSON is the document written to -out.
type reportJSON struct {
	Tool  string   `json:"tool"`
	Seed  uint64   `json:"seed"`
	Sizes []int    `json:"sizes"`
	Reps  int      `json:"reps"`
	Env   *envJSON `json:"env,omitempty"`
	// Baseline, when set, names the prior report whose warm side was
	// used as the Cold comparison side instead of running a
	// no-warm-start sweep; Speedup is then the prior wall time over the
	// current one.
	Baseline string `json:"baseline,omitempty"`
	// Warm is the default pipeline, Cold the same sweep with
	// NoWarmStart forced (or the baseline report's warm side).
	Warm sideJSON `json:"warm"`
	Cold sideJSON `json:"cold"`
	// Speedup is cold seconds / warm seconds; NodeReduction is the
	// fraction of B&B nodes the warm sweep avoided.
	Speedup       float64 `json:"speedup"`
	NodeReduction float64 `json:"node_reduction"`
	// IdenticalSelection reports that every (size, repetition) pair
	// selected a VO of the same size and average reputation under both
	// configurations, with warm payoffs never worse.
	IdenticalSelection bool   `json:"identical_selection"`
	SelectionNote      string `json:"selection_note,omitempty"`
	// Fig9Bench, when provided via flags, records externally measured
	// `go test -bench BenchmarkFig9ExecutionTime` figures comparing the
	// merge base (before this change) against the current tree.
	Fig9Bench *fig9JSON `json:"fig9_bench,omitempty"`
}

// fig9JSON holds externally measured whole-tree benchmark numbers.
type fig9JSON struct {
	BaselineNs int64   `json:"baseline_ns_per_op"`
	CurrentNs  int64   `json:"current_ns_per_op"`
	Reduction  float64 `json:"wall_time_reduction"`
	Note       string  `json:"note,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "BENCH_PR3.json", "output JSON path")
		sizesFlag = fs.String("sizes", "256,1024", "comma-separated program sizes")
		reps      = fs.Int("reps", 3, "repetitions per size")
		seed      = fs.Uint64("seed", 42, "root seed")
		traceJobs = fs.Int("trace-jobs", 4000, "synthetic trace size")
		nodeCap   = fs.Int64("nodes", 0, "branch-and-bound node budget per solve (0 = default)")
		baseline  = fs.String("baseline", "", "prior benchjson report to compare against instead of running a cold sweep")
		fig9Base  = fs.Int64("fig9-baseline-ns", 0, "measured BenchmarkFig9 ns/op on the baseline tree (recorded verbatim)")
		fig9Cur   = fs.Int64("fig9-ns", 0, "measured BenchmarkFig9 ns/op on the current tree (recorded verbatim)")
		fig9Note  = fs.String("fig9-note", "", "provenance note for the fig9 figures")
		advMode   = fs.Bool("adversary", false, "run the adversarial-degradation trajectory (strength ladders per attack class, BENCH_PR9-style) instead of the mechanism comparison")
		sparse    = fs.Bool("sparse", false, "run the sparse trust-substrate sweep (dense vs CSR reputation solves across node counts) instead of the mechanism comparison")
		sparsePts = fs.String("sparse-points", "", `sparse sweep points as "n:degree,..." (default: 256:8 ... 1000000:20)`)
		lg        = fs.Bool("loadgen", false, "run the serving-tier sync-vs-jobs load comparison (BENCH_PR7-style) instead of the mechanism comparison")
		lgRPS     = fs.Float64("rps", 60, "loadgen offered request rate per side")
		lgDur     = fs.Duration("duration", 10*time.Second, "loadgen run length per side")
		lgBurst   = fs.Int("burst", 8, "loadgen consecutive duplicate submissions per scenario")
		lgMix     = fs.Int("scenarios", 80, "loadgen distinct scenarios in the mix")
		lgGSPs    = fs.Int("gsps", 14, "loadgen GSPs per generated scenario")
		lgTasks   = fs.Int("tasks", 48, "loadgen tasks per generated scenario")
		lgLanes   = fs.Int("lanes", 96, "loadgen concurrent client lanes")
		lgWorkers = fs.Int("workers", 8, "loadgen job-tier worker-pool size")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile covering the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "benchjson: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle accounting so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "benchjson: memprofile:", err)
			}
		}()
	}

	if *advMode {
		// The mode's defaults pin the exact setup of the monotone-
		// degradation property test, so the artifact's curves are the
		// test's golden claim re-measured; explicit flags still win.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["seed"] {
			*seed = 9
		}
		if !set["sizes"] {
			*sizesFlag = "32,64"
		}
		if !set["reps"] {
			*reps = 2
		}
		if !set["out"] {
			*out = "BENCH_PR9.json"
		}
		sizes, err := parseSizes(*sizesFlag)
		if err != nil {
			return err
		}
		return runAdversaryBench(*out, *seed, sizes, *reps, stdout)
	}

	if *lg {
		return runLoadgen(*out, loadgen.Options{
			Mode:      "both",
			RPS:       *lgRPS,
			Duration:  *lgDur,
			Lanes:     *lgLanes,
			Scenarios: *lgMix,
			Burst:     *lgBurst,
			GSPs:      *lgGSPs,
			Tasks:     *lgTasks,
			Seed:      *seed,
			Server:    server.Config{JobWorkers: *lgWorkers},
		}, stdout)
	}

	if *sparse {
		points := defaultSparsePoints
		if *sparsePts != "" {
			var err error
			points, err = parseSparsePoints(*sparsePts)
			if err != nil {
				return err
			}
		}
		return runSparse(*out, *seed, points, stdout)
	}

	// With -baseline, the prior report fixes the sweep parameters so the
	// runs are comparable; explicit -sizes/-reps/-seed still win.
	var base *reportJSON
	if *baseline != "" {
		base = new(reportJSON)
		data, err := os.ReadFile(*baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("baseline %s: %w", *baseline, err)
		}
		if len(base.Warm.Points) == 0 {
			return fmt.Errorf("baseline %s has no warm sweep points", *baseline)
		}
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["sizes"] {
			var parts []string
			for _, n := range base.Sizes {
				parts = append(parts, strconv.Itoa(n))
			}
			*sizesFlag = strings.Join(parts, ",")
		}
		if !set["reps"] {
			*reps = base.Reps
		}
		if !set["seed"] {
			*seed = base.Seed
		}
	}

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}

	cfg := sim.DefaultConfig(*seed)
	cfg.ProgramSizes = sizes
	cfg.Repetitions = *reps
	cfg.TraceJobs = *traceJobs
	cfg.Solver = assign.Options{NodeBudget: *nodeCap}

	report := reportJSON{Tool: "benchjson", Seed: *seed, Sizes: sizes, Reps: *reps, Env: currentEnv()}

	warmSide, err := sweep(cfg, false)
	if err != nil {
		return fmt.Errorf("warm sweep: %w", err)
	}
	var coldSide sideJSON
	if base != nil {
		report.Baseline = *baseline
		coldSide = base.Warm
		report.Warm, report.Cold = warmSide, coldSide
		if warmSide.Seconds > 0 {
			report.Speedup = coldSide.Seconds / warmSide.Seconds
		}
		if coldSide.Stats.Nodes > 0 {
			report.NodeReduction = 1 - float64(warmSide.Stats.Nodes)/float64(coldSide.Stats.Nodes)
		}
		report.IdenticalSelection, report.SelectionNote = compareBaseline(warmSide.Points, coldSide.Points)
	} else {
		coldSide, err = sweep(cfg, true)
		if err != nil {
			return fmt.Errorf("cold sweep: %w", err)
		}
		report.Warm, report.Cold = warmSide, coldSide
		if warmSide.Seconds > 0 {
			report.Speedup = coldSide.Seconds / warmSide.Seconds
		}
		if coldSide.Stats.Nodes > 0 {
			report.NodeReduction = 1 - float64(warmSide.Stats.Nodes)/float64(coldSide.Stats.Nodes)
		}
		report.IdenticalSelection, report.SelectionNote = compareSelections(warmSide.Points, coldSide.Points)
	}
	if *fig9Base > 0 && *fig9Cur > 0 {
		report.Fig9Bench = &fig9JSON{
			BaselineNs: *fig9Base,
			CurrentNs:  *fig9Cur,
			Reduction:  1 - float64(*fig9Cur)/float64(*fig9Base),
			Note:       *fig9Note,
		}
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	if base != nil {
		verdict := "identical selections"
		if !report.IdenticalSelection {
			verdict = "SELECTIONS DIFFER: " + report.SelectionNote
		}
		fmt.Fprintf(stdout, "wrote %s: wall time %.3fx of %s (%.2fs vs %.2fs), %s\n",
			*out, 1/report.Speedup, *baseline, warmSide.Seconds, coldSide.Seconds, verdict)
		if !report.IdenticalSelection {
			return fmt.Errorf("selections diverged from baseline %s: %s", *baseline, report.SelectionNote)
		}
		return nil
	}
	fmt.Fprintf(stdout, "wrote %s: speedup %.3fx, node reduction %.1f%%, warm-start rate %.1f%%, %d power iterations saved\n",
		*out, report.Speedup, 100*report.NodeReduction, 100*warmSide.Stats.WarmStartRate, warmSide.Stats.PowerIterationsSaved)
	return nil
}

// compareBaseline checks the current warm sweep reproduces a prior
// report's warm sweep: the same VO at every (size, repetition) point.
// Sizes must match exactly; reputations and payoffs get an ulp-scale
// tolerance because PR 4's NormalizeRows fix (divide instead of
// multiply-by-reciprocal) legitimately moves trust rows by one ulp.
//
//gridvolint:ignore floatcmp VO sizes are small integer counts; selection identity must be exact
func compareBaseline(cur, base []pointJSON) (bool, string) {
	if len(cur) != len(base) {
		return false, fmt.Sprintf("point counts differ: %d vs baseline %d", len(cur), len(base))
	}
	for i := range cur {
		c, b := cur[i], base[i]
		if c.Size != b.Size || len(c.TVOFSize) != len(b.TVOFSize) {
			return false, fmt.Sprintf("shape mismatch at point %d", i)
		}
		for r := range c.TVOFSize {
			if c.TVOFSize[r] != b.TVOFSize[r] {
				return false, fmt.Sprintf("n=%d rep=%d: VO size %v vs baseline %v", c.Size, r, c.TVOFSize[r], b.TVOFSize[r])
			}
			if math.Abs(c.TVOFRep[r]-b.TVOFRep[r]) > 1e-9 {
				return false, fmt.Sprintf("n=%d rep=%d: VO reputation %v vs baseline %v", c.Size, r, c.TVOFRep[r], b.TVOFRep[r])
			}
			if math.Abs(c.TVOFPayoff[r]-b.TVOFPayoff[r]) > 1e-6*(1+math.Abs(b.TVOFPayoff[r])) {
				return false, fmt.Sprintf("n=%d rep=%d: payoff %v vs baseline %v", c.Size, r, c.TVOFPayoff[r], b.TVOFPayoff[r])
			}
		}
	}
	return true, ""
}

// sweep runs the configured experiment grid once and packages the result.
func sweep(cfg sim.Config, noWarmStart bool) (sideJSON, error) {
	cfg.Mechanism.NoWarmStart = noWarmStart
	env, err := sim.NewEnv(cfg)
	if err != nil {
		return sideJSON{}, err
	}
	start := time.Now()
	res, err := env.Sweep(nil)
	if err != nil {
		return sideJSON{}, err
	}
	elapsed := time.Since(start)
	side := sideJSON{
		Seconds: elapsed.Seconds(),
		Runs:    len(cfg.ProgramSizes) * cfg.Repetitions,
		Stats:   toStatsJSON(res.Stats),
	}
	if side.Runs > 0 {
		side.NsPerRun = float64(elapsed.Nanoseconds()) / float64(side.Runs)
	}
	for _, pt := range res.Points {
		side.Points = append(side.Points, pointJSON{
			Size:       pt.Size,
			TVOFPayoff: pt.TVOFPayoff,
			TVOFSize:   pt.TVOFSize,
			TVOFRep:    pt.TVOFRep,
			TVOFSec:    pt.TVOFSec,
			RVOFSec:    pt.RVOFSec,
		})
	}
	return side, nil
}

// compareSelections verifies the warm and cold sweeps selected the same
// VOs: identical sizes and average reputations at every point (evictions
// are reputation-driven and unaffected by seeding), with warm payoffs
// never worse than cold (seeds can improve truncated searches, never hurt
// them).
//
//gridvolint:ignore floatcmp VO sizes are small integer counts; selection identity must be exact
func compareSelections(warm, cold []pointJSON) (bool, string) {
	if len(warm) != len(cold) {
		return false, fmt.Sprintf("point counts differ: %d vs %d", len(warm), len(cold))
	}
	for i := range warm {
		w, c := warm[i], cold[i]
		if w.Size != c.Size || len(w.TVOFSize) != len(c.TVOFSize) {
			return false, fmt.Sprintf("shape mismatch at point %d", i)
		}
		for r := range w.TVOFSize {
			if w.TVOFSize[r] != c.TVOFSize[r] {
				return false, fmt.Sprintf("n=%d rep=%d: VO size %v vs %v", w.Size, r, w.TVOFSize[r], c.TVOFSize[r])
			}
			if math.Abs(w.TVOFRep[r]-c.TVOFRep[r]) > 1e-9 {
				return false, fmt.Sprintf("n=%d rep=%d: VO reputation %v vs %v", w.Size, r, w.TVOFRep[r], c.TVOFRep[r])
			}
			if w.TVOFPayoff[r] < c.TVOFPayoff[r]-assign.Eps {
				return false, fmt.Sprintf("n=%d rep=%d: warm payoff %v worse than cold %v", w.Size, r, w.TVOFPayoff[r], c.TVOFPayoff[r])
			}
		}
	}
	return true, ""
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return sizes, nil
}

// advPointJSON is one rung of an attack class's strength ladder.
type advPointJSON struct {
	// Strength is the ladder's x-axis: the attacker count for
	// collusion/sybil/whitewash, the slander rate, or the churn leave
	// rate.
	Strength         float64 `json:"strength"`
	MeanValueDelta   float64 `json:"mean_value_delta"`
	MeanInfiltration float64 `json:"mean_infiltration"`
	MeanDisplacement float64 `json:"mean_displacement"`
	// Degradation is the class's headline metric (see advClassJSON.Metric)
	// at this strength.
	Degradation  float64 `json:"degradation"`
	Reformations int64   `json:"reformations,omitempty"`
	ChurnJoins   int64   `json:"churn_joins,omitempty"`
	ChurnLeaves  int64   `json:"churn_leaves,omitempty"`
	WarmStarts   int64   `json:"warm_starts,omitempty"`
	// Fingerprints are the sweep's bit-reproducibility witnesses; at
	// strength 0 the two must be equal.
	HonestFingerprint      string `json:"honest_fingerprint"`
	AdversarialFingerprint string `json:"adversarial_fingerprint"`
}

// advClassJSON is one attack class's degradation curve.
type advClassJSON struct {
	Class string `json:"class"`
	// Metric names the degradation measure: "infiltration" for attacks
	// that smuggle bad identities into the VO (collusion, sybil,
	// whitewash), "displacement" for attacks that push honest members out
	// (slander, churn).
	Metric string         `json:"metric"`
	Points []advPointJSON `json:"points"`
	// Monotone reports that Degradation never decreased up the ladder and
	// ended strictly positive — the measured, monotone degradation claim.
	Monotone bool `json:"monotone_degradation"`
}

// advReportJSON is the BENCH_PR9.json document.
type advReportJSON struct {
	Tool    string         `json:"tool"`
	Mode    string         `json:"mode"`
	Seed    uint64         `json:"seed"`
	Sizes   []int          `json:"sizes"`
	Reps    int            `json:"reps"`
	Env     *envJSON       `json:"env,omitempty"`
	Classes []advClassJSON `json:"classes"`
	// ZeroAttackIdentity reports that every strength-0 rung produced
	// bitwise-identical honest and adversarial worlds.
	ZeroAttackIdentity bool `json:"zero_attack_identity"`
}

// advLadder is one class's strength ladder: the rungs mirror
// TestRobustnessMonotoneDegradation exactly.
type advLadder struct {
	class  string
	metric string
	rungs  []struct {
		strength float64
		opts     sim.RobustnessOptions
	}
}

func adversaryLadders() []advLadder {
	sizeLadder := func(class string) advLadder {
		lad := advLadder{class: class, metric: "infiltration"}
		for _, k := range []int{0, 3, 6} {
			lad.rungs = append(lad.rungs, struct {
				strength float64
				opts     sim.RobustnessOptions
			}{float64(k), sim.RobustnessOptions{Attack: &adversary.Spec{Class: class, Size: k}}})
		}
		return lad
	}
	slander := advLadder{class: adversary.ClassSlander, metric: "displacement"}
	for _, rate := range []float64{0, 0.3, 0.8} {
		slander.rungs = append(slander.rungs, struct {
			strength float64
			opts     sim.RobustnessOptions
		}{rate, sim.RobustnessOptions{Attack: &adversary.Spec{Class: adversary.ClassSlander, Size: 4, Rate: rate}}})
	}
	churn := advLadder{class: "churn", metric: "displacement"}
	for _, rate := range []float64{0, 0.2, 0.35} {
		churn.rungs = append(churn.rungs, struct {
			strength float64
			opts     sim.RobustnessOptions
		}{rate, sim.RobustnessOptions{Churn: &adversary.ChurnSpec{LeaveRate: rate, JoinRate: 0.1}}})
	}
	return []advLadder{
		sizeLadder(adversary.ClassCollusion),
		sizeLadder(adversary.ClassSybil),
		sizeLadder(adversary.ClassWhitewash),
		slander,
		churn,
	}
}

// runAdversaryBench measures each attack class's degradation curve with
// sim.RobustnessSweep and writes the BENCH_PR9.json trajectory. It fails
// (after writing the artifact, for inspection) if any curve is
// non-monotone, tops out at zero degradation, or any zero-strength rung
// breaks honest/adversarial bitwise identity — so generating the artifact
// re-asserts the robustness claims end to end.
func runAdversaryBench(out string, seed uint64, sizes []int, reps int, stdout io.Writer) error {
	cfg := sim.QuickConfig(seed)
	cfg.ProgramSizes = sizes
	cfg.Repetitions = reps
	cfg.NumGSPs = 10
	cfg.TrustEdgeProb = 0.3
	cfg.TraceJobs = 1500
	cfg.Solver.NodeBudget = 100_000

	report := advReportJSON{
		Tool: "benchjson", Mode: "adversary",
		Seed: seed, Sizes: sizes, Reps: reps,
		Env: currentEnv(), ZeroAttackIdentity: true,
	}
	var failures []string
	for _, lad := range adversaryLadders() {
		cls := advClassJSON{Class: lad.class, Metric: lad.metric, Monotone: true}
		prev := math.Inf(-1)
		var last float64
		for _, rung := range lad.rungs {
			rep, err := sim.RobustnessSweep(context.Background(), cfg, rung.opts, nil)
			if err != nil {
				return fmt.Errorf("%s strength %v: %w", lad.class, rung.strength, err)
			}
			deg := rep.MeanDisplacement
			if lad.metric == "infiltration" {
				deg = rep.MeanInfiltration
			}
			cls.Points = append(cls.Points, advPointJSON{
				Strength:               rung.strength,
				MeanValueDelta:         rep.MeanValueDelta,
				MeanInfiltration:       rep.MeanInfiltration,
				MeanDisplacement:       rep.MeanDisplacement,
				Degradation:            deg,
				Reformations:           rep.Reformations,
				ChurnJoins:             rep.ChurnJoins,
				ChurnLeaves:            rep.ChurnLeaves,
				WarmStarts:             rep.WarmStarts,
				HonestFingerprint:      fmt.Sprintf("%016x", rep.HonestFingerprint),
				AdversarialFingerprint: fmt.Sprintf("%016x", rep.AdversarialFingerprint),
			})
			if deg < prev {
				cls.Monotone = false
			}
			prev, last = deg, deg
			if rung.strength == 0 && rep.HonestFingerprint != rep.AdversarialFingerprint {
				report.ZeroAttackIdentity = false
				failures = append(failures, fmt.Sprintf("%s: zero-strength rung not bitwise identical", lad.class))
			}
		}
		if last <= 0 {
			cls.Monotone = false
		}
		if !cls.Monotone {
			failures = append(failures, fmt.Sprintf("%s: degradation curve not monotone-positive", lad.class))
		}
		var curve []string
		for _, pt := range cls.Points {
			curve = append(curve, fmt.Sprintf("%.3f", pt.Degradation))
		}
		fmt.Fprintf(stdout, "adversary %-9s %s curve: %s\n", lad.class, lad.metric, strings.Join(curve, " -> "))
		report.Classes = append(report.Classes, cls)
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d classes, zero-attack identity %v\n", out, len(report.Classes), report.ZeroAttackIdentity)
	if len(failures) > 0 {
		return fmt.Errorf("robustness claims failed: %s", strings.Join(failures, "; "))
	}
	return nil
}

// runLoadgen runs the serving-tier comparison — the synchronous path and
// the async job tier driven with identical offered load and scenario
// mixes — and writes the loadgen report (the BENCH_PR7.json document).
func runLoadgen(out string, opts loadgen.Options, stdout io.Writer) error {
	rep, err := loadgen.Compare(context.Background(), opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loadgen: sync %.1f rps (p99 %.1fms) vs jobs %.1f rps (p99 %.1fms), ratio %.2fx, deduped %d\n",
		rep.Sync.SustainedRPS, rep.Sync.P99MS,
		rep.Jobs.SustainedRPS, rep.Jobs.P99MS,
		rep.RPSRatio, rep.Jobs.DedupedDelta)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return nil
}
