package sim

import (
	"math"
	"strings"
	"testing"

	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
	"gridvo/internal/swf"
	"gridvo/internal/xrand"
)

// quickEnv builds a small, fast environment for tests.
func quickEnv(t *testing.T, seed uint64) *Env {
	t.Helper()
	cfg := QuickConfig(seed)
	cfg.ProgramSizes = []int{32, 64}
	cfg.Repetitions = 2
	cfg.NumGSPs = 6
	cfg.TrustEdgeProb = 0.35
	cfg.TraceJobs = 1500
	cfg.Solver.NodeBudget = 100_000
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig(1)
	if cfg.NumGSPs != 16 {
		t.Fatalf("m = %d, want 16", cfg.NumGSPs)
	}
	if cfg.TrustEdgeProb != 0.1 {
		t.Fatalf("p = %v, want 0.1", cfg.TrustEdgeProb)
	}
	if len(cfg.ProgramSizes) != 6 || cfg.ProgramSizes[0] != 256 || cfg.ProgramSizes[5] != 8192 {
		t.Fatalf("sizes = %v", cfg.ProgramSizes)
	}
	if cfg.Repetitions != 10 {
		t.Fatalf("reps = %d, want 10", cfg.Repetitions)
	}
}

func TestNewEnvValidation(t *testing.T) {
	cfg := QuickConfig(1)
	cfg.NumGSPs = 0
	if _, err := NewEnv(cfg); err == nil {
		t.Fatal("zero GSPs accepted")
	}
	cfg = QuickConfig(1)
	cfg.Repetitions = 0
	if _, err := NewEnv(cfg); err == nil {
		t.Fatal("zero repetitions accepted")
	}
}

func TestNewEnvRejectsTraceWithoutSizes(t *testing.T) {
	cfg := QuickConfig(1)
	cfg.Trace = &swf.Trace{} // empty trace
	if _, err := NewEnv(cfg); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestBuildScenarioFeasibleGrandCoalition(t *testing.T) {
	env := quickEnv(t, 2)
	sc, meta, err := env.BuildScenario(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.N() != 32 || sc.M() != 6 {
		t.Fatalf("scenario shape %d/%d", sc.N(), sc.M())
	}
	if meta.ProgramSize != 32 {
		t.Fatal("meta wrong")
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	// By construction the grand coalition must be feasible: the first
	// TVOF iteration must be feasible.
	res, err := mechanism.TVOF(sc, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Iterations[0].Feasible {
		t.Fatal("grand coalition infeasible despite resampling guarantee")
	}
}

func TestBuildScenarioDeterministic(t *testing.T) {
	envA := quickEnv(t, 3)
	envB := quickEnv(t, 3)
	a, _, err := envA.BuildScenario(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := envB.BuildScenario(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Deadline != b.Deadline || a.Payment != b.Payment {
		t.Fatal("scenario generation not deterministic")
	}
	if a.Program.Tasks[0] != b.Program.Tasks[0] {
		t.Fatal("program workloads differ")
	}
}

func TestBuildScenarioIndependentOfOrder(t *testing.T) {
	// Labeled splitting: building (64, 0) before (32, 0) must not change
	// the latter.
	envA := quickEnv(t, 4)
	if _, _, err := envA.BuildScenario(64, 0); err != nil {
		t.Fatal(err)
	}
	a, _, err := envA.BuildScenario(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	envB := quickEnv(t, 4)
	b, _, err := envB.BuildScenario(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Deadline != b.Deadline || a.Payment != b.Payment {
		t.Fatal("scenario depends on generation order")
	}
}

func TestSweepShapes(t *testing.T) {
	env := quickEnv(t, 5)
	var progress []string
	sweep, err := env.Sweep(func(s string) { progress = append(progress, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 2 {
		t.Fatalf("points = %d", len(sweep.Points))
	}
	for _, p := range sweep.Points {
		if len(p.TVOFPayoff) != 2 || len(p.RVOFPayoff) != 2 ||
			len(p.TVOFRep) != 2 || len(p.TVOFSec) != 2 {
			t.Fatalf("point %d has ragged replicate slices", p.Size)
		}
		for i := range p.TVOFPayoff {
			if p.TVOFPayoff[i] <= 0 {
				t.Fatal("non-positive TVOF payoff")
			}
			if p.TVOFRep[i] <= 0 || p.TVOFRep[i] > 1 {
				t.Fatalf("TVOF avg reputation %v out of (0,1]", p.TVOFRep[i])
			}
			if p.TVOFSize[i] < 1 || p.TVOFSize[i] > 6 {
				t.Fatal("VO size out of range")
			}
		}
	}
	if len(progress) != 4 {
		t.Fatalf("progress lines = %d, want 4", len(progress))
	}
}

func TestFig4(t *testing.T) {
	env := quickEnv(t, 6)
	r, err := env.Fig4(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Programs) != 4 {
		t.Fatalf("programs = %d", len(r.Programs))
	}
	for _, p := range r.Programs {
		// The product-rule VO never has a higher payoff than the
		// payoff-rule VO (which maximizes payoff).
		if p.PayoffByProduct > p.PayoffBest+1e-9 {
			t.Fatalf("%s: product pick payoff %v exceeds best %v", p.Name, p.PayoffByProduct, p.PayoffBest)
		}
		if p.SamePick && p.PayoffByProduct != p.PayoffBest {
			t.Fatalf("%s: same pick but different payoffs", p.Name)
		}
	}
	if r.AgreementCount() < 0 || r.AgreementCount() > 4 {
		t.Fatal("agreement count out of range")
	}
}

func TestIterationTrace(t *testing.T) {
	env := quickEnv(t, 7)
	tr, err := env.IterationTrace(32, "A", mechanism.EvictLowestReputation)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Sizes) == 0 {
		t.Fatal("no iterations")
	}
	if tr.Sizes[0] != 6 {
		t.Fatalf("first VO size = %d, want 6", tr.Sizes[0])
	}
	for i := 1; i < len(tr.Sizes); i++ {
		if tr.Sizes[i] != tr.Sizes[i-1]-1 {
			t.Fatal("sizes not strictly decreasing by one")
		}
	}
	if tr.Selected < 0 || !tr.Feasible[tr.Selected] {
		t.Fatal("selected iteration not feasible")
	}
	// RVOF trace on the same program tag must be reproducible.
	tr2, err := env.IterationTrace(32, "A", mechanism.EvictRandom)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Rule != mechanism.EvictRandom {
		t.Fatal("rule not recorded")
	}
}

func TestRenderTables(t *testing.T) {
	env := quickEnv(t, 8)
	sweep, err := env.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, tb := range map[string]interface{ RenderString() string }{
		"fig1": Fig1Table(sweep),
		"fig2": Fig2Table(sweep),
		"fig3": Fig3Table(sweep),
		"fig9": Fig9Table(sweep),
	} {
		out := tb.RenderString()
		if !strings.Contains(out, "32") || len(strings.Split(out, "\n")) < 4 {
			t.Fatalf("%s table malformed:\n%s", name, out)
		}
	}
	f4, err := env.Fig4(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Fig4Table(f4).RenderString(), "P1") {
		t.Fatal("fig4 table malformed")
	}
	tr, err := env.IterationTrace(32, "B", mechanism.EvictLowestReputation)
	if err != nil {
		t.Fatal(err)
	}
	out := TraceTable(tr, "Fig. 5").RenderString()
	if !strings.Contains(out, "program B") || !strings.Contains(out, "*") {
		t.Fatalf("trace table malformed:\n%s", out)
	}
	t1 := Table1(env.Config).RenderString()
	if !strings.Contains(t1, "number of GSPs") {
		t.Fatal("Table I malformed")
	}
}

func TestSweepReputationShapeTVOFvsRVOF(t *testing.T) {
	// The Fig. 3 claim: TVOF's final VO has average reputation at least
	// as high as RVOF's, in the mean over repetitions. With the small
	// test setup we assert the aggregate over all points (individual
	// points can tie when both pick the same VO).
	env := quickEnv(t, 9)
	sweep, err := env.Sweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	tvofTotal, rvofTotal := 0.0, 0.0
	for _, p := range sweep.Points {
		for i := range p.TVOFRep {
			tvofTotal += p.TVOFRep[i]
			rvofTotal += p.RVOFRep[i]
		}
	}
	if tvofTotal < rvofTotal-1e-9 {
		t.Fatalf("TVOF aggregate reputation %v below RVOF %v", tvofTotal, rvofTotal)
	}
}

func TestScenarioTightness(t *testing.T) {
	env := quickEnv(t, 70)
	sc, _, err := env.BuildScenario(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight := ScenarioTightness(sc, env.Config.Solver)
	// The grand coalition is feasible by construction, so the deadline
	// is at or above the true minimum makespan; the R||Cmax bound may
	// only be lower.
	if tight < 1-1e-6 {
		t.Fatalf("tightness %v < 1 on a feasible scenario", tight)
	}
	if tight > 1e6 {
		t.Fatalf("implausible tightness %v", tight)
	}
}

// TestWarmStartSelectsSameVOs pins the warm-start selection identity on a
// Table I sweep: seeding each IP solve from its parent coalition's
// solution changes how much search is needed, never which VO TVOF picks.
// Evictions are reputation-driven, so VO sizes and average reputations
// match the NoWarmStart sweep at every point; a seed can improve a
// truncated search's payoff but never worsen it.
func TestWarmStartSelectsSameVOs(t *testing.T) {
	sweep := func(noWarmStart bool) *SweepResult {
		t.Helper()
		cfg := DefaultConfig(7)
		cfg.ProgramSizes = []int{32, 64}
		cfg.Repetitions = 2
		cfg.TraceJobs = 500
		cfg.Mechanism.NoWarmStart = noWarmStart
		env, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.Sweep(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm, cold := sweep(false), sweep(true)
	if len(warm.Points) != 2 || len(cold.Points) != 2 {
		t.Fatalf("point counts %d warm, %d cold; want 2", len(warm.Points), len(cold.Points))
	}
	for i := range warm.Points {
		w, c := warm.Points[i], cold.Points[i]
		if w.Size != c.Size || len(w.TVOFSize) != 2 || len(c.TVOFSize) != 2 {
			t.Fatalf("point %d shape: warm n=%d×%d, cold n=%d×%d", i, w.Size, len(w.TVOFSize), c.Size, len(c.TVOFSize))
		}
		for r := range w.TVOFSize {
			if w.TVOFSize[r] != c.TVOFSize[r] {
				t.Errorf("n=%d rep=%d: VO size %v warm vs %v cold", w.Size, r, w.TVOFSize[r], c.TVOFSize[r])
			}
			if math.Abs(w.TVOFRep[r]-c.TVOFRep[r]) > 1e-9 {
				t.Errorf("n=%d rep=%d: VO reputation %v warm vs %v cold", w.Size, r, w.TVOFRep[r], c.TVOFRep[r])
			}
			if w.TVOFPayoff[r] < c.TVOFPayoff[r]-assign.Eps {
				t.Errorf("n=%d rep=%d: warm payoff %v worse than cold %v", w.Size, r, w.TVOFPayoff[r], c.TVOFPayoff[r])
			}
		}
	}
	if warm.Stats.WarmStarts == 0 || cold.Stats.WarmStarts != 0 {
		t.Errorf("warm starts: %d on the warm sweep (want > 0), %d on the cold one (want 0)",
			warm.Stats.WarmStarts, cold.Stats.WarmStarts)
	}
	if warm.Stats.Nodes > cold.Stats.Nodes {
		t.Errorf("warm sweep explored %d nodes, more than the cold sweep's %d", warm.Stats.Nodes, cold.Stats.Nodes)
	}
}
