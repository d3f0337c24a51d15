package mechanism

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gridvo/internal/adversary"
	"gridvo/internal/assign"
	"gridvo/internal/fault"
	"gridvo/internal/reputation"
	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// periodicScenario replaces a test scenario's trust graph with a complete
// bipartite one between {0,1} and the rest: the undamped chain has period
// 2 and the uniform start puts unequal mass on the two sides, so the power
// iteration oscillates until the 10000-step cap on the grand coalition.
func periodicScenario(seed uint64, m, n int) *Scenario {
	sc := testScenario(seed, m, n)
	g := trust.NewGraph(m)
	for a := 0; a < 2; a++ {
		for b := 2; b < m; b++ {
			g.SetTrust(a, b, 1)
			g.SetTrust(b, a, 1)
		}
	}
	sc.Trust = g
	return sc
}

// memoCase is one formation the memo must replay bit for bit.
type memoCase struct {
	name string
	sc   *Scenario
	opts Options
	seed uint64
}

func memoCases() []memoCase {
	var cases []memoCase
	for seed := uint64(1); seed <= 3; seed++ {
		sc := testScenario(40+seed, 7, 20)
		cases = append(cases,
			memoCase{fmt.Sprintf("tvof/%d", seed), sc, Options{Eviction: EvictLowestReputation}, seed},
			memoCase{fmt.Sprintf("rvof/%d", seed), sc, Options{Eviction: EvictRandom}, seed},
			memoCase{fmt.Sprintf("cold/%d", seed), sc, Options{Eviction: EvictLowestReputation, NoWarmStart: true}, seed},
			memoCase{fmt.Sprintf("churn/%d", seed), sc, Options{Eviction: EvictLowestReputation, Churn: []adversary.ChurnEvent{
				{Round: 0, Leave: []int{2, 5}},
				{Round: 1, Join: []int{2, 5}, Leave: []int{6}},
			}}, seed},
		)
	}
	periodic := periodicScenario(50, 6, 16)
	cases = append(cases,
		memoCase{"periodic/tvof", periodic, Options{Eviction: EvictLowestReputation}, 1},
		memoCase{"periodic/rvof", periodic, Options{Eviction: EvictRandom}, 2},
		memoCase{"periodic/cold", periodic, Options{Eviction: EvictLowestReputation, NoWarmStart: true}, 3},
	)
	return cases
}

// assertSameResult fails unless two results agree bit for bit in
// everything but wall-clock time, engine counters and the engine itself.
func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Iterations, got.Iterations) {
		t.Fatalf("iterations differ:\nwant %+v\ngot  %+v", want.Iterations, got.Iterations)
	}
	if !reflect.DeepEqual(want.GlobalReputation, got.GlobalReputation) {
		t.Fatalf("global reputation differs: %v vs %v", want.GlobalReputation, got.GlobalReputation)
	}
	if want.Rule != got.Rule || want.Selected != got.Selected || want.SelectedByProduct != got.SelectedByProduct ||
		want.Degraded != got.Degraded || want.Faults != got.Faults {
		t.Fatalf("result summary differs: %+v vs %+v", want, got)
	}
}

// TestRepMemoReplaysBitwise: the second and third formation on a shared
// engine are served from the reputation memo without a single power
// iteration and equal a fresh engine's run bit for bit, for TVOF, RVOF,
// cold reputation, a churn schedule, and a periodic trust graph whose
// power iterations never converge. The cases of one scenario share its
// engine, so their trajectories reach the same coalitions along
// different paths.
func TestRepMemoReplaysBitwise(t *testing.T) {
	cases := memoCases()
	fresh := make([]*Result, len(cases))
	engines := map[*Scenario]*Engine{}
	capped := false
	for i, tc := range cases {
		res, err := Run(tc.sc, tc.opts, xrand.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = res
		capped = capped || res.Stats.PowerIterations >= reputation.DefaultMaxIter
		if engines[tc.sc] == nil {
			engines[tc.sc] = NewEngine(tc.sc, assign.Options{})
		}
	}
	if !capped {
		t.Fatal("no case ran a power iteration into its cap")
	}
	for run := 1; run <= 3; run++ {
		for i, tc := range cases {
			opts := tc.opts
			opts.Engine = engines[tc.sc]
			res, err := Run(tc.sc, opts, xrand.New(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fresh[i], res)
			if run == 1 {
				continue
			}
			// One hit for the global vector and one per round, except
			// that a warm run's first round reuses the global vector.
			hits := int64(len(res.Iterations))
			if tc.opts.NoWarmStart {
				hits++
			}
			if res.Stats.PowerIterations != 0 || res.Stats.ReputationHits != hits {
				t.Fatalf("%s run %d: %d power iterations, %d reputation hits over %d rounds",
					tc.name, run, res.Stats.PowerIterations, res.Stats.ReputationHits, len(res.Iterations))
			}
		}
	}
}

// TestRepMemoBypassedUnderInjector: with a fault injector on the engine,
// every reputation solve runs and visits it again, so an injected
// non-convergence fires on every run instead of being served once and
// replayed.
func TestRepMemoBypassedUnderInjector(t *testing.T) {
	sc := testScenario(45, 6, 18)
	inj := fault.New(fault.Config{Seed: 3, Rate: 1, Classes: []fault.Class{fault.NonConverge}})
	eng := NewEngine(sc, assign.Options{})
	eng.SetInjector(inj)
	first, err := Run(sc, Options{Engine: eng}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(sc, Options{Engine: eng}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if first.Faults == 0 || second.Faults != first.Faults || !second.Degraded {
		t.Fatalf("faults %d then %d (degraded %v): reputation solves were not re-run", first.Faults, second.Faults, second.Degraded)
	}
	// StabilityCheck's global vector does not visit the injector, but it
	// bypasses the memo on this engine all the same.
	noGlobal := *second
	noGlobal.GlobalReputation = nil
	if len(noGlobal.Final().Members) < 2 {
		t.Fatal("stability check would not reach the global vector")
	}
	if _, _, err := StabilityCheck(sc, &noGlobal, Options{}, CriterionTotal); err != nil {
		t.Fatal(err)
	}
	if second.Stats.ReputationHits != 0 || eng.repMemoLen() != 0 {
		t.Fatalf("memo used under an injector: %d hits, %d nodes", second.Stats.ReputationHits, eng.repMemoLen())
	}
}

// TestRepMemoBypassedWithCacheDisabled: SetCacheEnabled(false) turns the
// reputation memo off along with the solution cache.
func TestRepMemoBypassedWithCacheDisabled(t *testing.T) {
	sc := testScenario(46, 6, 18)
	eng := NewEngine(sc, assign.Options{})
	eng.SetCacheEnabled(false)
	var runs [2]*Result
	for i := range runs {
		res, err := Run(sc, Options{Engine: eng}, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	assertSameResult(t, runs[0], runs[1])
	if runs[1].Stats.ReputationHits != 0 || runs[1].Stats.PowerIterations != runs[0].Stats.PowerIterations ||
		eng.repMemoLen() != 0 {
		t.Fatalf("memo used with the cache disabled: %+v, %d nodes", runs[1].Stats, eng.repMemoLen())
	}
}

// TestRepMemoCapped: a stream of distinct RVOF seeds walks ever new
// eviction paths; the memo stops growing at its cap, and runs past the
// cap still equal a fresh engine's.
func TestRepMemoCapped(t *testing.T) {
	sc := testScenario(47, 6, 12)
	eng := NewEngine(sc, assign.Options{})
	limit := repMemoNodesPerGSP * sc.M()
	seed := uint64(0)
	for ; eng.repMemoLen() < limit; seed++ {
		if seed > 1000 {
			t.Fatalf("memo stuck at %d of %d nodes", eng.repMemoLen(), limit)
		}
		if _, err := Run(sc, Options{Eviction: EvictRandom, Engine: eng}, xrand.New(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for end := seed + 20; seed < end; seed++ {
		shared, err := Run(sc, Options{Eviction: EvictRandom, Engine: eng}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(sc, Options{Eviction: EvictRandom}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fresh, shared)
		if n := eng.repMemoLen(); n != limit {
			t.Fatalf("memo holds %d nodes, cap %d", n, limit)
		}
	}
}

// TestRepMemoConcurrentMatchesSerial: eight goroutines forming on one
// engine — racing to fill the same paths — get exactly the serial runs'
// results (run under -race).
func TestRepMemoConcurrentMatchesSerial(t *testing.T) {
	cases := memoCases()
	want := make([]*Result, len(cases))
	for i, tc := range cases {
		res, err := Run(tc.sc, tc.opts, xrand.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	engines := map[*Scenario]*Engine{}
	for _, tc := range cases {
		if engines[tc.sc] == nil {
			engines[tc.sc] = NewEngine(tc.sc, assign.Options{})
		}
	}
	const workers = 8
	got := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*Result, len(cases))
			for k := range cases {
				i := (k + w) % len(cases) // stagger so workers collide on different paths
				tc := cases[i]
				opts := tc.opts
				opts.Engine = engines[tc.sc]
				res, err := Run(tc.sc, opts, xrand.New(tc.seed))
				if err != nil {
					t.Error(err)
					return
				}
				got[w][i] = res
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, res := range got[w] {
			if res == nil {
				t.Fatalf("worker %d case %s did not finish", w, cases[i].name)
			}
			assertSameResult(t, want[i], res)
		}
	}
}

// TestGlobalReputationSharedAcrossEntryPoints: StabilityCheck's fallback
// and MergeSplit read the global vector through the memo root a formation
// stored, so neither runs the power method again.
func TestGlobalReputationSharedAcrossEntryPoints(t *testing.T) {
	sc := testScenario(48, 6, 18)
	eng := NewEngine(sc, assign.Options{})
	res, err := Run(sc, Options{Engine: eng}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	ms, err := MergeSplit(sc, MergeSplitOptions{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Selected != nil && ms.AvgReputation != reputation.AverageOf(res.GlobalReputation, ms.Selected) {
		t.Fatalf("merge-split average reputation %v disagrees with the formation's global vector", ms.AvgReputation)
	}
	noGlobal := *res
	noGlobal.GlobalReputation = nil
	if _, _, err := StabilityCheck(sc, &noGlobal, Options{}, CriterionTotal); err != nil {
		t.Fatal(err)
	}
	d := eng.Stats().Sub(before)
	if d.PowerIterations != 0 || d.ReputationHits < 2 {
		t.Fatalf("global vector recomputed: %d power iterations, %d reputation hits", d.PowerIterations, d.ReputationHits)
	}
}
