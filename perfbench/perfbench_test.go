package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{n: 10000, p: 99.9, ok: true},
		{n: 9999, p: 99, ok: true},
		{n: 1000, p: 99, ok: true},
		{n: 999, p: 95, ok: true},
		{n: 200, p: 95, ok: true},
		{n: 199, p: 90, ok: true},
		{n: 20, p: 50, ok: true},
		{n: 19},
		{n: 0},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.ok || p != tc.p {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.p, tc.ok)
		}
		if ok && tc.n-nearestRank(p, tc.n) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, p, tc.n-nearestRank(p, tc.n))
		}
	}
}

func TestLatencyP99NeedsThousandSamples(t *testing.T) {
	var l latencies
	for i := 1; i <= 999; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	if _, ok := l.p99(); ok {
		t.Fatal("p99 reported from 999 samples")
	}
	l.add(1000 * time.Millisecond)
	if v, ok := l.p99(); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 ms = %v, %v; want 990, true", v, ok)
	}
	if ms, p, ok := l.tail(); !ok || p != 99 || ms != 990 {
		t.Fatalf("tail = %v ms at p%v, %v; want 990 at p99", ms, p, ok)
	}
}

func ms(v int64) int64 { return v * int64(time.Millisecond) }

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{Name: "mechanism.run", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "assign.solve", Start: ms(10), End: ms(60), Parent: 0},
		{Name: "matrix.tmulvec", Start: ms(20), End: ms(30), Parent: 1},
	}
	self := selfTimes(spans)
	for layer, want := range map[string]float64{"mechanism": 50, "assign": 40, "matrix": 10} {
		if !near(self[layer], want) {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], want)
		}
	}
}

func TestSelfTimesOverlappingSiblings(t *testing.T) {
	spans := []span{
		{Name: "http.request", Start: ms(0), End: ms(100), Parent: -1},
		// Siblings overlapping in [40, 50] and one sticking out of its
		// parent: the parent loses [10, 70] ∪ [90, 100] once.
		{Name: "server.a", Start: ms(10), End: ms(50), Parent: 0},
		{Name: "server.b", Start: ms(40), End: ms(70), Parent: 0},
		{Name: "server.c", Start: ms(90), End: ms(120), Parent: 0},
		// A set-up span belongs to no op.
		{Name: "sim.build_scenario", Start: ms(0), End: ms(500), Parent: -1, Op: -1},
	}
	self := selfTimes(spans)
	if !near(self["http"], 30) {
		t.Errorf("self[http] = %v, want 30", self["http"])
	}
	if !near(self["server"], 40+30+30) {
		t.Errorf("self[server] = %v, want 100", self["server"])
	}
	if self["sim"] != 0 {
		t.Errorf("set-up span counted: self[sim] = %v", self["sim"])
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"setup_s", "op_p50_ms", "server.form.handler_ms_p50", "fig9-sweep", "9lives"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ops/s", "x%", string(long)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the catalog must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and
// BENCHMARK.json in step, with every name legal and used once.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !validName(name) || seen[name] {
			t.Errorf("name %q is invalid or repeated", name)
		}
		seen[name] = true
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalog %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		check(m.Name)
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalog %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		check(m.Name)
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, d)
		}
	}
	for _, w := range b.Workloads {
		check(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(b.Workloads), len(workloads))
	}
}

// TestSmokeWorkloads runs each workload for about a second on reduced
// inputs, untraced and traced, and checks that every output check passes
// and every metric the result line names is emitted.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	fig9 := defaultFig9Params()
	fig9.Sizes, fig9.Reps, fig9.Setups = []int{64}, 2, 1
	form := defaultFormParams()
	form.Specs, form.Setups = 24, 3
	trust := defaultTrustParams()
	trust.GSPs, trust.MeanDegree, trust.Chunk, trust.SolveEvery, trust.ScoresEvery, trust.Setups = 3000, 8, 5000, 4, 2, 1
	runners := map[string]func(context.Context, runOpts) (*report, error){
		"fig9-sweep":   func(ctx context.Context, o runOpts) (*report, error) { return runFig9(ctx, o, fig9) },
		"form-service": func(ctx context.Context, o runOpts) (*report, error) { return runForm(ctx, o, form) },
		"trust-delta":  func(ctx context.Context, o runOpts) (*report, error) { return runTrust(ctx, o, trust) },
	}
	for _, name := range sortedKeys(runners) {
		for _, traced := range []bool{false, true} {
			o := runOpts{Seed: 3, Seconds: time.Second, Trace: traced}
			rep, err := runners[name](context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			res, err := finish(rep, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, traced, res.Failed, res.Attempted, rep.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or mis-united: %+v", name, traced, d.Name, m)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}
