package loadgen

import (
	"context"
	"testing"
	"time"

	"gridvo/internal/server"
)

// TestRunSelfServeBothModes smoke-tests both serving paths at a gentle
// rate against an in-process server — the same shape the CI smoke job
// runs via cmd/gridvod -loadgen, kept short here.
func TestRunSelfServeBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("load generation is wall-clock bound")
	}
	for _, mode := range []string{"sync", "jobs"} {
		t.Run(mode, func(t *testing.T) {
			res, err := Run(context.Background(), Options{
				Mode:      mode,
				RPS:       20,
				Duration:  time.Second,
				Scenarios: 2,
				GSPs:      4,
				Tasks:     8,
				Seed:      1,
				Server:    server.Config{JobWorkers: 4},
				SLOp99:    10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 {
				t.Fatalf("no completed requests: %+v", res)
			}
			if len(res.SLOViolations) > 0 {
				t.Fatalf("SLO violations at trivial load: %v", res.SLOViolations)
			}
			if res.P99MS <= 0 || res.SustainedRPS <= 0 {
				t.Fatalf("missing measurements: %+v", res)
			}
			if mode == "jobs" && res.JobsQueuedDelta == 0 {
				t.Fatalf("jobs mode queued nothing: %+v", res)
			}
		})
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(context.Background(), Options{Mode: "nope", RPS: 1, Duration: time.Second}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := Run(context.Background(), Options{Mode: "sync"}); err == nil {
		t.Fatal("zero rps/duration accepted")
	}
}

// TestPctMSNearestRank pins the nearest-rank percentile sorted[⌈p·n⌉−1]
// on latencies 1..n ms: with n = 30, p99 must be the slowest sample.
func TestPctMSNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.50, 1}, {1, 0.95, 1}, {1, 0.99, 1},
		{10, 0.50, 5}, {10, 0.95, 10}, {10, 0.99, 10},
		{30, 0.50, 15}, {30, 0.95, 29}, {30, 0.99, 30},
		{1000, 0.50, 500}, {1000, 0.95, 950}, {1000, 0.99, 990},
	}
	for _, tc := range cases {
		sorted := make([]time.Duration, tc.n)
		for i := range sorted {
			sorted[i] = time.Duration(i+1) * time.Millisecond
		}
		if got := pctMS(sorted, tc.p); got != tc.want {
			t.Errorf("n=%d p=%v: pctMS = %v ms, want %v ms", tc.n, tc.p, got, tc.want)
		}
	}
	if got := pctMS(nil, 0.99); got != 0 {
		t.Errorf("empty: pctMS = %v, want 0", got)
	}
}
