package assign

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"gridvo/internal/xrand"
)

// TestSolveConcurrentMatchesSerial pins concurrent reuse of the pooled
// searcher and scratch buffers: goroutines solving a fixed corpus at the
// same time (the shape of the server's job worker pool) must each get
// exactly the serial answer. Instance shapes vary so pooled buffers are
// regrown and shrunk between solves, the small budget truncates some
// searches mid-tree, and every goroutine walks the corpus from a
// different offset so neighbouring solves differ in shape.
func TestSolveConcurrentMatchesSerial(t *testing.T) {
	type job struct {
		in   *Instance
		opts Options
	}
	rng := xrand.New(77)
	var corpus []job
	for trial := 0; trial < 24; trial++ {
		k := rng.UniformInt(2, 8)
		n := rng.UniformInt(k, 40)
		in := randomInstance(rng.SplitN("inst", trial), k, n, rng.Uniform(0.3, 1.4))
		for _, budget := range []int64{300, 20000} {
			corpus = append(corpus, job{in, Options{NodeBudget: budget}})
		}
	}
	serial := make([]Solution, len(corpus))
	truncated := 0
	for i, j := range corpus {
		serial[i] = Solve(j.in, j.opts)
		if serial[i].NodeBudgetHit {
			truncated++
		}
	}
	if truncated == 0 || truncated == len(corpus) {
		t.Fatalf("%d of %d serial solves truncated; the corpus must mix both", truncated, len(corpus))
	}

	const workers, rounds = 8, 2
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for off := range corpus {
					i := (w*len(corpus)/workers + off) % len(corpus)
					if err := sameSolution(Solve(corpus[i].in, corpus[i].opts), serial[i]); err != nil {
						errs <- fmt.Errorf("worker %d round %d instance %d: %v", w, r, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sameSolution reports the first difference between two solves of one
// instance, comparing costs and bounds bitwise.
func sameSolution(got, want Solution) error {
	switch {
	case got.Feasible != want.Feasible || got.Optimal != want.Optimal:
		return fmt.Errorf("feasible/optimal %v/%v, want %v/%v", got.Feasible, got.Optimal, want.Feasible, want.Optimal)
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return fmt.Errorf("cost %v, want %v", got.Cost, want.Cost)
	case math.Float64bits(got.LowerBound) != math.Float64bits(want.LowerBound):
		return fmt.Errorf("lower bound %v, want %v", got.LowerBound, want.LowerBound)
	case got.Nodes != want.Nodes:
		return fmt.Errorf("nodes %d, want %d", got.Nodes, want.Nodes)
	case len(got.Assign) != len(want.Assign):
		return fmt.Errorf("assignment length %d, want %d", len(got.Assign), len(want.Assign))
	}
	for j := range got.Assign {
		if got.Assign[j] != want.Assign[j] {
			return fmt.Errorf("task %d on GSP %d, want %d", j, got.Assign[j], want.Assign[j])
		}
	}
	return nil
}
