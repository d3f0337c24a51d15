package reputation

import (
	"testing"

	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// These benchmarks track the sparse-substrate scaling claim (DESIGN §13):
// a power-method solve on a mean-degree-20 Erdős–Rényi graph is O(nnz)
// per iteration and a million nodes converge in single-digit seconds.
// BENCH_PR6.json records the full sweep to a million nodes; these are the
// in-tree timings, and TestGlobalFormatEquivalenceSparse checks the
// dense-vs-CSR bitwise identity on its sizes that have a dense twin.

func benchGlobalCSR(b *testing.B, n int) {
	g := trust.SparseErdosRenyi(xrand.New(42), n, 20)
	g.SetFormat(trust.FormatCSR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, diag, err := Global(g, DefaultOptions()); err != nil || !diag.Converged {
			b.Fatalf("solve failed: %+v err=%v", diag, err)
		}
	}
}

func BenchmarkGlobalCSR64k(b *testing.B)  { benchGlobalCSR(b, 65536) }
func BenchmarkGlobalCSR256k(b *testing.B) { benchGlobalCSR(b, 262144) }

// BenchmarkStoreResolve is the trust-delta serving step: a 64-op edge
// delta on a 50k-GSP, mean-degree-16 trust.Store, then a warm Resolve
// through Global. Most of its time is the normalization and the power
// iteration, so it tracks their per-solve cost and allocations.
func BenchmarkStoreResolve(b *testing.B) {
	const n, batch = 50000, 64
	rng := xrand.New(42)
	var seed []trust.DeltaOp
	for _, e := range trust.SparseErdosRenyi(rng.Split("graph"), n, 16).Edges() {
		seed = append(seed, trust.DeltaOp{From: e.From, To: e.To, Weight: e.Weight})
	}
	store := trust.NewStore(n)
	if _, err := store.ApplyDelta(0, seed); err != nil {
		b.Fatal(err)
	}
	solve := func(g *trust.Graph, warm []float64) (trust.SolveResult, error) {
		x, d, err := Global(g, Options{DanglingUniform: true, InitialVector: warm})
		return trust.SolveResult{Scores: x, Iterations: d.Iterations, Converged: d.Converged, Warm: d.Warm}, err
	}
	if _, _, err := store.Resolve(solve); err != nil {
		b.Fatal(err)
	}
	ops := rng.Split("deltas")
	delta := make([]trust.DeltaOp, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range delta {
			from, to := ops.IntN(n), ops.IntN(n-1)
			if to >= from {
				to++
			}
			delta[k] = trust.DeltaOp{From: from, To: to, Weight: 1 - ops.Float64()}
		}
		if _, err := store.ApplyDelta(0, delta); err != nil {
			b.Fatal(err)
		}
		res, _, err := store.Resolve(solve)
		if err != nil || !res.Warm {
			b.Fatalf("resolve: warm=%v err=%v", res.Warm, err)
		}
	}
}
