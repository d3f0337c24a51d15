package reputation

import (
	"fmt"
	"math"
	"testing"

	"gridvo/internal/trust"
	"gridvo/internal/xrand"
)

// These tests pin the PR 6 substrate contract: for the same trust graph,
// the Dense and CSR materializations must produce bitwise-identical
// reputation vectors and diagnostics — not merely close. Any divergence
// means the accumulation orders drifted apart and determinism fingerprints
// would fork by format.

func formatPair(seed uint64, n int, p float64) (*trust.Graph, *trust.Graph) {
	return formatTwins(trust.ErdosRenyi(xrand.New(seed), n, p))
}

// formatTwins returns a Dense and a CSR copy of g.
func formatTwins(g *trust.Graph) (*trust.Graph, *trust.Graph) {
	gd, gc := g.Clone(), g.Clone()
	gd.SetFormat(trust.FormatDense)
	gc.SetFormat(trust.FormatCSR)
	return gd, gc
}

func assertBitsEqual(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: index %d dense %v (%#x) != csr %v (%#x)",
				label, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// assertGlobalEquivalent solves the Dense and CSR twins with opts and
// requires bitwise-identical scores and diagnostics.
func assertGlobalEquivalent(t *testing.T, label string, gd, gc *trust.Graph, opts Options) {
	t.Helper()
	xd, dd, errD := Global(gd, opts)
	xc, dc, errC := Global(gc, opts)
	if (errD == nil) != (errC == nil) {
		t.Fatalf("%s: error mismatch %v vs %v", label, errD, errC)
	}
	if errD != nil {
		return
	}
	assertBitsEqual(t, label+" scores", xd, xc)
	if dd.Iterations != dc.Iterations || dd.Converged != dc.Converged ||
		math.Float64bits(dd.Delta) != math.Float64bits(dc.Delta) {
		t.Fatalf("%s: diagnostics %+v vs %+v", label, dd, dc)
	}
	if len(dd.Dangling) != len(dc.Dangling) {
		t.Fatalf("%s: dangling %v vs %v", label, dd.Dangling, dc.Dangling)
	}
}

func TestGlobalFormatEquivalence(t *testing.T) {
	for _, n := range []int{3, 8, 16, 40} {
		for _, p := range []float64{0.05, 0.2, 0.5, 0.9} {
			gd, gc := formatPair(uint64(n*100)+uint64(p*1000), n, p)
			for _, opts := range []Options{
				DefaultOptions(),
				{DanglingUniform: false},
				{DanglingUniform: true, Damping: 0.15},
				{DanglingUniform: true, Stop: StopAvgRelErr},
			} {
				assertGlobalEquivalent(t, fmt.Sprintf("n=%d p=%v", n, p), gd, gc, opts)
			}
		}
	}
}

// TestGlobalFormatEquivalenceSparse extends the bitwise check to the
// sparse Erdős–Rényi graphs of BENCH_PR6's dense-twin points (n:degree
// 256:8, 1024:16 and 4096:16, seed 42): sizes where CSR is the resolved
// format and the dense matrix is still small enough to materialize.
func TestGlobalFormatEquivalenceSparse(t *testing.T) {
	for _, pt := range []struct {
		n      int
		degree float64
	}{{256, 8}, {1024, 16}, {4096, 16}} {
		g := trust.SparseErdosRenyi(xrand.New(42).Split(fmt.Sprintf("sparse-%d", pt.n)), pt.n, pt.degree)
		gd, gc := formatTwins(g)
		assertGlobalEquivalent(t, fmt.Sprintf("n=%d degree=%v", pt.n, pt.degree), gd, gc, DefaultOptions())
	}
}

func TestGlobalFormatEquivalenceWarmStart(t *testing.T) {
	gd, gc := formatPair(42, 16, 0.1)
	// Cold solve establishes the eigenvector, then a perturbed warm start
	// must follow the identical trajectory in both formats.
	xd, _, err := Global(gd, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	warm := append([]float64(nil), xd...)
	warm[0] += 0.01
	opts := DefaultOptions()
	opts.InitialVector = warm
	wd, dd, errD := Global(gd, opts)
	wc, dc, errC := Global(gc, opts)
	if errD != nil || errC != nil {
		t.Fatalf("warm solves errored: %v %v", errD, errC)
	}
	if !dd.Warm || !dc.Warm {
		t.Fatalf("warm flag lost: dense %+v csr %+v", dd, dc)
	}
	assertBitsEqual(t, "warm scores", wd, wc)
	if dd.Iterations != dc.Iterations {
		t.Fatalf("warm iterations %d vs %d", dd.Iterations, dc.Iterations)
	}
}

func TestCentralityFormatEquivalence(t *testing.T) {
	for _, c := range []Centrality{
		CentralityPower, CentralityInDegree, CentralityOutDegree,
		CentralityCloseness, CentralityBetweenness, CentralityPageRank,
	} {
		gd, gc := formatPair(11, 14, 0.2)
		sd, errD := Scores(gd, c)
		sc, errC := Scores(gc, c)
		if errD != nil || errC != nil {
			t.Fatalf("%v: %v %v", c, errD, errC)
		}
		assertBitsEqual(t, c.String(), sd, sc)
	}
}

func TestEigenTrustFormatEquivalence(t *testing.T) {
	gd, gc := formatPair(13, 16, 0.15)
	opts := EigenTrustOptions{PreTrusted: []int{0, 3}}
	xd, dd, errD := EigenTrust(gd, opts)
	xc, dc, errC := EigenTrust(gc, opts)
	if errD != nil || errC != nil {
		t.Fatalf("EigenTrust errored: %v %v", errD, errC)
	}
	assertBitsEqual(t, "eigentrust", xd, xc)
	if dd.Iterations != dc.Iterations {
		t.Fatalf("EigenTrust iterations %d vs %d", dd.Iterations, dc.Iterations)
	}
}

// TestWarmBeatsColdOnSparseGraph pins the incremental-reputation premise:
// after a small perturbation, re-solving from the previous eigenvector
// takes strictly fewer iterations than a cold start.
func TestWarmBeatsColdOnSparseGraph(t *testing.T) {
	g := trust.SparseErdosRenyi(xrand.New(99), 400, 10)
	x, cold, err := Global(g, DefaultOptions())
	if err != nil || !cold.Converged {
		t.Fatalf("cold solve: %+v err=%v", cold, err)
	}
	// Perturb one edge, then warm-solve.
	g.SetTrust(1, 2, 0.5)
	opts := DefaultOptions()
	opts.InitialVector = x
	_, warm, err := Global(g, opts)
	if err != nil || !warm.Converged || !warm.Warm {
		t.Fatalf("warm solve: %+v err=%v", warm, err)
	}
	_, cold2, err := Global(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations >= cold2.Iterations {
		t.Fatalf("warm start took %d iterations, cold %d", warm.Iterations, cold2.Iterations)
	}
}
