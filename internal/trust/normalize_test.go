package trust

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gridvo/internal/matrix"
	"gridvo/internal/xrand"
)

// twoStepNormalized is the reference path the one-pass CSR build must
// reproduce bit for bit: materialize the raw weights, then normalize them
// in place.
func twoStepNormalized(g *Graph, uniform bool) (matrix.Matrix, []int) {
	a := g.buildMatrix()
	return a, a.NormalizeRows(uniform)
}

// assertSameNormalized requires identical shape, stored-entry count,
// per-row (column, value-bits) sequences and dangling lists (nil-ness
// included). Every stored entry of a normalized trust matrix is positive,
// so RowNonZeros sees the whole structure.
func assertSameNormalized(t *testing.T, label string, got, want matrix.Matrix, gotD, wantD []int) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: %dx%d nnz %d, want %dx%d nnz %d", label,
			got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
	}
	type entry struct {
		j    int
		bits uint64
	}
	row := func(m matrix.Matrix, i int) []entry {
		var out []entry
		matrix.RowNonZeros(m, i, func(j int, v float64) { out = append(out, entry{j, math.Float64bits(v)}) })
		return out
	}
	for i := 0; i < want.Rows(); i++ {
		if g, w := row(got, i), row(want, i); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, g, w)
		}
	}
	if !reflect.DeepEqual(gotD, wantD) {
		t.Fatalf("%s: dangling %v, want %v", label, gotD, wantD)
	}
}

// danglingGraph is a sparse CSR-format graph with some rows cleared.
func danglingGraph(seed uint64, n int, degree float64) *Graph {
	rng := xrand.New(seed)
	g := SparseErdosRenyi(rng, n, degree)
	for i := 0; i < n; i += 1 + rng.IntN(5) {
		g.ClearOutgoing(i)
	}
	g.SetFormat(FormatCSR)
	return g
}

func TestNormalizedOnePassMatchesTwoStep(t *testing.T) {
	graphs := map[string]*Graph{
		"n0":           NewGraph(0),
		"n1":           NewGraph(1),
		"n1-self":      NewGraph(1),
		"all-dangling": NewGraph(6),
		"dense-rows":   ErdosRenyi(xrand.New(3), 12, 0.3),
	}
	graphs["n1-self"].SetTrust(0, 0, 0.25)
	for seed := uint64(1); seed <= 4; seed++ {
		graphs[fmt.Sprintf("sparse-%d", seed)] = danglingGraph(seed, 50+int(seed)*37, 3)
	}
	for name, g := range graphs {
		g.SetFormat(FormatCSR)
		for _, uniform := range []bool{true, false} {
			label := fmt.Sprintf("%s/uniform=%v", name, uniform)
			want, wantD := twoStepNormalized(g, uniform)
			got, gotD := g.Normalized(NormalizeOptions{DanglingUniform: uniform})
			assertSameNormalized(t, label+"/Normalized", got, want, gotD, wantD)
			g.WithNormalized(NormalizeOptions{DanglingUniform: uniform}, func(a matrix.Matrix, d []int) {
				assertSameNormalized(t, label+"/WithNormalized", a, want, d, wantD)
			})
		}
	}
}

// TestNormalizedStorageReuse solves large, small, then large nnz through
// reused storage — stale entries past the small matrix and under the
// second large one — and requires each to match a fresh Normalized.
func TestNormalizedStorageReuse(t *testing.T) {
	large, small := danglingGraph(11, 400, 6), danglingGraph(12, 30, 2)
	seq := []*Graph{large, small, large}
	for _, uniform := range []bool{true, false} {
		opts := NormalizeOptions{DanglingUniform: uniform}
		buf := &csrBuf{}
		for k, g := range seq {
			want, wantD := g.Normalized(opts)
			got, gotD := g.normalizedCSR(uniform, buf)
			assertSameNormalized(t, fmt.Sprintf("shared buffer step %d/uniform=%v", k, uniform), got, want, gotD, wantD)
			g.WithNormalized(opts, func(a matrix.Matrix, d []int) {
				assertSameNormalized(t, fmt.Sprintf("pool step %d/uniform=%v", k, uniform), a, want, d, wantD)
			})
		}
	}
}

func TestWithNormalizedDense(t *testing.T) {
	g := ErdosRenyi(xrand.New(8), 10, 0.5)
	g.ClearOutgoing(4)
	g.SetFormat(FormatDense)
	want, wantD := g.Normalized(NormalizeOptions{DanglingUniform: true})
	g.WithNormalized(NormalizeOptions{DanglingUniform: true}, func(a matrix.Matrix, d []int) {
		if _, ok := a.(*matrix.Dense); !ok {
			t.Fatalf("dense-format graph lent a %T", a)
		}
		assertSameNormalized(t, "dense", a, want, d, wantD)
	})
}
