package trust

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"gridvo/internal/matrix"
	"gridvo/internal/xrand"
)

// Format selects the matrix representation a Graph materializes for the
// reputation pipeline.
type Format int

const (
	// FormatAuto picks CSR when the edge density is below DenseThreshold
	// and Dense otherwise. This is the default.
	FormatAuto Format = iota
	// FormatDense always materializes matrix.Dense.
	FormatDense
	// FormatCSR always materializes matrix.CSR.
	FormatCSR
)

// String returns the format name for flags and experiment metadata.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatDense:
		return "dense"
	case FormatCSR:
		return "csr"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat parses "auto", "dense", or "csr".
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "auto":
		return FormatAuto, nil
	case "dense":
		return FormatDense, nil
	case "csr":
		return FormatCSR, nil
	default:
		return FormatAuto, fmt.Errorf("trust: unknown matrix format %q (want auto, dense, or csr)", s)
	}
}

// DenseThreshold is the edge density (NumEdges / n²) at or above which
// FormatAuto materializes a dense matrix. Below it, CSR wins on both memory
// (3 words per edge vs n² floats) and per-iteration work (O(nnz) vs O(n²)).
// The crossover in microbenchmarks sits near 1/4: a CSR row costs one
// indirect load per entry vs the dense row's sequential scan.
const DenseThreshold = 0.25

// edge is one stored adjacency entry: node to receives weight w.
type edge struct {
	to int
	w  float64
}

// Graph is a weighted directed trust graph over n GSPs, identified by dense
// indices 0..n-1. Weights are non-negative; a zero weight is "no edge"
// (complete distrust). Edges are stored sparsely as per-row adjacency lists
// sorted by target index, so memory and full-graph traversals are O(n+nnz)
// rather than O(n²). Graph is not safe for concurrent mutation.
type Graph struct {
	n      int
	adj    [][]edge // adj[i] sorted ascending by to; only positive weights stored
	nnz    int      // total stored edges
	labels []string // optional display names, len n when present
	format Format   // matrix representation policy

	// weights caches the matrix view handed out by Weights. It is
	// invalidated by every mutation; see Weights for the aliasing contract.
	weights matrix.Matrix
}

// NewGraph returns an edgeless trust graph over n GSPs. It panics if n < 0.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("trust: NewGraph with negative n")
	}
	return &Graph{n: n, adj: make([][]edge, n)}
}

// FromMatrix builds a graph from a square weight matrix; entry (i,j) is
// u_ij. Negative or non-finite weights and a non-square matrix are rejected
// with an error because they typically indicate corrupted input files — a
// NaN that slips in here would propagate through row normalization into
// every reputation score.
func FromMatrix(w *matrix.Dense) (*Graph, error) {
	if w.Rows() != w.Cols() {
		return nil, fmt.Errorf("trust: weight matrix is %dx%d, want square", w.Rows(), w.Cols())
	}
	g := NewGraph(w.Rows())
	for i := 0; i < w.Rows(); i++ {
		for j := 0; j < w.Cols(); j++ {
			u := w.At(i, j)
			if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
				return nil, fmt.Errorf("trust: invalid weight %v at (%d,%d)", u, i, j)
			}
			if u > 0 {
				g.adj[i] = append(g.adj[i], edge{to: j, w: u})
				g.nnz++
			}
		}
	}
	return g, nil
}

// N returns the number of GSPs in the graph.
func (g *Graph) N() int { return g.n }

// SetFormat overrides the automatic matrix-format selection; see Format.
func (g *Graph) SetFormat(f Format) {
	g.format = f
	g.weights = nil
}

// MatrixFormat returns the configured representation policy.
func (g *Graph) MatrixFormat() Format { return g.format }

// checkNode panics if i is outside [0, n).
func (g *Graph) checkNode(i int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("trust: node %d out of range [0,%d)", i, g.n))
	}
}

// findEdge returns the position of target j in row i's adjacency and
// whether it is present; when absent, the position is the insertion point.
func (g *Graph) findEdge(i, j int) (int, bool) {
	row := g.adj[i]
	k := sort.Search(len(row), func(p int) bool { return row[p].to >= j })
	return k, k < len(row) && row[k].to == j
}

// SetTrust sets the direct trust u_ij that GSP i assigns to GSP j. Trust is
// asymmetric; setting (i,j) says nothing about (j,i). Self-trust (i == i)
// is allowed but conventionally zero. Setting a zero weight removes the
// edge. It panics on a negative or non-finite weight, which has no meaning
// in the model (and, for NaN, would poison the row normalization of eq. 1).
func (g *Graph) SetTrust(i, j int, u float64) {
	if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
		panic(fmt.Sprintf("trust: invalid trust weight %v", u))
	}
	g.checkNode(i)
	g.checkNode(j)
	g.weights = nil
	row := g.adj[i]
	// Fast path: generators emit edges in ascending target order, so the
	// common insertion lands past the current row tail.
	if u > 0 && (len(row) == 0 || row[len(row)-1].to < j) {
		g.adj[i] = append(row, edge{to: j, w: u})
		g.nnz++
		return
	}
	k, ok := g.findEdge(i, j)
	switch {
	case ok && u > 0:
		row[k].w = u
	case ok: // u == 0: delete
		g.adj[i] = append(row[:k], row[k+1:]...)
		g.nnz--
	case u > 0:
		row = append(row, edge{})
		copy(row[k+1:], row[k:])
		row[k] = edge{to: j, w: u}
		g.adj[i] = row
		g.nnz++
	}
}

// Trust returns the direct trust u_ij (0 when there is no edge).
func (g *Graph) Trust(i, j int) float64 {
	g.checkNode(i)
	g.checkNode(j)
	if k, ok := g.findEdge(i, j); ok {
		return g.adj[i][k].w
	}
	return 0
}

// HasEdge reports whether i assigns any positive trust to j.
func (g *Graph) HasEdge(i, j int) bool { return g.Trust(i, j) > 0 }

// Neighbors returns N_i = {j : (i,j) ∈ E}, the GSPs that i has direct trust
// edges to, in ascending index order.
func (g *Graph) Neighbors(i int) []int {
	g.checkNode(i)
	row := g.adj[i]
	if len(row) == 0 {
		return nil
	}
	out := make([]int, len(row))
	for k, e := range row {
		out[k] = e.to
	}
	return out
}

// VisitNeighbors calls fn for each outgoing edge (j, u_ij) of GSP i in
// ascending target order, without allocating. It is the traversal primitive
// large-graph consumers should prefer over Neighbors/Trust loops.
func (g *Graph) VisitNeighbors(i int, fn func(j int, w float64)) {
	g.checkNode(i)
	for _, e := range g.adj[i] {
		fn(e.to, e.w)
	}
}

// InNeighbors returns the GSPs that have a direct trust edge to j. It scans
// all adjacency rows (O(n+nnz)); callers that need in-edges for every node
// should build the reverse adjacency once instead.
func (g *Graph) InNeighbors(j int) []int {
	g.checkNode(j)
	var out []int
	for i := 0; i < g.n; i++ {
		if _, ok := g.findEdge(i, j); ok {
			out = append(out, i)
		}
	}
	return out
}

// NumEdges returns the number of positive-weight edges.
func (g *Graph) NumEdges() int { return g.nnz }

// OutDegree returns |N_i|.
func (g *Graph) OutDegree(i int) int {
	g.checkNode(i)
	return len(g.adj[i])
}

// SetLabels attaches display names to the GSPs. It panics unless exactly n
// labels are provided.
func (g *Graph) SetLabels(labels []string) {
	if len(labels) != g.n {
		panic(fmt.Sprintf("trust: %d labels for %d nodes", len(labels), g.n))
	}
	g.labels = append([]string(nil), labels...)
}

// Label returns the display name of GSP i (falling back to "G<i>").
func (g *Graph) Label(i int) string {
	if g.labels != nil {
		return g.labels[i]
	}
	return fmt.Sprintf("G%d", i)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, adj: make([][]edge, g.n), nnz: g.nnz, format: g.format}
	for i, row := range g.adj {
		if len(row) > 0 {
			c.adj[i] = append([]edge(nil), row...)
		}
	}
	if g.labels != nil {
		c.labels = append([]string(nil), g.labels...)
	}
	return c
}

// Grow extends the graph to n nodes, preserving all existing edges and
// labels (new nodes get default labels). It panics if n is smaller than the
// current size.
func (g *Graph) Grow(n int) {
	if n < g.n {
		panic(fmt.Sprintf("trust: Grow(%d) below current size %d", n, g.n))
	}
	if n == g.n {
		return
	}
	g.weights = nil
	adj := make([][]edge, n)
	copy(adj, g.adj)
	g.adj = adj
	if g.labels != nil {
		for i := g.n; i < n; i++ {
			g.labels = append(g.labels, fmt.Sprintf("G%d", i))
		}
	}
	g.n = n
}

// ClearOutgoing removes every outgoing trust edge of GSP i, leaving the
// row dangling (the Σ_k u_ik = 0 case of eq. 1, which Normalized patches
// per NormalizeOptions). The chaos harness uses it to inject degenerate
// trust inputs. It panics if i is out of range.
func (g *Graph) ClearOutgoing(i int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("trust: ClearOutgoing(%d) out of range [0,%d)", i, g.n))
	}
	g.weights = nil
	g.nnz -= len(g.adj[i])
	g.adj[i] = nil
}

// pickFormat resolves FormatAuto against the current density.
func (g *Graph) pickFormat() Format {
	if g.format != FormatAuto {
		return g.format
	}
	if g.n == 0 {
		return FormatCSR
	}
	if float64(g.nnz) >= DenseThreshold*float64(g.n)*float64(g.n) {
		return FormatDense
	}
	return FormatCSR
}

// buildMatrix materializes a fresh weight matrix in the resolved format.
func (g *Graph) buildMatrix() matrix.Matrix {
	if g.pickFormat() == FormatDense {
		//gridvolint:ignore densehot dense is the resolved format for this graph's density
		w := matrix.NewDense(g.n, g.n)
		for i, row := range g.adj {
			for _, e := range row {
				w.Set(i, e.to, e.w)
			}
		}
		return w
	}
	colIdx := make([]int, 0, g.nnz)
	val := make([]float64, 0, g.nnz)
	rowPtr := make([]int, g.n+1)
	for i, row := range g.adj {
		for _, e := range row {
			colIdx = append(colIdx, e.to)
			val = append(val, e.w)
		}
		rowPtr[i+1] = len(val)
	}
	return matrix.NewCSRRaw(g.n, g.n, rowPtr, colIdx, val)
}

// Weights returns the raw trust weight matrix (u values, not normalized) in
// the graph's resolved format. The returned matrix is a cached READ-ONLY
// view: it is shared between callers and invalidated (not updated) by the
// next mutation, so callers must not modify it. Use WeightMatrix for a
// private dense copy or Normalized for the stochastic matrix.
func (g *Graph) Weights() matrix.Matrix {
	if g.weights == nil {
		g.weights = g.buildMatrix()
	}
	return g.weights
}

// WeightMatrix returns a private dense copy of the raw trust weight matrix
// (u values, not normalized). Prefer Weights, which is copy-free and
// format-aware; this remains for callers that genuinely need a mutable
// dense matrix.
func (g *Graph) WeightMatrix() *matrix.Dense {
	//gridvolint:ignore densehot explicit dense-copy API for mutable-matrix callers
	w := matrix.NewDense(g.n, g.n)
	for i, row := range g.adj {
		for _, e := range row {
			w.Set(i, e.to, e.w)
		}
	}
	return w
}

// NormalizeOptions control how eq. (1) handles GSPs with no outgoing trust
// (Σ_k u_ik = 0), for which the normalized row is undefined.
type NormalizeOptions struct {
	// DanglingUniform, when true (the default used by the mechanism),
	// replaces an all-zero row with the uniform distribution over all
	// members, the standard stochastic-matrix completion. When false the
	// row stays zero and the matrix is substochastic; the reputation power
	// method compensates by renormalizing its iterate.
	DanglingUniform bool
}

// Normalized returns the matrix A of normalized trust values a_ij (eq. 1):
// each row is divided by its sum. The second return lists the GSPs that had
// no outgoing trust at all and were patched per opts. The representation
// (Dense or CSR) follows the graph's Format policy; both produce bitwise-
// identical values (see the matrix.Matrix contract). The matrix is fresh
// and owned by the caller; WithNormalized lends one from pooled storage.
func (g *Graph) Normalized(opts NormalizeOptions) (matrix.Matrix, []int) {
	if g.pickFormat() == FormatDense {
		a := g.buildMatrix()
		dangling := a.NormalizeRows(opts.DanglingUniform)
		return a, dangling
	}
	return g.normalizedCSR(opts.DanglingUniform, &csrBuf{})
}

// WithNormalized calls fn with the matrix and dangling list Normalized
// would return, but a CSR matrix is backed by storage taken from a package
// pool and handed back when fn returns, so repeated solves on a large graph
// stop allocating (and garbage-collecting) a fresh O(nnz) matrix each time.
// fn must not retain the matrix or let it escape; the dangling slice is
// fresh and may be kept. Dense matrices are built fresh, as in Normalized.
func (g *Graph) WithNormalized(opts NormalizeOptions, fn func(a matrix.Matrix, dangling []int)) {
	if g.pickFormat() == FormatDense {
		fn(g.Normalized(opts))
		return
	}
	buf := csrPool.Get().(*csrBuf)
	defer csrPool.Put(buf)
	fn(g.normalizedCSR(opts.DanglingUniform, buf))
}

// csrBuf is the backing storage of a normalized CSR matrix. csrPool keeps
// it between WithNormalized calls rather than any long-lived owner (such as
// a Store) holding it, so an idle process does not pin an O(nnz) buffer:
// the pool drops it after two garbage collections.
type csrBuf struct {
	rowPtr, colIdx []int
	val            []float64
}

var csrPool = sync.Pool{New: func() any { return &csrBuf{} }}

// resize returns s with length n, reusing its backing array when large
// enough; reused contents are stale and callers overwrite every element.
// Empty storage is allocated exactly. Storage that is outgrown gets n/8
// spare capacity, so a pooled buffer behind a graph that gains edges
// between solves is reused rather than reallocated on every solve.
func resize[T any](s []T, n int) []T {
	switch {
	case cap(s) >= n:
		return s[:n]
	case cap(s) == 0:
		return make([]T, n)
	default:
		return make([]T, n, n+n/8)
	}
}

// normalizedCSR builds the row-normalized CSR matrix in one pass over the
// adjacency, into buf's storage (grown as needed and kept in buf). Every
// value is computed exactly as matrix.CSR.NormalizeRows computes it on
// buildMatrix's output — the row sum in ascending column order, then each
// weight divided (not multiplied by the reciprocal) by it — and dangling
// rows are materialized as explicit uniform rows at their position when
// uniform is set, so the result is bitwise identical to that two-step
// path. Adjacency rows hold only positive weights, so a zero sum means an
// empty row.
func (g *Graph) normalizedCSR(uniform bool, buf *csrBuf) (*matrix.CSR, []int) {
	n := g.n
	var dangling []int
	for i, row := range g.adj {
		if len(row) == 0 {
			dangling = append(dangling, i)
		}
	}
	nnz := g.nnz
	if uniform {
		nnz += len(dangling) * n
	}
	buf.rowPtr = resize(buf.rowPtr, n+1)
	buf.colIdx = resize(buf.colIdx, nnz)
	buf.val = resize(buf.val, nnz)
	rowPtr, colIdx, val := buf.rowPtr, buf.colIdx, buf.val
	rowPtr[0] = 0
	p := 0
	for i, row := range g.adj {
		if len(row) == 0 && uniform {
			u := 1 / float64(n)
			for j := 0; j < n; j++ {
				colIdx[p], val[p] = j, u
				p++
			}
		}
		s := 0.0
		for _, e := range row {
			s += e.w
		}
		for _, e := range row {
			colIdx[p], val[p] = e.to, e.w/s
			p++
		}
		rowPtr[i+1] = p
	}
	return matrix.NewCSRRaw(n, n, rowPtr, colIdx, val), dangling
}

// Subgraph returns the trust graph induced by keep: node k of the result is
// keep[k] of the original, with all edges among kept members preserved and
// every edge touching an evicted member dropped — exactly the graph update
// TVOF performs when removing a GSP ("removing not only G, but also all
// edges with direct trust to G"). It panics if keep contains duplicates or
// out-of-range indices.
func (g *Graph) Subgraph(keep []int) *Graph {
	pos := make([]int, g.n)
	for i := range pos {
		pos[i] = -1
	}
	for k, orig := range keep {
		if orig < 0 || orig >= g.n {
			panic(fmt.Sprintf("trust: Subgraph index %d out of range [0,%d)", orig, g.n))
		}
		if pos[orig] >= 0 {
			panic(fmt.Sprintf("trust: Subgraph duplicate index %d", orig))
		}
		pos[orig] = k
	}
	sub := NewGraph(len(keep))
	sub.format = g.format
	for k, orig := range keep {
		var row []edge
		for _, e := range g.adj[orig] {
			if nj := pos[e.to]; nj >= 0 {
				row = append(row, edge{to: nj, w: e.w})
			}
		}
		// keep may reorder nodes; restore the ascending-target invariant.
		sort.Slice(row, func(a, b int) bool { return row[a].to < row[b].to })
		sub.adj[k] = row
		sub.nnz += len(row)
	}
	if g.labels != nil {
		sub.labels = make([]string, len(keep))
		for k, orig := range keep {
			sub.labels[k] = g.labels[orig]
		}
	}
	return sub
}

// Without returns the subgraph with node i removed, plus the mapping from
// new indices to the original ones. It panics if i is out of range.
func (g *Graph) Without(i int) (*Graph, []int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("trust: Without(%d) out of range [0,%d)", i, g.n))
	}
	keep := make([]int, 0, g.n-1)
	for j := 0; j < g.n; j++ {
		if j != i {
			keep = append(keep, j)
		}
	}
	return g.Subgraph(keep), keep
}

// Edges returns all positive-weight edges sorted by (from, to); useful for
// serialization and deterministic iteration.
type Edge struct {
	From, To int
	Weight   float64
}

// Edges returns the edge list in (from, to) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.nnz)
	for i, row := range g.adj {
		for _, e := range row {
			out = append(out, Edge{From: i, To: e.to, Weight: e.w})
		}
	}
	return out
}

// StronglyConnected reports whether every node can reach every other node
// along positive-trust edges; reputations on graphs that are not strongly
// connected may concentrate all mass on a closed subset, which the
// diagnostics of the reputation package surface. Both passes are O(n+nnz):
// the reverse pass builds the transpose adjacency once instead of probing
// every (v,u) pair.
func (g *Graph) StronglyConnected() bool {
	if g.n == 0 {
		return true
	}
	bfs := func(adj [][]int) int {
		seen := make([]bool, g.n)
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					count++
					stack = append(stack, v)
				}
			}
		}
		return count
	}
	fwd := make([][]int, g.n)
	rev := make([][]int, g.n)
	for i, row := range g.adj {
		for _, e := range row {
			fwd[i] = append(fwd[i], e.to)
			rev[e.to] = append(rev[e.to], i)
		}
	}
	return bfs(fwd) == g.n && bfs(rev) == g.n
}

// ErdosRenyi generates a random trust graph with m GSPs where each ordered
// pair (i,j), i != j, receives an edge independently with probability p;
// edge weights are uniform in (0, 1]. This is the G(m, p) model the paper
// uses with m = 16 and p = 0.1 (Section IV-A). The draw sequence visits
// every ordered pair, so generation is O(m²); use SparseErdosRenyi for
// large sparse graphs.
func ErdosRenyi(rng *xrand.RNG, m int, p float64) *Graph {
	if m < 0 {
		panic("trust: ErdosRenyi with negative m")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("trust: ErdosRenyi with p=%v outside [0,1]", p))
	}
	g := NewGraph(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			if rng.Bool(p) {
				// (0,1]: avoid a zero weight, which would mean "no edge".
				g.SetTrust(i, j, 1-rng.Float64())
			}
		}
	}
	return g
}

// SparseErdosRenyi generates G(m, p) with p = meanDegree/(m-1) in O(m+nnz)
// time and memory via geometric gap sampling: instead of flipping a coin
// per ordered pair, it draws the gap to the next present edge directly from
// the geometric distribution (skip = ⌊log(1−U)/log(1−p)⌋). Edge weights are
// uniform in (0, 1] as in ErdosRenyi. The draw sequence differs from
// ErdosRenyi's, so the two generators produce different graphs for the same
// stream — callers choose one per experiment, not interchangeably.
func SparseErdosRenyi(rng *xrand.RNG, m int, meanDegree float64) *Graph {
	if m < 0 {
		panic("trust: SparseErdosRenyi with negative m")
	}
	if meanDegree < 0 {
		panic(fmt.Sprintf("trust: SparseErdosRenyi with negative mean degree %v", meanDegree))
	}
	g := NewGraph(m)
	if m < 2 || meanDegree == 0 {
		return g
	}
	p := meanDegree / float64(m-1)
	if p >= 1 {
		// Complete graph: every ordered pair gets an edge.
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if i != j {
					g.SetTrust(i, j, 1-rng.Float64())
				}
			}
		}
		return g
	}
	// Ordered pairs (i,j), i≠j, are enumerated as positions 0..m(m-1)-1:
	// position q maps to i = q/(m-1) and the q%(m-1)-th non-i column.
	total := uint64(m) * uint64(m-1)
	logq := math.Log1p(-p)
	var pos uint64
	for pos < total {
		u := rng.Float64()
		// skip ~ Geometric(p): number of absent pairs before the next edge.
		skip := math.Floor(math.Log1p(-u) / logq)
		if skip >= float64(total-pos) {
			break
		}
		pos += uint64(skip)
		i := int(pos / uint64(m-1))
		j := int(pos % uint64(m-1))
		if j >= i {
			j++
		}
		g.SetTrust(i, j, 1-rng.Float64())
		pos++
	}
	return g
}

// EnsureEveryNodeTrusted adds, for any node with no incoming trust, a
// single random incoming edge. Experiments that require every GSP to be
// evaluable (so the reputation vector has no structurally forced zeros) use
// this as a post-processing step; it is NOT part of the paper's setup and
// is off by default in the harness.
func EnsureEveryNodeTrusted(rng *xrand.RNG, g *Graph) {
	if g.n < 2 {
		return
	}
	// In-degrees are precomputed in one O(n+nnz) pass. Edges added below
	// only ever point at nodes already found untrusted (processed in
	// ascending order with a fresh positive in-degree), so the precomputed
	// counts remain valid for every later node — the node-by-node draw
	// sequence is identical to probing InNeighbors per node.
	indeg := make([]int, g.n)
	for _, row := range g.adj {
		for _, e := range row {
			indeg[e.to]++
		}
	}
	for j := 0; j < g.n; j++ {
		if indeg[j] > 0 {
			continue
		}
		i := rng.IntN(g.n - 1)
		if i >= j {
			i++
		}
		g.SetTrust(i, j, 1-rng.Float64())
	}
}

// Density returns the fraction of possible directed edges present.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return float64(g.nnz) / (float64(g.n) * float64(g.n-1))
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("trust.Graph{n=%d, edges=%d}", g.n, g.nnz)
}
