package matrix

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// Matrix is the format-agnostic contract the reputation pipeline is written
// against. Dense and CSR both implement it; consumers that only multiply,
// normalize, and slice never need to know which representation backs the
// trust graph.
//
// Implementations must agree bitwise, not just approximately: for any Dense
// d and the CSR holding exactly d's nonzero entries, every method below must
// return bit-identical float64 values. This holds because the pipeline's
// values are non-negative, so skipping zero terms never flips a sign or
// perturbs a partial sum (x + 0 == x bitwise for x ≥ 0), provided entries
// are visited in the same (row, then column) order — which is why CSR keeps
// columns sorted within each row.
type Matrix interface {
	// Rows returns the number of rows.
	Rows() int
	// Cols returns the number of columns.
	Cols() int
	// At returns the element at row i, column j.
	At(i, j int) float64
	// MulVec computes y = A·x; x must have length Cols.
	MulVec(x []float64) []float64
	// TMulVec computes y = Aᵀ·x without materializing the transpose; x must
	// have length Rows. This is the power-method kernel (eq. 5).
	TMulVec(x []float64) []float64
	// RowSums returns the vector of per-row sums.
	RowSums() []float64
	// NormalizeRows scales each row in place to sum 1, patching zero rows
	// per uniform, and returns the indices of the zero rows (see
	// Dense.NormalizeRows for the exact contract).
	NormalizeRows(uniform bool) []int
	// Submatrix returns the matrix induced by keeping the given row/column
	// indices, in the given order; the receiver must be square.
	Submatrix(idx []int) Matrix
	// NNZ returns the number of stored nonzero entries.
	NNZ() int
}

// Compile-time checks that both formats satisfy the interface.
var (
	_ Matrix = (*Dense)(nil)
	_ Matrix = (*CSR)(nil)
)

// CSR is a compressed-sparse-row matrix: row i's entries live at positions
// rowPtr[i] .. rowPtr[i+1] of colIdx/val, with strictly ascending column
// indices inside each row. The ascending-column invariant is load-bearing:
// it makes every accumulation visit entries in the same order a dense
// row-major traversal would, which keeps CSR results bitwise identical to
// Dense (see the Matrix contract).
type CSR struct {
	rows, cols int
	rowPtr     []int // len rows+1
	colIdx     []int // len nnz
	val        []float64

	// tmu guards tcache, the lazily built transposed row-banded layout
	// backing TMulVec on wide matrices. The cache never changes the
	// numbers — only memory locality — and is dropped by every
	// structure-producing operation (Clone, Submatrix, NormalizeRows
	// rebuilds) by virtue of those constructing fresh values.
	tmu    sync.Mutex
	tcache *cscBands
}

// NewCSR returns an empty (all-zero) rows×cols CSR matrix. It panics if
// either dimension is negative.
func NewCSR(rows, cols int) *CSR {
	if rows < 0 || cols < 0 {
		panic("matrix: NewCSR with negative dimension")
	}
	return &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
}

// NewCSRRaw wraps pre-built CSR slices without copying: rowPtr must have
// length rows+1, start at 0, end at len(val), and be nondecreasing; colIdx
// must be strictly ascending within each row with in-range columns; colIdx
// and val must have equal length. The caller relinquishes ownership of the
// slices. Validation is O(nnz) and panics on violation, since a malformed
// structure would silently break the bitwise-identity contract.
func NewCSRRaw(rows, cols int, rowPtr, colIdx []int, val []float64) *CSR {
	if rows < 0 || cols < 0 {
		panic("matrix: NewCSRRaw with negative dimension")
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(val) || len(colIdx) != len(val) {
		panic("matrix: NewCSRRaw with inconsistent structure")
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			panic("matrix: NewCSRRaw with decreasing rowPtr")
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < 0 || colIdx[k] >= cols {
				panic(fmt.Sprintf("matrix: NewCSRRaw column %d out of range [0,%d)", colIdx[k], cols))
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				panic(fmt.Sprintf("matrix: NewCSRRaw row %d columns not strictly ascending", i))
			}
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns the element at row i, column j (0 when no entry is stored).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.val[k]
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		val:    append([]float64(nil), m.val...),
	}
	return out
}

// MulVec computes y = A·x; x must have length Cols.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("matrix: MulVec with len(x)=%d, want %d", len(x), m.cols))
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
	return y
}

// tmulBandRows is the row-band height of the cache-blocked TMulVec path:
// 1<<15 source slots = 256 KiB of x per band, sized to stay L2-resident.
// tmulBandThreshold gates the blocked path to matrices whose output
// vector overflows that budget — below it the simple row sweep is faster
// and the transposed side structure is not worth building.
const (
	tmulBandRows      = 1 << 15
	tmulBandThreshold = 1 << 17
)

// cscBands is a transposed copy of a CSR's entries grouped into row
// bands: band b holds the entries of rows [b·tmulBandRows,
// (b+1)·tmulBandRows), sorted by (column, row) and packed as
// key = column<<16 | rowOffsetWithinBand. Within a band, TMulVec reads x
// only inside the band's 256 KiB window and writes y in ascending column
// order — both cache-friendly — while every output slot y[j] still
// receives its contributions in globally ascending row order (bands
// ascend, rows ascend within a band), i.e. exactly the dense row-sweep
// order. The blocked product is therefore bitwise identical to the
// simple path for every input, not merely close.
type cscBands struct {
	bandPtr []int // band b entries occupy [bandPtr[b], bandPtr[b+1])
	key     []uint64
	val     []float64
}

// tBands returns the lazily built transposed layout, constructing it on
// first use. The per-band sort is an LSD radix over the column bytes —
// stable, so the CSR's ascending-row entry order survives per column —
// chosen over a counting sort across all columns because its 256-bucket
// passes write sequentially (a whole-column scatter would repeat the very
// cache behavior this structure exists to avoid). O(nnz · colBytes) time,
// O(nnz) extra memory.
func (m *CSR) tBands() *cscBands {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	if m.tcache != nil {
		return m.tcache
	}
	nnz := len(m.val)
	nb := (m.rows + tmulBandRows - 1) / tmulBandRows
	t := &cscBands{
		bandPtr: make([]int, nb+1),
		key:     make([]uint64, nnz),
		val:     make([]float64, nnz),
	}
	// Rows are stored in ascending order, so each band's entries are
	// already contiguous in the CSR arrays.
	maxBand := 0
	for b := 0; b < nb; b++ {
		hiRow := (b + 1) * tmulBandRows
		if hiRow > m.rows {
			hiRow = m.rows
		}
		t.bandPtr[b+1] = m.rowPtr[hiRow]
		if l := t.bandPtr[b+1] - t.bandPtr[b]; l > maxBand {
			maxBand = l
		}
	}
	colBits := bits.Len(uint(m.cols - 1))
	ks := make([]uint64, maxBand)
	vs := make([]float64, maxBand)
	var count [256]int
	for b := 0; b < nb; b++ {
		lo, hi := t.bandPtr[b], t.bandPtr[b+1]
		n := hi - lo
		if n == 0 {
			continue
		}
		base := b * tmulBandRows
		hiRow := base + tmulBandRows
		if hiRow > m.rows {
			hiRow = m.rows
		}
		p := lo
		for i := base; i < hiRow; i++ {
			off := uint64(i - base)
			for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
				t.key[p] = uint64(m.colIdx[k])<<16 | off
				t.val[p] = m.val[k]
				p++
			}
		}
		src, sv := t.key[lo:hi], t.val[lo:hi]
		dst, dv := ks[:n], vs[:n]
		for shift := 0; shift < colBits; shift += 8 {
			s := uint(16 + shift)
			count = [256]int{}
			for _, k := range src {
				count[(k>>s)&0xff]++
			}
			run := 0
			for c := 0; c < 256; c++ {
				cc := count[c]
				count[c] = run
				run += cc
			}
			for idx, k := range src {
				c := (k >> s) & 0xff
				dst[count[c]] = k
				dv[count[c]] = sv[idx]
				count[c]++
			}
			src, dst = dst, src
			sv, dv = dv, sv
		}
		if &src[0] != &t.key[lo] {
			copy(t.key[lo:hi], src)
			copy(t.val[lo:hi], sv)
		}
	}
	m.tcache = t
	return t
}

// invalidateT drops the transposed cache after an in-place mutation.
func (m *CSR) invalidateT() {
	m.tmu.Lock()
	m.tcache = nil
	m.tmu.Unlock()
}

// TMulVec computes y = Aᵀ·x without materializing the transpose; x must have
// length Rows. Rows are visited in ascending order and entries within a row
// in ascending column order, matching Dense.TMulVec's accumulation order
// exactly, so results are bitwise identical on equal inputs.
func (m *CSR) TMulVec(x []float64) []float64 {
	y := make([]float64, m.cols)
	m.TMulVecInto(y, x)
	return y
}

// TMulVecInto is TMulVec writing into y, which must have length Cols: y is
// overwritten (never accumulated into) and the result is bitwise identical
// to TMulVec's. It allocates nothing once the banded layout of a wide matrix
// is built, so a power iteration can ping-pong two vectors. It is
// deliberately not part of the Matrix interface; callers reach it through
// an optional-interface assertion and fall back to TMulVec.
func (m *CSR) TMulVecInto(y, x []float64) {
	if len(x) != m.rows {
		panic(fmt.Sprintf("matrix: TMulVec with len(x)=%d, want %d", len(x), m.rows))
	}
	if len(y) != m.cols {
		panic(fmt.Sprintf("matrix: TMulVecInto with len(y)=%d, want %d", len(y), m.cols))
	}
	clear(y)
	if m.cols >= tmulBandThreshold {
		t := m.tBands()
		for b := 0; b+1 < len(t.bandPtr); b++ {
			base := b * tmulBandRows
			for p := t.bandPtr[b]; p < t.bandPtr[b+1]; p++ {
				k := t.key[p]
				xi := x[base+int(k&0xffff)]
				if xi == 0 {
					continue
				}
				y[k>>16] += t.val[p] * xi
			}
		}
		return
	}
	rowPtr, colIdx, val := m.rowPtr, m.colIdx, m.val
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols, vals := colIdx[lo:hi], val[lo:hi]
		for k, j := range cols {
			y[j] += vals[k] * xi
		}
	}
}

// RowSums returns the vector of per-row sums.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k]
		}
		out[i] = s
	}
	return out
}

// NormalizeRows scales each row in place so it sums to 1 and returns the
// indices of the rows whose sum was zero. When uniform is true, zero rows
// are MATERIALIZED as explicit full rows of 1/cols entries — the structure
// is rebuilt so the patched rows participate in every later traversal at
// their natural position, keeping TMulVec/MulVec bitwise identical to the
// dense dangling fix. Dangling rows are rare in trust graphs (a GSP with no
// outgoing trust), so the extra cols entries per patched row are cheap.
//
// Like the dense version, nonzero rows divide by the sum directly rather
// than multiplying by its reciprocal: for subnormal sums 1/s overflows to
// +Inf, while v/s with 0 ≤ v ≤ s is always in [0,1].
func (m *CSR) NormalizeRows(uniform bool) []int {
	m.invalidateT() // values change in place; drop the transposed cache
	var zeroRows []int
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k]
		}
		if s == 0 {
			zeroRows = append(zeroRows, i)
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			m.val[k] /= s
		}
	}
	if !uniform || len(zeroRows) == 0 || m.cols == 0 {
		return zeroRows
	}
	// Rebuild with the zero rows patched to explicit uniform rows. A row
	// with a zero sum can still hold entries (explicit zeros, or values
	// cancelling to zero never occur here since weights are non-negative);
	// those entries are replaced wholesale, mirroring the dense overwrite.
	u := 1 / float64(m.cols)
	zeroSet := make(map[int]bool, len(zeroRows))
	kept := 0
	for _, i := range zeroRows {
		zeroSet[i] = true
	}
	for i := 0; i < m.rows; i++ {
		if !zeroSet[i] {
			kept += m.rowPtr[i+1] - m.rowPtr[i]
		}
	}
	nnz := kept + len(zeroRows)*m.cols
	rowPtr := make([]int, m.rows+1)
	colIdx := make([]int, 0, nnz)
	val := make([]float64, 0, nnz)
	for i := 0; i < m.rows; i++ {
		if zeroSet[i] {
			for j := 0; j < m.cols; j++ {
				colIdx = append(colIdx, j)
				val = append(val, u)
			}
		} else {
			colIdx = append(colIdx, m.colIdx[m.rowPtr[i]:m.rowPtr[i+1]]...)
			val = append(val, m.val[m.rowPtr[i]:m.rowPtr[i+1]]...)
		}
		rowPtr[i+1] = len(colIdx)
	}
	m.rowPtr, m.colIdx, m.val = rowPtr, colIdx, val
	return zeroRows
}

// Submatrix returns the matrix induced by keeping the given row/column
// indices, in the given order. It panics if idx contains an out-of-range or
// duplicate index. The receiver must be square (trust matrices always are).
func (m *CSR) Submatrix(idx []int) Matrix {
	if m.rows != m.cols {
		panic("matrix: Submatrix requires a square matrix")
	}
	pos := make([]int, m.cols)
	for j := range pos {
		pos[j] = -1
	}
	for k, v := range idx {
		if v < 0 || v >= m.rows {
			panic(fmt.Sprintf("matrix: Submatrix index %d out of range [0,%d)", v, m.rows))
		}
		if pos[v] >= 0 {
			panic(fmt.Sprintf("matrix: Submatrix duplicate index %d", v))
		}
		pos[v] = k
	}
	out := NewCSR(len(idx), len(idx))
	type entry struct {
		col int
		v   float64
	}
	var scratch []entry
	for ni, ri := range idx {
		scratch = scratch[:0]
		for k := m.rowPtr[ri]; k < m.rowPtr[ri+1]; k++ {
			if nj := pos[m.colIdx[k]]; nj >= 0 {
				scratch = append(scratch, entry{col: nj, v: m.val[k]})
			}
		}
		// idx may reorder columns, so re-sort to restore the ascending
		// invariant within the new row.
		sort.Slice(scratch, func(a, b int) bool { return scratch[a].col < scratch[b].col })
		for _, e := range scratch {
			out.colIdx = append(out.colIdx, e.col)
			out.val = append(out.val, e.v)
		}
		out.rowPtr[ni+1] = len(out.val)
	}
	return out
}

// Dense materializes the CSR matrix as a Dense.
func (m *CSR) Dense() *Dense {
	out := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			out.Set(i, m.colIdx[k], m.val[k])
		}
	}
	return out
}

// CSRFromDense converts a Dense matrix to CSR, keeping only its nonzero
// entries. Note an explicit -0 entry is dropped (it compares equal to zero);
// reading it back through At yields +0, which is ==-equal but not
// bit-identical — trust weights are never negative, so this cannot occur in
// the pipeline.
func CSRFromDense(d *Dense) *CSR {
	out := NewCSR(d.Rows(), d.Cols())
	for i := 0; i < d.rows; i++ {
		row := d.data[i*d.cols : (i+1)*d.cols]
		for j, v := range row {
			if v != 0 {
				out.colIdx = append(out.colIdx, j)
				out.val = append(out.val, v)
			}
		}
		out.rowPtr[i+1] = len(out.val)
	}
	return out
}

// String renders the matrix for debugging.
func (m *CSR) String() string {
	return fmt.Sprintf("matrix.CSR{%dx%d, nnz=%d}", m.rows, m.cols, len(m.val))
}

// Builder accumulates (row, col, value) triplets in any order and finalizes
// them into a CSR matrix with sorted columns and deterministically merged
// duplicates. It is the construction path for callers that discover entries
// out of order (delta batches, transposes, file loads).
type Builder struct {
	rows, cols int
	row, col   []int
	val        []float64
}

// NewBuilder returns a Builder for a rows×cols matrix. It panics if either
// dimension is negative.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic("matrix: NewBuilder with negative dimension")
	}
	return &Builder{rows: rows, cols: cols}
}

// Add records a triplet. Duplicate (i,j) coordinates are summed in insertion
// order at Build time, which keeps the result independent of map iteration
// or other nondeterminism. It panics on out-of-range coordinates.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("matrix: Builder.Add (%d,%d) out of bounds for %dx%d matrix", i, j, b.rows, b.cols))
	}
	b.row = append(b.row, i)
	b.col = append(b.col, j)
	b.val = append(b.val, v)
}

// Build finalizes the accumulated triplets into a CSR matrix. Triplets are
// ordered by (row, col) with a stable sort, so duplicates merge by summing
// in insertion order — fully deterministic regardless of Add order for
// distinct coordinates. Entries whose merged value is exactly zero are kept
// as explicit zeros (callers that need pruning skip zeros before Add). The
// Builder may be reused after Build; previously added triplets remain.
func (b *Builder) Build() *CSR {
	order := make([]int, len(b.val))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		ix, iy := order[x], order[y]
		if b.row[ix] != b.row[iy] {
			return b.row[ix] < b.row[iy]
		}
		return b.col[ix] < b.col[iy]
	})
	out := NewCSR(b.rows, b.cols)
	prevRow, prevCol := -1, -1
	for _, k := range order {
		r, c, v := b.row[k], b.col[k], b.val[k]
		if r == prevRow && c == prevCol {
			out.val[len(out.val)-1] += v
			continue
		}
		out.colIdx = append(out.colIdx, c)
		out.val = append(out.val, v)
		prevRow, prevCol = r, c
		out.rowPtr[r+1]++
	}
	// Convert per-row counts into cumulative offsets.
	for i := 1; i <= b.rows; i++ {
		out.rowPtr[i] += out.rowPtr[i-1]
	}
	return out
}

// RowNonZeros calls fn for each stored nonzero entry (j, v) of row i in
// ascending column order. For Dense it skips zero elements. It is the
// format-agnostic replacement for materializing rows via Dense.Row.
func RowNonZeros(m Matrix, i int, fn func(j int, v float64)) {
	switch t := m.(type) {
	case *CSR:
		if i < 0 || i >= t.rows {
			panic(fmt.Sprintf("matrix: row %d out of bounds for %dx%d matrix", i, t.rows, t.cols))
		}
		for k := t.rowPtr[i]; k < t.rowPtr[i+1]; k++ {
			if t.val[k] != 0 {
				fn(t.colIdx[k], t.val[k])
			}
		}
	case *Dense:
		if i < 0 || i >= t.rows {
			panic(fmt.Sprintf("matrix: row %d out of bounds for %dx%d matrix", i, t.rows, t.cols))
		}
		row := t.data[i*t.cols : (i+1)*t.cols]
		for j, v := range row {
			if v != 0 {
				fn(j, v)
			}
		}
	default:
		for j := 0; j < m.Cols(); j++ {
			if v := m.At(i, j); v != 0 {
				fn(j, v)
			}
		}
	}
}
