package tensor

// Dense matrix multiplication kernels with the orientations required by
// backpropagation through a linear layer:
//
//	forward:     Y  = X·W      (MatMul)
//	grad input:  dX = dY·Wᵀ    (MatMulBT)
//	grad weight: dW = Xᵀ·dY    (MatMulAT / MatMulATAdd)
//
// All matrices are row-major flat slices. Every orientation is one fold
// (foldRows): where the CPU has the lane features, 4-row × 16-column
// blocks of C stay in AVX registers for the whole reduction
// (gemm_amd64.s); the column and row tails, and every block elsewhere, run
// the axpy sweep (axpy_amd64.s / axpy_generic.go), where each output row is
// a contiguous vector that up to four input rows fold into per pass.
// Blocking and vectorization only span output elements — every element
// still folds its products left to right in the same operand order as the
// naive triple loop (ascending p for MatMul/MatMulBT, ascending i for the
// Aᵀ orientations), and neither the assembly nor the Go compiler contracts
// a*b+c into an FMA — so results are bitwise identical to the scalar
// reference on every architecture and the stage-equivalence goldens hold
// exactly.
//
// Kernels fan out over a persistent worker pool (pool.go) when the problem
// is large enough to amortize the handoff — the same compute/communication
// granularity argument the ZeRO paper makes for data parallelism applies
// inside a rank. Row kernels split output rows; the matvec case (one
// output row, e.g. single-token generate) splits output columns instead.

// parallelThreshold is the number of fused multiply-adds below which the
// kernels stay single-threaded. It doubles as the floor above which
// MatMulBT buys a transposed copy of B to run in the row-sweep form.
const parallelThreshold = 1 << 16

// MatMul computes C[m×n] = A[m×k] · B[k×n], overwriting C.
func MatMul(c, a, b []float32, m, k, n int) {
	checkDims(len(a), m*k, "A")
	checkDims(len(b), k*n, "B")
	checkDims(len(c), m*n, "C")
	work := m * k * n
	switch {
	case fanOut(m, work):
		runParallel(opMM, c, a, b, k, n, 0, m)
	case m == 1 && fanOut(n, work):
		runParallel(opMMCols, c, a, b, k, n, 0, n)
	default:
		matMulRange(c, a, b, k, n, 0, m)
	}
}

// matMulRange computes rows [lo,hi) of C = A·B in the row-major "axpy"
// orientation: C's row i is a linear combination of B's rows with
// coefficients from A's row i (row stride k, step stride 1).
func matMulRange(c, a, b []float32, k, n, lo, hi int) {
	foldRows(c, a, k, 1, b, k, n, lo, hi, false)
}

// matMulColsRange computes columns [lo,hi) of the single-row product
// C[1×n] = A[1×k]·B — the matvec orientation. Row splitting cannot
// parallelize m == 1 however large k·n grows, so the fan-out goes over
// output columns; the accumulation order per element (ascending p) matches
// matMulRange, keeping both paths bitwise interchangeable.
func matMulColsRange(c, a, b []float32, k, n, lo, hi int) {
	foldCols(c, a, 1, b, k, n, lo, hi, false)
}

// foldRows computes rows [lo,hi) of C[·×n] as k-step folds over B's rows:
// row i's step-p coefficient is a[i·ars+p·aps], so (k, 1) reads A by rows
// and (1, k) reads it by columns (the Aᵀ orientations, where the transpose
// stays in the indexing). Without add the fold overwrites C.
//
// With the lane kernels on, four rows at a time run as 4×16 register tiles
// (gemmTile), column tile outermost so each 16-column panel of B serves
// every row block from cache; the column tail (n mod 16) and the row tail
// (hi-lo mod 4) run on foldCols. Tile and axpy sweep both compute each
// element as the strict left fold over ascending p, so the two paths are
// bitwise identical.
func foldRows(c, a []float32, ars, aps int, b []float32, k, n, lo, hi int, add bool) {
	if k == 0 { // A may be empty: no coefficient to index
		if !add {
			Zero(c[lo*n : hi*n])
		}
		return
	}
	i := lo
	if useLanes && n >= 16 {
		n16, h4 := n&^15, lo+(hi-lo)&^3
		aExt := 3*ars + (k-1)*aps + 1 // one tile's coefficients
		bExt := (k-1)*n + 16          // one tile's B panel
		for j := 0; j < n16; j += 16 {
			bj := b[j : j+bExt]
			for r := lo; r < h4; r += 4 {
				gemmTile(c[r*n+j:(r+3)*n+j+16], a[r*ars:r*ars+aExt], bj, n, ars, aps, k, add)
			}
		}
		if n16 < n {
			for r := lo; r < h4; r++ {
				foldCols(c[r*n:r*n+n], a[r*ars:], aps, b, k, n, n16, n, add)
			}
		}
		i = h4
	}
	for ; i < hi; i++ {
		foldCols(c[i*n:i*n+n], a[i*ars:], aps, b, k, n, 0, n, add)
	}
}

// foldCols folds columns [lo,hi) of one output row c over k steps, four B
// rows per pass: c[x] = c[x] + a[0]·b[x] + a[as]·b[n+x] + … left to right,
// with step p's coefficient at a[p·as]. Without add the first block
// overwrites instead (ov4/ov1), saving a zeroing pass.
func foldCols(c, a []float32, as int, b []float32, k, n, lo, hi int, add bool) {
	cw := c[lo:hi]
	var p int
	if !add {
		switch {
		case k >= 4:
			ov4(cw, b[lo:hi], b[n+lo:n+hi], b[2*n+lo:2*n+hi], b[3*n+lo:3*n+hi], a[0], a[as], a[2*as], a[3*as])
			p = 4
		case k >= 1:
			ov1(cw, b[lo:hi], a[0])
			p = 1
		default:
			Zero(cw)
		}
	}
	for ; p+4 <= k; p += 4 {
		axpy4(cw, b[p*n+lo:p*n+hi], b[(p+1)*n+lo:(p+1)*n+hi], b[(p+2)*n+lo:(p+2)*n+hi], b[(p+3)*n+lo:(p+3)*n+hi],
			a[p*as], a[(p+1)*as], a[(p+2)*as], a[(p+3)*as])
	}
	for ; p < k; p++ {
		axpy1(cw, b[p*n+lo:p*n+hi], a[p*as])
	}
}

// MatMulBT computes C[m×k] = A[m×n] · B[k×n]ᵀ, overwriting C.
// This is the dX = dY·Wᵀ orientation when W is stored [k×n].
//
// Each output element is a dot product of two rows — a shape the axpy sweep
// cannot vectorize directly. Above parallelThreshold the kernel buys a
// transposed copy of B from a pooled scratch (an O(k·n) pass against the
// O(m·n·k) multiply) and runs the row-sweep MatMul form on it; the dot and
// the transposed sweep fold every element in ascending-p order, so the two
// paths are bitwise identical and the cutover is invisible.
func MatMulBT(c, a, b []float32, m, n, k int) {
	checkDims(len(a), m*n, "A")
	checkDims(len(b), k*n, "B")
	checkDims(len(c), m*k, "C")
	work := m * k * n
	if work >= parallelThreshold {
		bt := getScratch(n * k)
		transposeInto(bt, b, k, n)
		switch {
		case fanOut(m, work):
			runParallel(opMM, c, a, bt, n, k, 0, m)
		case m == 1 && fanOut(k, work):
			runParallel(opMMCols, c, a, bt, n, k, 0, k)
		default:
			matMulRange(c, a, bt, n, k, 0, m)
		}
		putScratch(bt)
		return
	}
	matMulBTRange(c, a, b, n, k, 0, m)
}

// matMulBTRange computes rows [lo,hi) of C = A·Bᵀ in dot form, for
// problems too small to pay for a B transpose. Each output element is a
// single loop-carried add chain — latency-bound naively — so the kernel
// blocks 2 A-rows × 4 B-rows into eight independent accumulators. Every
// accumulator still sums in ascending p order.
func matMulBTRange(c, a, b []float32, n, k, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := a[i*n : i*n+n]
		a1 := a[(i+1)*n : (i+1)*n+n][:n]
		c0 := c[i*k : i*k+k]
		c1 := c[(i+1)*k : (i+1)*k+k]
		j := 0
		for ; j+4 <= k; j += 4 {
			b0 := b[j*n : j*n+n][:n]
			b1 := b[(j+1)*n : (j+1)*n+n][:n]
			b2 := b[(j+2)*n : (j+2)*n+n][:n]
			b3 := b[(j+3)*n : (j+3)*n+n][:n]
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			for p, av0 := range a0 {
				av1 := a1[p]
				v0, v1, v2, v3 := b0[p], b1[p], b2[p], b3[p]
				s00 += av0 * v0
				s01 += av0 * v1
				s02 += av0 * v2
				s03 += av0 * v3
				s10 += av1 * v0
				s11 += av1 * v1
				s12 += av1 * v2
				s13 += av1 * v3
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		}
		for ; j < k; j++ {
			bj := b[j*n : j*n+n][:n]
			var s0, s1 float32
			for p, av0 := range a0 {
				bv := bj[p]
				s0 += av0 * bv
				s1 += a1[p] * bv
			}
			c0[j], c1[j] = s0, s1
		}
	}
	for ; i < hi; i++ {
		matMulBTColsRange(c[i*k:i*k+k], a[i*n:i*n+n], b, n, k, 0, k)
	}
}

// matMulBTColsRange computes output columns [lo,hi) of the single-row
// product C[1×k] = A[1×n]·Bᵀ (dot products of a against rows of B), with
// 4-wide independent accumulators. It is the odd-row tail of
// matMulBTRange.
func matMulBTColsRange(c, a, b []float32, n, k, lo, hi int) {
	ai := a[:n]
	j := lo
	for ; j+4 <= hi; j += 4 {
		b0 := b[j*n : j*n+n][:n]
		b1 := b[(j+1)*n : (j+1)*n+n][:n]
		b2 := b[(j+2)*n : (j+2)*n+n][:n]
		b3 := b[(j+3)*n : (j+3)*n+n][:n]
		var s0, s1, s2, s3 float32
		for p, av := range ai {
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		c[j], c[j+1], c[j+2], c[j+3] = s0, s1, s2, s3
	}
	for ; j < hi; j++ {
		bj := b[j*n : j*n+n][:n]
		var s float32
		for p, av := range ai {
			s += av * bj[p]
		}
		c[j] = s
	}
}

// MatMulAT computes C[k×n] = A[m×k]ᵀ · B[m×n], overwriting C — the fused
// transpose-multiply. Callers that need a fresh Aᵀ·B (per-head attention
// gradients) previously paid a Zero pass plus MatMulATAdd; here the first
// input row overwrites the output instead.
func MatMulAT(c, a, b []float32, m, k, n int) {
	checkDims(len(a), m*k, "A")
	checkDims(len(b), m*n, "B")
	checkDims(len(c), k*n, "C")
	work := m * k * n
	switch {
	case fanOut(k, work):
		runParallel(opAT, c, a, b, m, k, n, k)
	case k == 1 && fanOut(n, work):
		runParallel(opATCols, c, a, b, m, n, 0, n)
	default:
		matMulATRange(c, a, b, m, k, n, 0, k)
	}
}

// matMulATRange computes rows [lo,hi) of C = Aᵀ·B. Output row j sweeps B's
// rows scaled by A's column j — the transpose happens in the coefficient
// indexing (a[i*k+j]), never as a data movement — with the first input row
// overwriting so no zero pass is needed. Fold order is ascending i,
// matching matMulATAddRange exactly.
func matMulATRange(c, a, b []float32, m, k, n, lo, hi int) {
	foldRows(c, a, 1, k, b, m, n, lo, hi, false)
}

func matMulATColsRange(c, a, b []float32, m, n, lo, hi int) {
	Zero(c[lo:hi])
	matMulATAddColsRange(c, a, b, m, n, lo, hi)
}

// MatMulATAdd computes C[k×n] += A[m×k]ᵀ · B[m×n]. It accumulates rather
// than overwrites because weight gradients sum over micro-batches.
func MatMulATAdd(c, a, b []float32, m, k, n int) {
	checkDims(len(a), m*k, "A")
	checkDims(len(b), m*n, "B")
	checkDims(len(c), k*n, "C")
	work := m * k * n
	switch {
	// Parallelize over the k rows of C so goroutines never share output rows.
	case fanOut(k, work):
		runParallel(opATAdd, c, a, b, m, k, n, k)
	case k == 1 && fanOut(n, work):
		runParallel(opATAddCols, c, a, b, m, n, 0, n)
	default:
		matMulATAddRange(c, a, b, m, k, n, 0, k)
	}
}

// matMulATAddRange accumulates rows [lo,hi) of C += Aᵀ·B: the same sweep
// as matMulATRange but folding into C's existing contents. Ascending i
// order per element, bitwise-matching the naive loop.
func matMulATAddRange(c, a, b []float32, m, k, n, lo, hi int) {
	foldRows(c, a, 1, k, b, m, n, lo, hi, true)
}

// matMulATAddColsRange accumulates columns [lo,hi) of the single-row
// result C[1×n] += A[m×1]ᵀ·B — the k == 1 orientation (a column vector
// against a matrix), which row splitting cannot parallelize.
func matMulATAddColsRange(c, a, b []float32, m, n, lo, hi int) {
	foldCols(c, a, 1, b, m, n, lo, hi, true)
}

// transposeInto writes src[rows×cols]ᵀ into dst[cols×rows], tiled so both
// sides stay within a few cache lines per pass. Four source rows move per
// pass, so each destination column takes its four values as one contiguous
// group: one bounds check and one strided step per four elements.
func transposeInto(dst, src []float32, rows, cols int) {
	const tile = 16
	for r0 := 0; r0 < rows; r0 += tile {
		rMax := min(r0+tile, rows)
		for c0 := 0; c0 < cols; c0 += tile {
			w := min(tile, cols-c0)
			r := r0
			for ; r+4 <= rMax; r += 4 {
				s := r*cols + c0
				b0, b1 := src[s:s+w], src[s+cols:s+cols+w]
				b2, b3 := src[s+2*cols:s+2*cols+w], src[s+3*cols:s+3*cols+w]
				o := c0*rows + r
				for ci, v := range b0 {
					d := dst[o : o+4 : o+4]
					d[0], d[1], d[2], d[3] = v, b1[ci], b2[ci], b3[ci]
					o += rows
				}
			}
			for ; r < rMax; r++ {
				row := src[r*cols+c0 : r*cols+c0+w]
				for ci, v := range row {
					dst[(c0+ci)*rows+r] = v
				}
			}
		}
	}
}

// AddBiasRows adds bias[n] to every row of x[m×n].
func AddBiasRows(x, bias []float32, m, n int) {
	checkDims(len(x), m*n, "X")
	checkDims(len(bias), n, "bias")
	for i := 0; i < m; i++ {
		xi := x[i*n : i*n+n]
		for j, b := range bias {
			xi[j] += b
		}
	}
}

// BiasGradRows accumulates column sums of dY[m×n] into dBias[n].
func BiasGradRows(dBias, dy []float32, m, n int) {
	checkDims(len(dy), m*n, "dY")
	checkDims(len(dBias), n, "dBias")
	for i := 0; i < m; i++ {
		row := dy[i*n : i*n+n]
		for j, v := range row {
			dBias[j] += v
		}
	}
}

func checkDims(got, want int, name string) {
	if got != want {
		panic("tensor: dimension mismatch for " + name)
	}
}
