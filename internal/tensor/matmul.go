package tensor

// Dense matrix multiplication in the orientations backpropagation through a
// linear layer needs:
//
//	forward:     Y  = X·W      (MatMul)
//	grad input:  dX = dY·Wᵀ    (MatMulBT)
//	grad weight: dW = Xᵀ·dY    (MatMulAT; MatMulATAdd accumulates)
//
// All matrices are row-major flat slices, with one entry point per
// orientation over either Operand type: fp32, or binary16 that decodes to
// fp32 before it folds (halfmatmul.go). The output is always fp32.
//
// Every orientation is one fold (foldRows) over an fp32 B: MatMulBT
// transposes B into pooled scratch first, and the Aᵀ orientations keep the
// transpose in the coefficient indexing. Where the CPU has the lane
// features, 4-row × 16-column blocks of C stay in AVX registers for the
// whole reduction (gemm_amd64.s); the column and row tails, and every block
// elsewhere, run the axpy sweep (axpy_amd64.s / axpy_generic.go), where
// each output row is a contiguous vector that up to four input rows fold
// into per pass. Blocking and vectorization only span output elements —
// every element still folds its products left to right in the same operand
// order as the naive triple loop (ascending p for MatMul/MatMulBT,
// ascending i for the Aᵀ orientations), and neither the assembly nor the Go
// compiler contracts a*b+c into an FMA — so results are bitwise identical
// to the scalar reference on every architecture and the stage-equivalence
// goldens hold exactly. The fold starts from the first product, not from
// +0, so an overwritten element whose products are all −0 is −0 — at every
// shape, on every path.
//
// Kernels fan out over a persistent worker pool (pool.go) when the problem
// is large enough to amortize the handoff — the same compute/communication
// granularity argument the ZeRO paper makes for data parallelism applies
// inside a rank. Row kernels split output rows; a single output row folded
// from an fp32 operand (a matvec) splits output columns instead.

// parallelThreshold is the number of fused multiply-adds below which a
// matmul stays on the calling goroutine.
const parallelThreshold = 1 << 16

// Operand is a matmul input: fp32, or binary16 storage that the kernels
// decode (exactly) to fp32.
type Operand interface{ []float32 | HalfBuffer }

// MatMul computes C[m×n] = A[m×k] · B[k×n], overwriting C.
func MatMul[S Operand](c []float32, a, b S, m, k, n int) {
	checkDims(len(a), m*k, "A")
	checkDims(len(b), k*n, "B")
	checkDims(len(c), m*n, "C")
	bf := floats(b)
	mulRows(c, a, bf, m, k, n)
	release(b, bf)
}

// MatMulBT computes C[m×k] = A[m×n] · B[k×n]ᵀ, overwriting C — the
// dX = dY·Wᵀ orientation when W is stored [k×n]. Each output element is a
// dot product of two rows, a shape the tile cannot vectorize directly, so
// B's transpose goes into pooled scratch (an O(k·n) pass against the
// O(m·n·k) multiply) and MatMul's fold runs on it.
func MatMulBT[S Operand](c []float32, a, b S, m, n, k int) {
	checkDims(len(a), m*n, "A")
	checkDims(len(b), k*n, "B")
	checkDims(len(c), m*k, "C")
	bt := getScratch(n * k)
	switch b := any(b).(type) {
	case []float32:
		transposeInto(bt, b, k, n)
	case HalfBuffer:
		transposeHalfInto(bt, b, k, n)
	}
	mulRows(c, a, bt, m, n, k)
	putScratch(bt)
}

// MatMulAT computes C[k×n] = A[m×k]ᵀ · B[m×n], overwriting C — the fused
// transpose-multiply, where the first input row overwrites the output
// instead of a zero pass.
func MatMulAT[S Operand](c []float32, a, b S, m, k, n int) {
	matMulAT(c, a, b, m, k, n, false)
}

// MatMulATAdd computes C[k×n] += A[m×k]ᵀ · B[m×n]. It accumulates rather
// than overwrites because weight gradients sum over micro-batches.
func MatMulATAdd[S Operand](c []float32, a, b S, m, k, n int) {
	matMulAT(c, a, b, m, k, n, true)
}

// mulRows computes C[m×n] = A[m×k] · B for an fp32 B: row i is a linear
// combination of B's rows with coefficients from A's row i. An fp32 A
// splits output rows across the pool, or output columns when m is 1; a half
// A decodes in row panels (matMulHFRange).
func mulRows[S Operand](c []float32, a S, b []float32, m, k, n int) {
	kr, units := kernel{c: c, b: b, k: k, n: n}, m
	switch a := any(a).(type) {
	case []float32:
		kr.kind, kr.a, kr.ars, kr.aps = opRows, a, k, 1
		if m == 1 {
			kr.kind, units = opCols, n
		}
	case HalfBuffer:
		kr.kind, kr.ha = opHalfRows, a
	}
	run(kr, units, m*k*n)
}

// matMulAT computes C (+)= Aᵀ·B. Output row j sweeps B's rows scaled by A's
// column j — the transpose happens in the coefficient indexing (a[i·k+j]),
// never as a data movement — folding in ascending i. The pool splits C's k
// rows, or the columns of a single one. That indexing walks A by column, a
// stride the batch decoder cannot ride, so half operands decode whole first.
func matMulAT[S Operand](c []float32, a, b S, m, k, n int, add bool) {
	checkDims(len(a), m*k, "A")
	checkDims(len(b), m*n, "B")
	checkDims(len(c), k*n, "C")
	af, bf := floats(a), floats(b)
	kr, units := kernel{kind: opRows, c: c, a: af, b: bf, ars: 1, aps: k, k: m, n: n, add: add}, k
	if k == 1 {
		kr.kind, units = opCols, n
	}
	run(kr, units, m*k*n)
	release(a, af)
	release(b, bf)
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
