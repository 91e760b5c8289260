package tensor

// Dense matrix multiplication in the orientations backpropagation through a
// linear layer needs:
//
//	forward:     Y  = X·W      (MatMul)
//	grad input:  dX = dY·Wᵀ    (MatMulBT)
//	grad weight: dW = Xᵀ·dY    (MatMulATAdd; matMulAT overwrites)
//
// All matrices are row-major flat slices, with one entry point per
// orientation over either Operand type: fp32, or binary16 whose values are
// exactly fp32 values (halfmatmul.go). The output is always fp32.
//
// Every orientation is one fold (foldRows) of B's rows: MatMulBT either
// transposes B into pooled scratch first or, for few rows, folds Cᵀ = B·Aᵀ
// and transposes A and the result instead (mulBTFold), and the Aᵀ
// orientations keep the transpose in the coefficient indexing. The fold
// has three tiers. Where the CPU and OS have AVX-512 (useZMM), 8-row ×
// 32-column blocks of C stay in ZMM registers for the whole reduction;
// where they have the lane features, the 4-row × 16-column blocks left
// over (or, on AVX2-only CPUs, all of them) stay in YMM registers
// (gemm_amd64.s) — gemmTileZH and gemmTileH read a half B in place — and
// Cᵀ folds in 8×8 blocks (gemmTile8); the column and row tails, and every
// block elsewhere, run the axpy sweep (axpy_amd64.s / axpy_generic.go),
// where each output row is a contiguous vector that up to four input rows
// fold into per pass. Blocking and vectorization only span output elements
// — every element still folds its products left to right in the same
// operand order as the naive triple loop (ascending p for MatMul/MatMulBT,
// ascending i for the Aᵀ orientations, B's value the first multiplicand),
// and neither the assembly nor the Go compiler contracts a*b+c into an FMA
// — so results are bitwise identical to the scalar reference on every
// architecture and the stage-equivalence goldens hold exactly. The fold starts from the first product, not from +0, so an
// overwritten element whose products are all −0 is −0 — at every shape, on
// every path.
//
// Kernels fan out over a persistent worker pool (pool.go) when the problem
// is large enough to amortize the handoff — the same compute/communication
// granularity argument the ZeRO paper makes for data parallelism applies
// inside a rank. Row kernels split output rows at multiples of the active
// tile height; a single output row folded from an fp32 operand (a matvec)
// splits output columns instead.

// parallelThreshold is the number of fused multiply-adds below which a
// matmul stays on the calling goroutine.
const parallelThreshold = 1 << 16

// Operand is a matmul input: fp32, or binary16 storage that the kernels
// decode (exactly) to fp32.
type Operand interface{ []float32 | HalfBuffer }

// bOperand is the B a fold reads: fp32 rows, or binary16 rows (h non-nil)
// that the lane tiles convert on load and the tails decode on the stack.
type bOperand struct {
	f []float32
	h HalfBuffer
}

// asB returns s as a fold's B.
func asB[S Operand](s S) bOperand {
	if h, ok := any(s).(HalfBuffer); ok {
		return bOperand{h: h}
	}
	return bOperand{f: any(s).([]float32)}
}

// from returns B from element off on.
func (b bOperand) from(off int) bOperand {
	if b.h != nil {
		return bOperand{h: b.h[off:]}
	}
	return bOperand{f: b.f[off:]}
}

// MatMul computes C[m×n] = A[m×k] · B[k×n], overwriting C. With the lane
// kernels on, a half B folds where it lies (gemmTileH, foldStrips);
// elsewhere it decodes whole into pooled scratch first.
func MatMul[S Operand](c []float32, a, b S, m, k, n int) {
	checkDims(len(a), m*k, "A")
	checkDims(len(b), k*n, "B")
	checkDims(len(c), m*n, "C")
	if _, half := any(b).(HalfBuffer); half && useLanes {
		mulRows(c, a, asB(b), m, k, n)
		return
	}
	bf := floats(b)
	mulRows(c, a, bOperand{f: bf}, m, k, n)
	release(b, bf)
}

// MatMulBT computes C[m×k] = A[m×n] · B[k×n]ᵀ, overwriting C — the
// dX = dY·Wᵀ orientation when W is stored [k×n]. Each output element is a
// dot product of two rows, a shape the tile cannot vectorize directly, so
// one side is transposed into pooled scratch. Which side is a size rule:
// B's transpose costs k·n moves and MatMul's fold runs on it; the fold of
// Cᵀ = B·Aᵀ (mulBTFold) moves A and the result, m·(n+k), and runs with
// the lane kernels on when that is less. Both fold every element over
// ascending p with B's value the first multiplicand, so they agree to the
// bit.
func MatMulBT[S Operand](c []float32, a, b S, m, n, k int) {
	checkDims(len(a), m*n, "A")
	checkDims(len(b), k*n, "B")
	checkDims(len(c), m*k, "C")
	if useLanes && m*(n+k) < k*n {
		mulBTFold(c, a, b, m, n, k)
		return
	}
	bt := getScratch(n * k)
	switch b := any(b).(type) {
	case []float32:
		transposeInto(bt, b, k, n, n, k)
	case HalfBuffer:
		transposeHalfInto(bt, b, k, n, k)
	}
	mulRows(c, a, bOperand{f: bt}, m, n, k)
	putScratch(bt)
}

// mulBTFold computes MatMulBT's C as the transpose of Cᵀ[k×m] = B·Aᵀ: B's
// rows are the coefficients, read in place (fp32) or decoded 8 rows × 256
// at a time on the stack (half), and Aᵀ's rows the vectors. Aᵀ and Cᵀ sit
// in pooled scratch with their rows padded to m8, a multiple of the 8×8
// tile's width; the padding columns fold whatever the scratch held and are
// never read back. The pool splits Cᵀ's 8-row blocks.
func mulBTFold[S Operand](c []float32, a, b S, m, n, k int) {
	m8, k8 := (m+7)&^7, (k+7)&^7
	s := getScratch(n*m8 + k8*m8)
	at, ct := s[:n*m8], s[n*m8:]
	switch a := any(a).(type) {
	case []float32:
		transposeInto(at, a, m, n, n, m8)
	case HalfBuffer:
		transposeHalfInto(at, a, m, n, m8)
	}
	run(kernel{kind: opFoldBT, c: ct, a: at, b: asB(b), k: n, n: m8}, k8/8, m*n*k)
	transposeInto(c, ct, k, m, m8, k)
	putScratch(s)
}

// foldBT computes 8-row blocks [lo,hi) of Cᵀ[·×m8] = B·Aᵀ over k steps,
// Aᵀ (at) k rows of m8: block j's rows take their step-p coefficients from
// B's rows 8j…8j+7 at column p. A full block of an fp32 B runs the 8×8
// tiles on B in place. Otherwise its rows decode (or, for the last block's
// fewer than eight fp32 rows, copy) into a stack panel of 256 steps, the
// rows past B's end padding it, and the tiles fold panel after panel, each
// continuing the fold the one before left in Cᵀ.
func foldBT(ct, at []float32, b bOperand, k, m8, lo, hi int) {
	const panel = 256
	var buf [8 * panel]float32
	rows := (len(b.f) + len(b.h)) / k
	for blk := lo; blk < hi; blk++ {
		j := 8 * blk
		cj := ct[j*m8 : (j+8)*m8]
		if b.h == nil && j+8 <= rows {
			bj := b.f[j*k : (j+8)*k]
			for x := 0; x < m8; x += 8 {
				gemmTile8(cj[x:7*m8+x+8], bj, at[x:(k-1)*m8+x+8], m8, k, 1, k, false)
			}
			continue
		}
		for p0 := 0; p0 < k; p0 += panel {
			cl := min(panel, k-p0)
			for r := 0; r < min(8, rows-j); r++ {
				src := (j+r)*k + p0
				if b.h != nil {
					halfDecode(buf[r*panel:r*panel+cl], b.h[src:src+cl])
				} else {
					copy(buf[r*panel:r*panel+cl], b.f[src:src+cl])
				}
			}
			for x := 0; x < m8; x += 8 {
				gemmTile8(cj[x:7*m8+x+8], buf[:], at[p0*m8+x:(p0+cl-1)*m8+x+8], m8, panel, 1, cl, p0 > 0)
			}
		}
	}
}

// MatMulATAdd computes C[k×n] += A[m×k]ᵀ · B[m×n]. It accumulates rather
// than overwrites because weight gradients sum over micro-batches.
func MatMulATAdd[S Operand](c []float32, a, b S, m, k, n int) {
	matMulAT(c, a, b, m, k, n, true)
}

// mulRows computes C[m×n] = A[m×k] · B: row i is a linear combination of
// B's rows with coefficients from A's row i. An fp32 A splits output rows
// across the pool, or output columns when m is 1; a half A decodes in row
// panels (matMulHFRange).
func mulRows[S Operand](c []float32, a S, b bOperand, m, k, n int) {
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

// matMulAT computes C[k×n] (+)= A[m×k]ᵀ · B[m×n]; without add the first
// input row overwrites the output instead of a zero pass. Output row j sweeps B's rows scaled by A's
// column j — the transpose happens in the coefficient indexing (a[i·k+j]),
// never as a data movement — folding in ascending i. The pool splits C's k
// rows, or the columns of a single one. That indexing walks A by column, a
// stride the batch decoder cannot ride, so half operands decode whole first.
func matMulAT[S Operand](c []float32, a, b S, m, k, n int, add bool) {
	checkDims(len(a), m*k, "A")
	checkDims(len(b), m*n, "B")
	checkDims(len(c), k*n, "C")
	af, bf := floats(a), floats(b)
	kr, units := kernel{kind: opRows, c: c, a: af, b: bOperand{f: bf}, ars: 1, aps: k, k: m, n: n, add: add}, k
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
// With the 512-bit tier on (useZMM), eight rows at a time run as 8×32
// register tiles over the 32-column panels (gemmTileZ, or gemmTileZH on a
// half B), column panel outermost so each panel of B serves every row
// block from cache; foldYMM then takes those rows' last n mod 32 columns
// and every row past the last full 8-row block.
func foldRows(c, a []float32, ars, aps int, b bOperand, k, n, lo, hi int, add bool) {
	if k == 0 { // A may be empty: no coefficient to index
		if !add {
			Zero(c[lo*n : hi*n])
		}
		return
	}
	if useZMM && n >= 32 && hi-lo >= 8 {
		n32, h8 := n&^31, lo+(hi-lo)&^7
		aExt := 7*ars + (k-1)*aps + 1 // one tile's coefficients
		bExt := (k-1)*n + 32          // one tile's B panel
		for j := 0; j < n32; j += 32 {
			for r := lo; r < h8; r += 8 {
				cr, ar := c[r*n+j:(r+7)*n+j+32], a[r*ars:r*ars+aExt]
				if b.h != nil {
					gemmTileZH(cr, ar, b.h[j:j+bExt], n, ars, aps, k, add)
				} else {
					gemmTileZ(cr, ar, b.f[j:j+bExt], n, ars, aps, k, add)
				}
			}
		}
		if n32 < n {
			foldYMM(c, a, ars, aps, b, k, n, lo, h8, n32, add)
		}
		lo = h8
	}
	foldYMM(c, a, ars, aps, b, k, n, lo, hi, 0, add)
}

// foldYMM computes rows [lo,hi) × columns [j0,n) of foldRows' C. With the
// lane kernels on, four rows at a time run as 4×16 register tiles
// (gemmTile, or gemmTileH on a half B), column tile outermost; the column
// tail ((n-j0) mod 16) and the row tail ((hi-lo) mod 4) run on foldCols,
// through stack strips for a half B (foldStrips). Both tiers' tiles and the
// axpy sweep all compute each element as the strict left fold over
// ascending p, so the paths are bitwise identical.
func foldYMM(c, a []float32, ars, aps int, b bOperand, k, n, lo, hi, j0 int, add bool) {
	i := lo
	if useLanes && n-j0 >= 16 {
		n16, h4 := j0+(n-j0)&^15, lo+(hi-lo)&^3
		aExt := 3*ars + (k-1)*aps + 1
		bExt := (k-1)*n + 16
		for j := j0; j < n16; j += 16 {
			for r := lo; r < h4; r += 4 {
				cr, ar := c[r*n+j:(r+3)*n+j+16], a[r*ars:r*ars+aExt]
				if b.h != nil {
					gemmTileH(cr, ar, b.h[j:j+bExt], n, ars, aps, k, add)
				} else {
					gemmTile(cr, ar, b.f[j:j+bExt], n, ars, aps, k, add)
				}
			}
		}
		if n16 < n {
			foldTail(c, a, ars, aps, b, k, n, lo, h4, n16, add)
		}
		i = h4
	}
	foldTail(c, a, ars, aps, b, k, n, i, hi, j0, add)
}

// foldTail folds rows [lo,hi) × columns [j0,n) of C on the axpy sweep.
func foldTail(c, a []float32, ars, aps int, b bOperand, k, n, lo, hi, j0 int, add bool) {
	if b.h != nil {
		foldStrips(c, a, ars, aps, b.h, k, n, lo, hi, j0, n, add)
		return
	}
	for r := lo; r < hi; r++ {
		foldCols(c[r*n:r*n+n], a[r*ars:], aps, b.f, k, n, j0, n, add)
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

// transposeInto writes the transpose of src's rows×cols block into dst:
// dst[c·ldd+r] = src[r·lds+c]. With the lanes on, the full 8×8 blocks go
// through the register transpose sixteen source rows a call (transpose16,
// whose destination rows take a whole cache line a column block; an odd
// last eight take transpose8), and the edges (rows past the last multiple
// of 8, then columns past it) through transposeTiles.
func transposeInto(dst, src []float32, rows, cols, lds, ldd int) {
	r8, c8 := 0, 0
	if useLanes && cols >= 8 {
		r8, c8 = rows&^7, cols&^7
		for r := 0; r < r8; r += 16 {
			if r+16 <= r8 {
				transpose16(dst[r:(c8-1)*ldd+r+16], src[r*lds:(r+15)*lds+c8], c8, lds, ldd)
			} else {
				transpose8(dst[r:(c8-1)*ldd+r+8], src[r*lds:(r+7)*lds+c8], c8, lds, ldd)
			}
		}
	}
	if r8 < rows {
		transposeTiles(dst[r8:], src[r8*lds:], rows-r8, cols, lds, ldd)
	}
	if r8 > 0 && c8 < cols {
		transposeTiles(dst[c8*ldd:], src[c8:], r8, cols-c8, lds, ldd)
	}
}

// transposeTiles is transposeInto in scalar Go. It is tiled so both sides
// stay within a few cache lines per pass. Four source rows move per pass,
// so each destination row takes its four values as one contiguous group:
// one bounds check and one strided step per four elements.
func transposeTiles(dst, src []float32, rows, cols, lds, ldd int) {
	const tile = 16
	for r0 := 0; r0 < rows; r0 += tile {
		rMax := min(r0+tile, rows)
		for c0 := 0; c0 < cols; c0 += tile {
			w := min(tile, cols-c0)
			r := r0
			for ; r+4 <= rMax; r += 4 {
				s := r*lds + c0
				b0, b1 := src[s:s+w], src[s+lds:s+lds+w]
				b2, b3 := src[s+2*lds:s+2*lds+w], src[s+3*lds:s+3*lds+w]
				o := c0*ldd + r
				for ci, v := range b0 {
					d := dst[o : o+4 : o+4]
					d[0], d[1], d[2], d[3] = v, b1[ci], b2[ci], b3[ci]
					o += ldd
				}
			}
			for ; r < rMax; r++ {
				row := src[r*lds+c0 : r*lds+c0+w]
				for ci, v := range row {
					dst[(c0+ci)*ldd+r] = v
				}
			}
		}
	}
}

// AddBiasRows adds bias[n] to every row of x[m×n], one Add per row: each
// element is bitwise x + b, and a sum of two NaNs returns x's.
func AddBiasRows(x, bias []float32, m, n int) {
	checkDims(len(x), m*n, "X")
	checkDims(len(bias), n, "bias")
	for i := 0; i < m; i++ {
		Add(x[i*n:i*n+n], bias)
	}
}

// BiasGradRows accumulates column sums of dY[m×n] into dBias[n], one Add
// per row in row order: each column folds its rows left to right, and a
// sum of two NaNs returns dBias's.
func BiasGradRows(dBias, dy []float32, m, n int) {
	checkDims(len(dy), m*n, "dY")
	checkDims(len(dBias), n, "dBias")
	for i := 0; i < m; i++ {
		Add(dBias, dy[i*n:i*n+n])
	}
}

func checkDims(got, want int, name string) {
	if got != want {
		panic("tensor: dimension mismatch for " + name)
	}
}
