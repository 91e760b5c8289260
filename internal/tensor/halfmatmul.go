package tensor

// Half-domain matrix multiplication: the fp16 compute path's kernels read
// binary16 operands and accumulate/write fp32, in the three orientations
// backpropagation needs (mirroring matmul.go):
//
//	forward:     Y  = X·W      (MatMulH)
//	grad input:  dX = dY·Wᵀ    (MatMulBTH)
//	grad weight: dW += Xᵀ·dY   (MatMulATAddH)
//
// Decoding happens on the fly inside the sweep — MatMulH expands B four
// rows at a time into a pooled tile riding the vector decode
// (halfdecode_amd64.s) and feeds the same ov4/axpy4 inner loops as the f32
// kernels, while A's coefficients decode scalar per fold (one halfVal per
// swept row). The transpose orientations pay one fused decode(+transpose)
// pass over the smaller operand instead, an O(m·n) pass against the
// O(m·n·k) multiply. Every output element folds its products in exactly
// the f32 kernels' order (ascending p, or ascending i for Aᵀ), so a half
// kernel on fp16 operands is bitwise identical to the matching f32 kernel
// on their decoded images — the property the fp16-path tests pin.

// MatMulH computes C[m×n] = A[m×k] · B[k×n] with fp16 operands and fp32
// output, overwriting C. Serial problems run the fused tile-decode sweep;
// above the fan-out threshold B pays one pooled vector-decode pass shared
// by every worker (an O(k·n) pass against the O(m·k·n) multiply, and the
// only alloc-deterministic shape — per-worker tiles would churn the
// bounded scratch list) while A's coefficients still decode in the sweep.
func MatMulH(c []float32, a, b HalfBuffer, m, k, n int) {
	checkDims(len(a), m*k, "A")
	checkDims(len(b), k*n, "B")
	checkDims(len(c), m*n, "C")
	if fanOut(m, m*k*n) {
		bf := getScratch(k * n)
		halfDecode(bf, b)
		runParallelH(opMMHF, c, a, bf, k, n, 0, m)
		putScratch(bf)
		return
	}
	matMulHRange(c, a, b, k, n, 0, m)
}

// matMulHRange computes rows [lo,hi) of C = A·B from fp16 operands. The
// sweep is tiled k-outer: four B rows at a time decode into a pooled fp32
// tile (vector decode), then fold into every output row of the range with
// the same ov4/axpy4 blocks as matMulRange — first tile overwrites, tail
// rows fold one at a time. Tiles apply in ascending p, so each output
// element's fold order matches matMulRange on decoded operands exactly.
func matMulHRange(c []float32, a, b HalfBuffer, k, n, lo, hi int) {
	if k == 0 {
		for i := lo; i < hi; i++ {
			Zero(c[i*n : i*n+n])
		}
		return
	}
	bt := getScratch(4 * n)
	b0, b1, b2, b3 := bt[:n], bt[n:2*n], bt[2*n:3*n], bt[3*n:4*n]
	var p int
	if k >= 4 {
		halfDecode(bt, b[:4*n])
		for i := lo; i < hi; i++ {
			ai := a[i*k : i*k+k]
			ov4(c[i*n:i*n+n], b0, b1, b2, b3,
				halfVal(ai[0]), halfVal(ai[1]), halfVal(ai[2]), halfVal(ai[3]))
		}
		for p = 4; p+4 <= k; p += 4 {
			halfDecode(bt, b[p*n:(p+4)*n])
			for i := lo; i < hi; i++ {
				ai := a[i*k : i*k+k]
				axpy4(c[i*n:i*n+n], b0, b1, b2, b3,
					halfVal(ai[p]), halfVal(ai[p+1]), halfVal(ai[p+2]), halfVal(ai[p+3]))
			}
		}
	} else {
		halfDecode(b0, b[:n])
		for i := lo; i < hi; i++ {
			ov1(c[i*n:i*n+n], b0, halfVal(a[i*k]))
		}
		p = 1
	}
	for ; p < k; p++ {
		halfDecode(b0, b[p*n:(p+1)*n])
		for i := lo; i < hi; i++ {
			axpy1(c[i*n:i*n+n], b0, halfVal(a[i*k+p]))
		}
	}
	putScratch(bt)
}

// MatMulBTH computes C[m×k] = A[m×n] · B[k×n]ᵀ with fp16 operands and fp32
// output, overwriting C — the dX = dY·Wᵀ orientation for fp16-resident dY
// and W. B decodes and transposes in one fused pooled pass, then A's rows
// sweep it with scalar coefficient decodes; fold order is ascending p,
// bitwise-matching MatMulBT on the decoded operands.
func MatMulBTH(c []float32, a, b HalfBuffer, m, n, k int) {
	checkDims(len(a), m*n, "A")
	checkDims(len(b), k*n, "B")
	checkDims(len(c), m*k, "C")
	bt := getScratch(n * k)
	transposeHalfInto(bt, b, k, n)
	if fanOut(m, m*k*n) {
		runParallelH(opMMHF, c, a, bt, n, k, 0, m)
	} else {
		matMulHFRange(c, a, bt, n, k, 0, m)
	}
	putScratch(bt)
}

// matMulHFRange computes rows [lo,hi) of C = A·B with fp16 A coefficients
// against an already-decoded fp32 B. Coefficients decode through the
// vector decoder in 256-wide stack chunks (halfDecode is bitwise halfVal
// per element, and 256 is a multiple of 4, so the ov4/axpy4 group
// boundaries — and with them the fold order — match matMulRange on the
// decoded operands exactly).
func matMulHFRange(c []float32, a HalfBuffer, b []float32, k, n, lo, hi int) {
	var buf [256]float32
	for i := lo; i < hi; i++ {
		ci := c[i*n : i*n+n]
		ai := a[i*k : i*k+k]
		if k == 0 {
			Zero(ci)
			continue
		}
		for p0 := 0; p0 < k; p0 += len(buf) {
			cl := min(len(buf), k-p0)
			af := buf[:cl]
			halfDecode(af, ai[p0:p0+cl])
			var p int
			if p0 == 0 {
				if cl >= 4 {
					ov4(ci, b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n],
						af[0], af[1], af[2], af[3])
					p = 4
				} else {
					ov1(ci, b[:n], af[0])
					p = 1
				}
			}
			for ; p+4 <= cl; p += 4 {
				q := p0 + p
				axpy4(ci, b[q*n:q*n+n], b[(q+1)*n:(q+2)*n], b[(q+2)*n:(q+3)*n], b[(q+3)*n:(q+4)*n],
					af[p], af[p+1], af[p+2], af[p+3])
			}
			for ; p < cl; p++ {
				axpy1(ci, b[(p0+p)*n:(p0+p)*n+n], af[p])
			}
		}
	}
}

// MatMulATAddH computes C[k×n] += A[m×k]ᵀ · B[m×n] with fp16 operands,
// accumulating into fp32 C — the weight-gradient orientation, where the
// fp32 accumulator is the mixed-precision contract's whole point. The
// transpose walks A by column (stride-k access the vector decoder cannot
// ride), so both operands pay one pooled vector-decode pass up front and the
// sweep delegates to the f32 Aᵀ kernels — an O(m·(k+n)) decode against the
// O(m·k·n) multiply, and the ascending-i fold makes the result bitwise
// MatMulATAdd on the decoded images by construction.
func MatMulATAddH(c []float32, a, b HalfBuffer, m, k, n int) {
	checkDims(len(a), m*k, "A")
	checkDims(len(b), m*n, "B")
	checkDims(len(c), k*n, "C")
	bf := getScratch(m * n)
	halfDecode(bf, b)
	af := getScratch(m * k)
	halfDecode(af, a)
	if fanOut(k, m*k*n) {
		runParallel(opATAdd, c, af, bf, m, k, n, k)
	} else {
		matMulATAddRange(c, af, bf, m, k, n, 0, k)
	}
	putScratch(af)
	putScratch(bf)
}

// transposeHalfInto writes the decoded src[rows×cols]ᵀ into dst[cols×rows]
// in one fused pass. Row segments decode through the vector decoder into a
// stack tile before scattering, so the per-element cost is the SSE lane
// decode, not a scalar halfVal. Four source rows decode per pass and each
// destination column takes its four values as one contiguous group — one
// bounds check and one strided step per four elements — and 16 consecutive r
// land on one dst cache line per output column, keeping both sides resident
// like transposeInto.
func transposeHalfInto(dst []float32, src HalfBuffer, rows, cols int) {
	const tr, tc = 16, 64
	var buf [4 * tc]float32
	for r0 := 0; r0 < rows; r0 += tr {
		rMax := min(r0+tr, rows)
		for c0 := 0; c0 < cols; c0 += tc {
			w := min(tc, cols-c0)
			b0, b1, b2, b3 := buf[:w], buf[tc:tc+w], buf[2*tc:2*tc+w], buf[3*tc:3*tc+w]
			r := r0
			for ; r+4 <= rMax; r += 4 {
				s := r*cols + c0
				halfDecode(b0, src[s:s+w])
				halfDecode(b1, src[s+cols:s+cols+w])
				halfDecode(b2, src[s+2*cols:s+2*cols+w])
				halfDecode(b3, src[s+3*cols:s+3*cols+w])
				o := c0*rows + r
				for ci, v := range b0 {
					d := dst[o : o+4 : o+4]
					d[0], d[1], d[2], d[3] = v, b1[ci], b2[ci], b3[ci]
					o += rows
				}
			}
			for ; r < rMax; r++ {
				halfDecode(b0, src[r*cols+c0:r*cols+c0+w])
				for ci, v := range b0 {
					dst[(c0+ci)*rows+r] = v
				}
			}
		}
	}
}
