package tensor

// The half side of the matmuls: §3.1's mixed precision, where binary16 is
// only how a tensor is stored and every product accumulates in fp32. A
// HalfBuffer operand decodes into the fp32 fold where it lies, as the fold
// reaches it:
//   - MatMul's B, with the lane kernels on: the 8×32 and 4×16 tiles convert
//     each row segment on load (gemmTileZH, gemmTileH), and the tiles'
//     column and row tails decode only their own strips onto the stack
//     (foldStrips). Without the lanes B decodes whole into pooled scratch
//     (floats).
//   - MatMul's and MatMulBT's A: 8-row panels on the stack (matMulHFRange).
//   - MatMulBT's B: 8-row panels on the stack when it folds Cᵀ (foldBT);
//     otherwise decoded and transposed into scratch in one pass
//     (transposeHalfInto), which also serves the Cᵀ fold's A.
//   - Both operands of the Aᵀ orientations decode whole into scratch.
//
// Every binary16 value is an fp32 value and halfDecode and VCVTPH2PS (F16C
// lanes where the CPU has them, half_amd64.s) are bitwise halfVal, so a
// matmul on half operands is bitwise the same matmul on their decoded
// images — the property the fp16-path tests pin.

// floats returns s's fp32 image: s itself, or a HalfBuffer decoded into
// pooled scratch, which release hands back.
func floats[S Operand](s S) []float32 {
	h, ok := any(s).(HalfBuffer)
	if !ok {
		return any(s).([]float32)
	}
	f := getScratch(len(h))
	halfDecode(f, h)
	return f
}

// release returns floats(s)'s scratch, if it took one.
func release[S Operand](s S, f []float32) {
	if _, ok := any(s).(HalfBuffer); ok {
		putScratch(f)
	}
}

// matMulHFRange computes rows [lo,hi) of C = A·B with fp16 A coefficients.
// A panel of up to eight rows × 256 coefficients decodes into a stack
// buffer and folds through foldRows — an 8×32 tile with the 512-bit tier
// on, 4×16 tiles with the lane kernels — overwriting C on the first panel
// and accumulating after it. halfDecode is bitwise halfVal per element and
// every panel continues the same ascending-p fold, so each element matches
// the fp32 A's single fold on the decoded operands exactly.
func matMulHFRange(c []float32, a HalfBuffer, b bOperand, k, n, lo, hi int) {
	const panel = 256
	var buf [8 * panel]float32
	for i := lo; i < hi; i += 8 {
		rows := min(8, hi-i)
		// k == 0 still runs one empty panel, which zeroes C.
		for p0 := 0; p0 == 0 || p0 < k; p0 += panel {
			cl := min(panel, k-p0)
			for r := 0; r < rows; r++ {
				halfDecode(buf[r*panel:r*panel+cl], a[(i+r)*k+p0:(i+r)*k+p0+cl])
			}
			foldRows(c[i*n:(i+rows)*n], buf[:], panel, 1, b.from(p0*n), cl, n, 0, rows, p0 > 0)
		}
	}
}

// foldStrips folds rows [rlo,rhi) × columns [jlo,jhi) of C[·×n] over k ≥ 1
// steps of a half B on the axpy sweep, row i's step-p coefficient at
// a[i·ars+p·aps]. B decodes a strip of up to 16 columns × 256 steps at a
// time onto the stack, and each row folds over the strip with foldCols,
// continuing the fold the strip before it left in C. Only the strip's own
// halves decode, so the tile's column and row tails never decode the rest
// of B.
func foldStrips(c, a []float32, ars, aps int, b HalfBuffer, k, n, rlo, rhi, jlo, jhi int, add bool) {
	const panel, w16 = 256, 16
	if rlo >= rhi {
		return
	}
	var buf [panel * w16]float32
	for j := jlo; j < jhi; j += w16 {
		w := min(w16, jhi-j)
		for p0 := 0; p0 < k; p0 += panel {
			cl := min(panel, k-p0)
			for p := 0; p < cl; p++ {
				src := (p0+p)*n + j
				halfDecode(buf[p*w16:p*w16+w], b[src:src+w])
			}
			for r := rlo; r < rhi; r++ {
				foldCols(c[r*n+j:r*n+j+w], a[r*ars+p0*aps:], aps, buf[:], cl, w16, 0, w, add || p0 > 0)
			}
		}
	}
}

// transposeHalfInto writes the decoded src[rows×cols]ᵀ into dst, whose
// rows are ldd apart: dst[c·ldd+r] = src[r·cols+c], in one fused pass. Row
// segments decode through the batch decoder into a stack tile before
// scattering, so the per-element cost is the lane decode, not a scalar
// halfVal. Four source rows decode per pass and each destination row takes
// its four values as one contiguous group — one bounds check and one
// strided step per four elements — and 16 consecutive r land on one dst
// cache line per output row, keeping both sides resident like
// transposeInto.
func transposeHalfInto(dst []float32, src HalfBuffer, rows, cols, ldd int) {
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
				o := c0*ldd + r
				for ci, v := range b0 {
					d := dst[o : o+4 : o+4]
					d[0], d[1], d[2], d[3] = v, b1[ci], b2[ci], b3[ci]
					o += ldd
				}
			}
			for ; r < rMax; r++ {
				halfDecode(b0, src[r*cols+c0:r*cols+c0+w])
				for ci, v := range b0 {
					dst[(c0+ci)*ldd+r] = v
				}
			}
		}
	}
}
