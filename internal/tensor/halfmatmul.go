package tensor

// The half side of the matmuls: §3.1's mixed precision, where binary16 is
// only how a tensor is stored and every product accumulates in fp32. A
// HalfBuffer operand has no kernel of its own; it decodes into the fp32
// fold. B, and both operands of the Aᵀ orientations, decode whole into
// pooled scratch (floats; MatMulBT's transposeHalfInto decodes and
// transposes in one pass), while MatMul's and MatMulBT's A decodes in 4-row
// panels as the fold reaches them (matMulHFRange). Every binary16 value is
// an fp32 value and halfDecode (F16C lanes where the CPU has them,
// half_amd64.s) is bitwise halfVal, so a matmul on half operands is bitwise
// the same matmul on their decoded images — the property the fp16-path
// tests pin.

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

// matMulHFRange computes rows [lo,hi) of C = A·B with fp16 A coefficients
// against an already-decoded fp32 B. A panel of up to four rows × 256
// coefficients decodes into a stack buffer and folds through foldRows —
// 4×16 tiles with the lane kernels on — overwriting C on the first panel
// and accumulating after it. halfDecode is bitwise halfVal per element and
// every panel continues the same ascending-p fold, so each element matches
// the fp32 A's single fold on the decoded operands exactly.
func matMulHFRange(c []float32, a HalfBuffer, b []float32, k, n, lo, hi int) {
	const panel = 256
	var buf [4 * panel]float32
	for i := lo; i < hi; i += 4 {
		rows := min(4, hi-i)
		// k == 0 still runs one empty panel, which zeroes C.
		for p0 := 0; p0 == 0 || p0 < k; p0 += panel {
			cl := min(panel, k-p0)
			for r := 0; r < rows; r++ {
				halfDecode(buf[r*panel:r*panel+cl], a[(i+r)*k+p0:(i+r)*k+p0+cl])
			}
			foldRows(c[i*n:(i+rows)*n], buf[:], panel, 1, b[p0*n:], cl, n, 0, rows, p0 > 0)
		}
	}
}

// transposeHalfInto writes the decoded src[rows×cols]ᵀ into dst[cols×rows]
// in one fused pass. Row segments decode through the batch decoder into a
// stack tile before scattering, so the per-element cost is the lane
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
