//go:build !amd64

package tensor

// Portable stand-ins for the transpose and LayerNorm kernels of
// transpose_amd64.s, built on the row loops of kernels.go. useLanes is
// false here, so the kernels never call them; they keep the lane paths
// compiling, and bitwise, if a test sets it.

func transpose8(dst, src []float32, cols8, lds, ldd int) {
	for r := 0; r < 8; r++ {
		for c := 0; c < cols8; c++ {
			dst[c*ldd+r] = src[r*lds+c]
		}
	}
}

func transpose16(dst, src []float32, cols8, lds, ldd int) {
	transpose8(dst, src, cols8, lds, ldd)
	transpose8(dst[8:], src[8*lds:], cols8, lds, ldd)
}

func lnSum(s *[8]float64, x []float32, n, n8 int) {
	for r := range s {
		s[r] = lnFold(0, x[r*n:r*n+n8])
	}
}

func lnVar(s, mean *[8]float64, x []float32, n, n8 int) {
	for r := range s {
		s[r] = lnFoldSq(0, mean[r], x[r*n:r*n+n8])
	}
}

func lnDot(s, t *[8]float64, dy, xh, gamma []float32, n, n8 int) {
	for r := range s {
		s[r], t[r] = lnDotRow(0, 0, dy[r*n:r*n+n8], xh[r*n:r*n+n8], gamma)
	}
}

func lnAffine(y, xh, x, gamma, beta []float32, mean, is *[8]float32, n, n8 int) {
	for r := range mean {
		lo, hi := r*n, r*n+n8
		lnNormalize(y[lo:hi], xh[lo:hi], x[lo:hi], gamma, beta, mean[r], is[r])
	}
}

func lnParamGrad(dGamma, dBeta, dy, xh []float32, n int) {
	for r := 0; r < 8; r++ {
		lo, hi := r*n, r*n+len(dGamma)
		lnParamRow(dGamma, dBeta, dy[lo:hi], xh[lo:hi])
	}
}

func lnInputGrad(dx, dy, xh, gamma []float32, is, mdx, mdxx *[8]float64, n, n8 int) {
	for r := range is {
		lo, hi := r*n, r*n+n8
		lnInputRow(dx[lo:hi], dy[lo:hi], xh[lo:hi], gamma, is[r], mdx[r], mdxx[r])
	}
}
