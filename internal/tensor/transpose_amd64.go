//go:build amd64

package tensor

// The 8×8 register transpose (transpose_amd64.s) and the kernels built on
// it. They need AVX (useLanes). Each reads only base pointers: callers
// slice every operand to its full extent first, so a bad shape panics in
// Go.

// transpose8 writes the transpose of src's 8×cols8 block into dst:
// dst[c·ldd+r] = src[r·lds+c] for r < 8 and c < cols8, a multiple of 8.
//
//go:noescape
func transpose8(dst, src []float32, cols8, lds, ldd int)

// transpose16 is transpose8 on sixteen source rows.
//
//go:noescape
func transpose16(dst, src []float32, cols8, lds, ldd int)

// lnSum sets s[r] = Σ float64(x[r·n+j]) over j < n8, a multiple of 8,
// folded from 0 in ascending j, for the eight rows of x.
//
//go:noescape
func lnSum(s *[8]float64, x []float32, n, n8 int)

// lnVar sets s[r] = Σ d·d with d = float64(x[r·n+j]) − mean[r], over
// j < n8 as lnSum folds.
//
//go:noescape
func lnVar(s, mean *[8]float64, x []float32, n, n8 int)

// lnDot sets s[r] = Σ dxh and t[r] = Σ float64(xh[r·n+j])·dxh with dxh =
// float64(γ[j])·float64(dy[r·n+j]), over j < n8 as lnSum folds.
//
//go:noescape
func lnDot(s, t *[8]float64, dy, xh, gamma []float32, n, n8 int)

// lnAffine normalizes eight rows n floats apart over j < n8, a multiple
// of 8, row r with mean[r] and is[r]: h = (x[j] − mean)·is, xh[j] = h and
// y[j] = h·γ[j] + β[j].
//
//go:noescape
func lnAffine(y, xh, x, gamma, beta []float32, mean, is *[8]float32, n, n8 int)

// lnParamGrad folds eight rows n floats apart of dy and xh, in row order,
// into dγ[j] = xh·dy + dγ[j] and dβ[j] = dβ[j] + dy for j < len(dGamma),
// a multiple of 8.
//
//go:noescape
func lnParamGrad(dGamma, dBeta, dy, xh []float32, n int)

// lnInputGrad accumulates eight rows n floats apart over j < n8, a
// multiple of 8, row r with is[r], mdx[r] and mdxx[r]: dx[j] =
// float32(((float64(γ[j])·float64(dy[j]) − mdx) − float64(xh[j])·mdxx)·is)
// + dx[j].
//
//go:noescape
func lnInputGrad(dx, dy, xh, gamma []float32, is, mdx, mdxx *[8]float64, n, n8 int)
