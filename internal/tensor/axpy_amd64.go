//go:build amd64

package tensor

// The SSE axpy inner loops (axpy_amd64.s); the AVX and AVX-512
// register-blocked tiles are in gemm_amd64.s. The vector lanes map to
// distinct output elements, so every element folds its products in
// exactly the scalar order — the assembly is bitwise interchangeable with
// the fallbacks in axpy_generic.go, and kernels built on these helpers
// produce identical results on every architecture.
//
// Callers guarantee len(b*) >= len(c); the loops run over len(c).

// axpy1 computes c[j] += a*b[j].
//
//go:noescape
func axpy1(c, b []float32, a float32)

// ov1 computes c[j] = a*b[j].
//
//go:noescape
func ov1(c, b []float32, a float32)

// axpy4 computes c[j] = c[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j],
// folding left to right per element.
//
//go:noescape
func axpy4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

// ov4 computes c[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j], folding
// left to right per element.
//
//go:noescape
func ov4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

// gemmTile folds a 4×16 block of C over k ≥ 1 steps: for r < 4, x < 16,
//
//	c[r·n+x] = c[r·n+x] + a[r·ars]·b[x] + a[r·ars+aps]·b[n+x] + …
//
// left to right, with step p's coefficient at a[r·ars+p·aps] and B's rows
// n apart. Without add, step 0's product starts the fold instead of C. It
// needs AVX (useLanes) and reads only base pointers: callers slice every
// operand to the tile's full extent first, so a bad shape panics in Go.
//
//go:noescape
func gemmTile(c, a, b []float32, n, ars, aps, k int, add bool)

// gemmTileH is gemmTile over a binary16 B, read in place: each step
// converts B's 16-value row segment on load (VCVTPH2PS, exact), with B's
// rows n halves apart.
//
//go:noescape
func gemmTileH(c, a []float32, b []Half, n, ars, aps, k int, add bool)

// gemmTileZ folds an 8×32 block of C as gemmTile folds its 4×16 one, in
// ZMM registers. It needs AVX-512F (useZMM); same slicing contract.
//
//go:noescape
func gemmTileZ(c, a, b []float32, n, ars, aps, k int, add bool)

// gemmTileZH is gemmTileZ over a binary16 B read in place, as gemmTileH.
//
//go:noescape
func gemmTileZH(c, a []float32, b []Half, n, ars, aps, k int, add bool)

// gemmTile8 folds an 8×8 block of C over k ≥ 1 steps: for r < 8, x < 8,
//
//	c[r·n+x] = c[r·n+x] + a[r·ars]·b[x] + a[r·ars+aps]·b[n+x] + …
//
// left to right, as gemmTile, except that each product is coefficient ·
// row: the coefficient is the first source, so a NaN coefficient's payload
// wins over a NaN in b. Same slicing contract as gemmTile.
//
//go:noescape
func gemmTile8(c, a, b []float32, n, ars, aps, k int, add bool)
