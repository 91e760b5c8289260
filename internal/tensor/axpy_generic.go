//go:build !amd64

package tensor

// Portable axpy inner loops. These fold each output element's products in
// the same left-to-right order as the SSE versions in axpy_amd64.s, so the
// kernels produce bitwise-identical results on every architecture.

func axpy1(c, b []float32, a float32) {
	b = b[:len(c)]
	for j := range c {
		c[j] += a * b[j]
	}
}

func ov1(c, b []float32, a float32) {
	b = b[:len(c)]
	for j := range c {
		c[j] = a * b[j]
	}
}

func axpy4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0 = b0[:len(c)]
	b1 = b1[:len(c)]
	b2 = b2[:len(c)]
	b3 = b3[:len(c)]
	for j := range c {
		c[j] = c[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

func ov4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0 = b0[:len(c)]
	b1 = b1[:len(c)]
	b2 = b2[:len(c)]
	b3 = b3[:len(c)]
	for j := range c {
		c[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// gemmTile, gemmTileH, gemmTileZ, gemmTileZH and gemmTile8 are the amd64
// tiles' stand-ins; useLanes and useZMM are false here, so the kernels
// never call them.
func gemmTile(c, a, b []float32, n, ars, aps, k int, add bool) {
	tileRef(c, a, n, ars, aps, k, add, 4, 16, func(i int) float32 { return b[i] })
}

func gemmTileH(c, a []float32, b []Half, n, ars, aps, k int, add bool) {
	tileRef(c, a, n, ars, aps, k, add, 4, 16, func(i int) float32 { return halfVal(b[i]) })
}

func gemmTileZ(c, a, b []float32, n, ars, aps, k int, add bool) {
	tileRef(c, a, n, ars, aps, k, add, 8, 32, func(i int) float32 { return b[i] })
}

func gemmTileZH(c, a []float32, b []Half, n, ars, aps, k int, add bool) {
	tileRef(c, a, n, ars, aps, k, add, 8, 32, func(i int) float32 { return halfVal(b[i]) })
}

func gemmTile8(c, a, b []float32, n, ars, aps, k int, add bool) {
	tileRef(c, a, n, ars, aps, k, add, 8, 8, func(i int) float32 { return b[i] })
}

// tileRef folds a rows×cols block of C the way the tiles do, B's element i
// read through b.
func tileRef(c, a []float32, n, ars, aps, k int, add bool, rows, cols int, b func(int) float32) {
	for r := 0; r < rows; r++ {
		for x := 0; x < cols; x++ {
			s := c[r*n+x]
			for p := 0; p < k; p++ {
				if v := a[r*ars+p*aps] * b(p*n+x); p > 0 || add {
					s += v
				} else {
					s = v
				}
			}
			c[r*n+x] = s
		}
	}
}
