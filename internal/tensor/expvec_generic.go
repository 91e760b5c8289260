//go:build !amd64

package tensor

import "math"

// Scalar stand-ins for the amd64 lane kernels. useLanes and useZMM are
// false here, so the kernels run their scalar loops; these keep the chunked paths
// compiling, and bitwise, if a test sets it.

var useLanes, useZMM = false, false

func expLanes(dst, src []float64) uint64 {
	for i := range dst {
		dst[i] = math.Exp(src[i])
	}
	return 0
}

func tanhLanes(dst, src []float64) {
	for i := range dst {
		dst[i] = math.Tanh(src[i])
	}
}

func geluLanes(y, gp, x []float32) {
	for i := 0; i < len(y); i += 4 {
		gelu4(y[i:i+4], gp[i:i+4], x[i:i+4])
	}
}
