//go:build !amd64

package tensor

import "math"

// Scalar stand-ins for the amd64 lane kernels, on both tiers. useLanes and
// useZMM are false here, so the kernels run their scalar loops; these keep
// the lane paths compiling, and bitwise, if a test sets them.

var useLanes, useZMM = false, false

func expLanes(e []float64, out, row []float32, max float32) uint64 {
	for i := range e {
		e[i] = math.Exp(float64(row[i] - max))
		out[i] = float32(e[i])
	}
	return 0
}

func expLanesZ(e []float64, out, row []float32, max float32) uint64 {
	return expLanes(e, out, row, max)
}

func maxLanes(m *[8]float32, row []float32) {
	for i := range m {
		m[i] = row[0]
	}
	for j, v := range row {
		if v > m[j%8] {
			m[j%8] = v
		}
	}
}

func tanhLanes(dst, src []float64) {
	for i := range dst {
		dst[i] = math.Tanh(src[i])
	}
}

func tanhLanesZ(dst, src []float64) {
	tanhLanes(dst, src)
}

func geluLanes(y, gp, x []float32) {
	for i := 0; i < len(y); i += 4 {
		gelu4(y[i:i+4], gp[i:i+4], x[i:i+4])
	}
}

func geluLanesZ(y, gp, x []float32) {
	geluLanes(y, gp, x)
}
