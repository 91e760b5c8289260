// Package testutil holds the numeric oracles that tests in several packages
// share (MaxDiff, HasNaNOrInf, AXPY, Dot, Sum) and the tier-1 test that pins
// every internal/ package's exported surface to its importers. It imports
// nothing under internal/, so any package's in-package tests can import it
// without a cycle; no production code does.
package testutil

import "math"

// MaxDiff returns the largest absolute elementwise difference between x
// and y, for numeric-equivalence tests.
func MaxDiff(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("testutil: MaxDiff length mismatch")
	}
	var m float64
	for i, v := range x {
		d := math.Abs(float64(v) - float64(y[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// HasNaNOrInf reports whether x contains a non-finite value.
func HasNaNOrInf(x []float32) bool {
	for _, v := range x {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

// AXPY computes y[i] += a*x[i] in the plain scalar loop, the reference a
// finite-difference or hand-built expected value steps along.
func AXPY(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic("testutil: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Dot returns the inner product of x and y accumulated in float64.
func Dot(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("testutil: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += float64(v) * float64(y[i])
	}
	return s
}

// Sum returns the float64-accumulated sum of x.
func Sum(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}
