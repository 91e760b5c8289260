package testutil

import (
	"math"
	"testing"
)

func TestHelpers(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	AXPY(2, x, y)
	want := []float32{6, 9, 12}
	if d := MaxDiff(y, want); d != 0 {
		t.Fatalf("AXPY: got %v, want %v", y, want)
	}
	if Dot(x, x) != 14 {
		t.Errorf("Dot = %v, want 14", Dot(x, x))
	}
	if Sum(x) != 6 {
		t.Errorf("Sum = %v, want 6", Sum(x))
	}
	if !HasNaNOrInf([]float32{1, float32(math.Inf(1))}) || !HasNaNOrInf([]float32{float32(math.NaN())}) {
		t.Error("HasNaNOrInf missed a non-finite value")
	}
	if HasNaNOrInf(x) {
		t.Error("HasNaNOrInf false positive")
	}
	for name, fn := range map[string]func(){
		"MaxDiff": func() { MaxDiff(make([]float32, 2), make([]float32, 3)) },
		"AXPY":    func() { AXPY(1, make([]float32, 2), make([]float32, 3)) },
		"Dot":     func() { Dot(make([]float32, 2), make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}
