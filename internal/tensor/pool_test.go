package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The blocked kernels fold every output element's products in the naive
// reference order, so these tests demand exact bit equality, not tolerance
// — on the scalar path, both register-tile tiers, and every pool fan-out
// split.
// Inputs are nonzero normals (NormFloat64 never returns exactly zero), so
// the one licensed divergence — the sign of an exactly-zero sum, which the
// overwrite-first blocks may produce as -0 where a zero-initialized fold
// gives +0 — cannot occur.

func refBT(a, b []float32, m, n, k int) []float32 {
	return refMatMul(a, refTranspose(b, k, n), m, n, k)
}

// refATAdd folds the products into the initial contents in ascending-i
// order — the accumulate semantics of MatMulATAdd. (Summing the products
// first and adding initial at the end is a different association and
// diverges by an ulp.)
func refATAdd(initial, a, b []float32, m, k, n int) []float32 {
	w := make([]float32, k*n)
	copy(w, initial)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			av := a[i*k+j]
			for x := 0; x < n; x++ {
				w[j*n+x] += av * b[i*n+x]
			}
		}
	}
	return w
}

func bitsEqual(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x)",
				label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// kernelShapes spans the dispatch matrix: zero-size edges, odd/prime dims,
// fewer rows than workers, the m==1 (and k==1 for Aᵀ) column splits,
// shapes that cross parallelThreshold in each orientation, the 4×16
// tiles' row and column tails (tileShapes, halfBShapes), the 8×32 tiles'
// full blocks and leftovers (zmmShapes) and both sides of MatMulBT's fold
// rule (foldShapes).
var kernelShapes = append(append(append(append([][3]int{
	{0, 3, 2}, {3, 0, 2}, {3, 2, 0}, {0, 0, 0},
	{1, 1, 1}, {1, 2, 3}, {2, 3, 4}, {3, 1, 5}, {5, 7, 3},
	{7, 13, 11}, {13, 1, 7}, {31, 17, 29}, {67, 31, 37},
	{4, 7, 16},     // exactly one tile
	{9, 64, 128},   // work ≥ threshold, rows < workers
	{1, 256, 257},  // matvec: column split must engage
	{257, 256, 1},  // n == 1
	{256, 1, 257},  // k == 1: Aᵀ column split
	{64, 128, 512}, // the bench FC1 shape
}, tileShapes()...), halfBShapes()...), zmmShapes()...), foldShapes()...)

// tileShapes crosses m mod 4 ∈ {1,2,3} (one tile row block plus a row
// tail), n mod 16 ∈ {1,8,15} (one or two column tiles plus a column tail)
// and short reductions k ∈ {1,2,3,5}. In the Aᵀ orientations k counts the
// tile rows and m the steps, so the same triples cover their tails too.
func tileShapes() [][3]int {
	var s [][3]int
	for _, m := range []int{5, 6, 7} {
		for _, n := range []int{17, 24, 47} {
			for _, k := range []int{1, 2, 3, 5} {
				s = append(s, [3]int{m, k, n})
			}
		}
	}
	return s
}

// halfBShapes crosses n mod 16 ∈ {0,1,8,15} with m mod 4 ∈ {0,1,2,3}, at a
// short reduction and at one longer than the 256-step panels the half A
// rows and the half B strips decode in.
func halfBShapes() [][3]int {
	var s [][3]int
	for _, m := range []int{4, 5, 6, 7} {
		for _, n := range []int{32, 33, 40, 47} {
			for _, k := range []int{3, 300} {
				s = append(s, [3]int{m, k, n})
			}
		}
	}
	return s
}

// zmmShapes cross m ∈ {8, 12, 13, 16, 23} — one 8-row block, then a 4-row
// leftover, a row tail after it, two blocks, two blocks and both — with n ∈
// {32, 48, 63, 64, 111}, the same for 32-column panels, a 16-column
// leftover and a column tail, at short reductions. In the Aᵀ orientations
// k counts the tile rows, so k ∈ {3, 12, 21} is no block, a block and a
// 4-row leftover, and two blocks, a leftover and a tail. The k = 300 rows
// fold past one 256-step panel of a half A's 8-row panels.
func zmmShapes() [][3]int {
	var s [][3]int
	for _, m := range []int{8, 12, 13, 16, 23} {
		for _, n := range []int{32, 48, 63, 64, 111} {
			for _, k := range []int{3, 12, 21} {
				s = append(s, [3]int{m, k, n})
			}
		}
	}
	return append(s, [3]int{8, 300, 32}, [3]int{13, 300, 48}, [3]int{16, 300, 111})
}

// foldShapes puts m ∈ {1…9, 16} against MatMulBT reductions and output
// widths on both sides of its fold rule m·(n+k) < k·n. As a MatMulBT triple
// (m, n, k) reads (m, k, n), so each pair below is (steps, B rows) there:
// (16, 16) keeps the transpose from m = 8 on and (24, 40) at m = 16;
// (300, 132) folds past one 256-step panel into a part-filled last block
// of B rows; 512×512 folds at m ∈ {1, 8, 16}.
func foldShapes() [][3]int {
	var s [][3]int
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		for _, kn := range [][2]int{{16, 16}, {24, 40}, {300, 132}} {
			s = append(s, [3]int{m, kn[0], kn[1]})
		}
	}
	for _, m := range []int{1, 8, 16} {
		s = append(s, [3]int{m, 512, 512})
	}
	return s
}

// runShapeMatrix validates all four kernel orientations against the naive
// references for every shape, at the current GOMAXPROCS, on each fold tier
// this CPU has — so the ZMM tiles, the YMM tiles and the scalar reference
// agree bit for bit.
func runShapeMatrix(t *testing.T, seed int64) {
	for _, tier := range tiers {
		t.Run(tier, func(t *testing.T) {
			onTier(t, tier, func() { runShapes(t, seed) })
		})
	}
}

func runShapes(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for _, dims := range kernelShapes {
		m, k, n := dims[0], dims[1], dims[2]
		at := fmt.Sprintf(" %v", dims)

		a, b := randSlice(r, m*k), randSlice(r, k*n)
		c := make([]float32, m*n)
		MatMul(c, a, b, m, k, n)
		bitsEqual(t, "MatMul"+at, c, refMatMul(a, b, m, k, n))

		// BT reads the triple as (m, n, k): A[m×n]·B[k×n]ᵀ.
		bm, bn, bk := m, k, n
		a, b = randSlice(r, bm*bn), randSlice(r, bk*bn)
		c = make([]float32, bm*bk)
		MatMulBT(c, a, b, bm, bn, bk)
		bitsEqual(t, "MatMulBT"+at, c, refBT(a, b, bm, bn, bk))
		tp := make([]float32, bm*bk) // the transpose path, run by hand
		MatMul(tp, a, refTranspose(b, bk, bn), bm, bn, bk)
		bitsEqual(t, "MatMulBT vs MatMul on Bᵀ"+at, c, tp)

		a, b = randSlice(r, m*k), randSlice(r, m*n)
		c = make([]float32, k*n)
		initial := randSlice(r, k*n)
		copy(c, initial)
		MatMulATAdd(c, a, b, m, k, n)
		bitsEqual(t, "MatMulATAdd"+at, c, refATAdd(initial, a, b, m, k, n))

		c2 := make([]float32, k*n)
		matMulAT(c2, a, b, m, k, n, false)
		bitsEqual(t, "matMulAT"+at, c2, refMatMul(refTranspose(a, m, k), b, k, m, n))
	}
}

func TestKernelShapeMatrixSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runShapeMatrix(t, 21)
}

// The same matrix with the worker pool engaged: GOMAXPROCS is raised so
// the threshold-crossing shapes run split across the pool (including on
// the single-core CI box, where the pool keeps a floor of parked workers
// for exactly this).
func TestKernelShapeMatrixParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	runShapeMatrix(t, 22)
}

// Serial and fanned-out runs of the same problem must agree bit for bit —
// the balanced split changes which goroutine folds which output row, never
// what any element folds.
func TestParallelMatchesSerialBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	m, k, n := 37, 64, 128 // work ≥ threshold, odd row count
	a, b := randSlice(r, m*k), randSlice(r, k*n)

	serial := make([]float32, m*n)
	prev := runtime.GOMAXPROCS(1)
	MatMul(serial, a, b, m, k, n)
	runtime.GOMAXPROCS(4)
	par := make([]float32, m*n)
	MatMul(par, a, b, m, k, n)
	runtime.GOMAXPROCS(prev)

	bitsEqual(t, "parallel MatMul", par, serial)
}

// chunk must cover [0,units) exactly once with ranges differing by at most
// one unit — the load-balance fix over the old ceil-division split, which
// could idle width-1 workers behind an uneven tail.
func TestChunkBalanced(t *testing.T) {
	for units := 1; units <= 67; units++ {
		for width := 1; width <= 16 && width <= units; width++ {
			next, minSz, maxSz := 0, units, 0
			for i := 0; i < width; i++ {
				lo, hi := chunk(units, width, i)
				if lo != next {
					t.Fatalf("units=%d width=%d: range %d starts at %d, want %d", units, width, i, lo, next)
				}
				if hi <= lo {
					t.Fatalf("units=%d width=%d: range %d is empty [%d,%d)", units, width, i, lo, hi)
				}
				if sz := hi - lo; sz < minSz {
					minSz = sz
				} else if sz > maxSz {
					maxSz = sz
				}
				next = hi
			}
			if next != units {
				t.Fatalf("units=%d width=%d: ranges cover [0,%d), want [0,%d)", units, width, next, units)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("units=%d width=%d: range sizes span %d..%d, want max spread 1", units, width, minSz, maxSz)
			}
		}
	}
}

// Parallel kernels are allocation-free, on both operand types and on the
// half-B tile and Cᵀ fold paths, once the pool and the transpose/decode
// scratch are warm: tasks are value structs
// over a buffered channel, jobs and scratches recycle through free lists.
// Measured with a Mallocs window (testing.AllocsPerRun pins GOMAXPROCS to
// 1, which would disable the very fan-out under test).
func TestParallelKernelAllocsZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := rand.New(rand.NewSource(24))
	m, k, n := 64, 128, 512
	a, b := randSlice(r, m*k), randSlice(r, k*n)
	c := make([]float32, m*n)
	cbt := make([]float32, m*k)
	cat := make([]float32, k*n)
	ha, _ := randHalf(r, m*k)
	hb, _ := randHalf(r, k*n)
	hc, _ := randHalf(r, m*n)
	const few = 8 // rows few enough that MatMulBT folds Cᵀ
	c8, cbt8 := make([]float32, few*n), make([]float32, few*k)
	ha8, _ := randHalf(r, few*k)
	hc8, _ := randHalf(r, few*n)

	step := func() {
		MatMul(c, a, b, m, k, n)
		MatMulBT(cbt, c, b, m, n, k)
		MatMulATAdd(cat, a, c, m, k, n)
		matMulAT(cat, a, c, m, k, n, false)
		MatMul(c, ha, hb, m, k, n)
		MatMulBT(cbt, hc, hb, m, n, k)
		MatMulATAdd(cat, ha, hc, m, k, n)
		matMulAT(cat, ha, hc, m, k, n, false)
		MatMul(c8, ha8, hb, few, k, n)     // half-B tile
		MatMulBT(cbt8, c8, b, few, n, k)   // Cᵀ fold, fp32 B in place
		MatMulBT(cbt8, hc8, hb, few, n, k) // Cᵀ fold, half B decoded on the stack
	}
	for i := 0; i < 3; i++ {
		step() // warm the pool, job free list, and transpose/decode scratch
	}

	const rounds = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	perRound := float64(m1.Mallocs-m0.Mallocs) / rounds
	// Budget 0; 1 absorbs a stray background-goroutine allocation.
	if perRound > 1 {
		t.Errorf("parallel kernels allocate %.1f objects per round, want 0", perRound)
	}
}
