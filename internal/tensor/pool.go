package tensor

import (
	"runtime"
	"sync"
)

// Persistent worker pool for the parallel kernels.
//
// The previous fan-out spawned GOMAXPROCS goroutines per matmul call — a
// closure, an escaping WaitGroup and one goroutine handoff per chunk, per
// call. A steady-state training step runs hundreds of parallel kernels, so
// that per-call churn was the last allocation source standing after the
// workspace/arena discipline (and why the alloc tests had to pin
// GOMAXPROCS to 1). The pool starts its workers once, on the first
// parallel kernel, and every later dispatch is allocation-free: tasks are
// small value structs copied into a buffered channel, and the per-call
// bookkeeping (kernel arguments + completion WaitGroup) lives in a job
// object recycled through a free list.
//
// Dispatch width adapts to runtime.GOMAXPROCS at every call (the pool
// keeps enough parked workers to cover a GOMAXPROCS raised above the
// physical core count, as tests on small containers do), the work is split
// into ranges whose sizes differ by at most one unit — for the row kernels
// a unit is a block of rows as tall as the active register tile, so no
// tile is cut across two tasks — and the caller executes the final range
// itself, so a split that resolves to a single chunk runs inline on the
// calling goroutine with no handoff at all.

// op selects the range kernel a task runs; see kernel.run.
type op int8

const (
	opRows     op = iota // foldRows over output rows
	opCols               // foldCols over the columns of a single output row
	opHalfRows           // matMulHFRange: fp16 A decoded in panels per row range
	opFoldBT             // foldBT over 8-row blocks of MatMulBT's Cᵀ
)

// kernel is one matmul's range kernel and its arguments: C[·×n] folds k
// steps over B's rows, step p's coefficient for row i at a[i·ars+p·aps]
// (ha for opHalfRows, which reads A by rows), overwriting C unless add.
// opFoldBT reads B's rows as the coefficients and a as the rows (foldBT).
type kernel struct {
	kind     op
	c, a     []float32
	b        bOperand
	ha       HalfBuffer
	ars, aps int
	k, n     int
	add      bool
}

// run computes output rows (columns, for opCols; 8-row blocks, for
// opFoldBT) [lo,hi).
func (kr *kernel) run(lo, hi int) {
	switch kr.kind {
	case opRows:
		foldRows(kr.c, kr.a, kr.ars, kr.aps, kr.b, kr.k, kr.n, lo, hi, kr.add)
	case opCols: // an fp32 A, so an fp32 B
		foldCols(kr.c, kr.a, kr.aps, kr.b.f, kr.k, kr.n, lo, hi, kr.add)
	case opHalfRows:
		matMulHFRange(kr.c, kr.ha, kr.b, kr.k, kr.n, lo, hi)
	case opFoldBT:
		foldBT(kr.c, kr.a, kr.b, kr.k, kr.n, lo, hi)
	}
}

// job carries one parallel kernel invocation and its completion counter.
// Jobs are recycled through jobFree so steady-state dispatch does not
// allocate.
type job struct {
	kernel
	wg sync.WaitGroup
}

// task is one worker's share of a job: rows (or columns) [lo,hi).
type task struct {
	j      *job
	lo, hi int
}

var (
	poolOnce sync.Once
	poolCh   chan task
	jobFree  chan *job
	poolSize int
)

// startPool launches the per-process workers: one per real core, with a
// small floor so a GOMAXPROCS raised above the detected count still
// exercises real fan-out. Parked workers cost one stack each and no CPU.
func startPool() {
	poolSize = runtime.NumCPU()
	if poolSize < 8 {
		poolSize = 8
	}
	poolCh = make(chan task, 4*poolSize)
	jobFree = make(chan *job, 4*poolSize)
	for i := 0; i < cap(jobFree); i++ {
		jobFree <- new(job)
	}
	for i := 0; i < poolSize; i++ {
		go func() {
			for t := range poolCh {
				t.j.run(t.lo, t.hi)
				t.j.wg.Done()
			}
		}()
	}
}

// chunk returns the i-th of width balanced ranges over units: every range
// gets units/width, and the first units%width ranges take one extra unit —
// ranges differ by at most one, so no core idles behind an uneven tail
// (the old ceil-division split could leave width-1 cores a full chunk
// short: 9 rows on 8 procs made five 2-row chunks and three idle cores).
func chunk(units, width, i int) (lo, hi int) {
	q, r := units/width, units%width
	lo = i*q + min(i, r)
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}

// rowGrain is the height of the widest row tile the row kernels run: 8
// with the 512-bit tier, 4 with the lane kernels, else 1 (the axpy sweep
// folds a row at a time).
func rowGrain() int {
	switch {
	case useZMM:
		return 8
	case useLanes:
		return 4
	}
	return 1
}

// run computes all units of kr. Problems below parallelThreshold fused
// multiply-adds (work), with a single block of units, or on one proc run
// inline; the rest split across the pool and the calling goroutine. The
// row kernels split at multiples of rowGrain, so no register tile is cut
// in two across tasks; every other kernel splits unit by unit.
func run(kr kernel, units, work int) {
	grain := 1
	if kr.kind == opRows || kr.kind == opHalfRows {
		grain = rowGrain()
	}
	blocks := (units + grain - 1) / grain
	width := runtime.GOMAXPROCS(0)
	if work < parallelThreshold || blocks <= 1 || width <= 1 {
		kr.run(0, units)
		return
	}
	poolOnce.Do(startPool)
	width = min(width, poolSize+1, blocks) // parked workers plus the caller itself
	var jb *job
	select {
	case jb = <-jobFree:
	default:
		jb = new(job) // free list drained by concurrent ranks; rare
	}
	jb.kernel = kr
	jb.wg.Add(width - 1)
	for i := 0; i < width-1; i++ {
		lo, hi := chunk(blocks, width, i)
		poolCh <- task{j: jb, lo: lo * grain, hi: hi * grain}
	}
	lo, _ := chunk(blocks, width, width-1)
	kr.run(lo*grain, units) // caller takes the last range
	jb.wg.Wait()
	jb.kernel = kernel{}
	select {
	case jobFree <- jb:
	default:
	}
}

// scratchFree recycles the fp32 operand images the matmuls build:
// MatMulBT's transposes and decoded half operands. A channel free list
// (not sync.Pool) so the steady state is deterministically
// allocation-free: buffers are never dropped by GC, and the capacity
// bounds how many concurrent ranks can park one.
var scratchFree = make(chan []float32, 16)

func getScratch(n int) []float32 {
	select {
	case s := <-scratchFree:
		if cap(s) >= n {
			return s[:n]
		}
	default:
	}
	return make([]float32, n)
}

func putScratch(s []float32) {
	select {
	case scratchFree <- s:
	default:
	}
}
