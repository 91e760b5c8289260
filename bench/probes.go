package main

import (
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/tensor"
)

// A probe calls one layer's public function alone, at the workload's shapes
// and world size, after the traced steps. Repetition counts are fixed so a
// probe does the same work on every run.
const (
	probeWarm     = 5
	probeReps     = 40 // the default of runOpts.probeReps
	probeTinyMult = 50 // calls that take microseconds repeat this many times more
)

// timeReps runs fn warm+reps times and returns the median seconds of the
// last reps calls.
func timeReps(warm, reps int, fn func()) float64 {
	secs := make([]float64, 0, reps)
	for i := 0; i < warm+reps; i++ {
		t := time.Now()
		fn()
		if i >= warm {
			secs = append(secs, time.Since(t).Seconds())
		}
	}
	return median(secs)
}

// onRanks runs fn on n goroutines, the way ranks share the cores, and
// returns goroutine 0's result.
func onRanks(n int, fn func(rank int) float64) float64 {
	out := make([]float64, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[r] = fn(r)
		}()
	}
	wg.Wait()
	return out[0]
}

type commProbe struct {
	reduceScatterSec float64 // Ψ elements
	allGatherSec     float64 // Ψ elements
	allReduce1Sec    float64 // one element: the vote and stop-flag latency
	serialSec        float64 // one optimizer step's collectives back to back
}

// probeComm times the collectives on a fresh world of the workload's size.
// serial is one step's schedule with no compute between the calls:
// reduceScatters gradient reductions, allGathers parameter gathers and votes
// one-element agreements.
func probeComm(n, psi, reduceScatters, allGathers, votes, reps int) commProbe {
	parts := comm.Partition(psi, n)
	var p commProbe
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		x := make([]float32, psi) // zeros stay zeros under any number of sums
		one := make([]float32, 1)
		rs := timeReps(probeWarm, reps, func() { c.ReduceScatter(x, parts) })
		ag := timeReps(probeWarm, reps, func() { c.AllGather(x, parts) })
		ar := timeReps(probeWarm, reps*probeTinyMult, func() { c.AllReduce(one) })
		serial := timeReps(probeWarm, reps, func() {
			for i := 0; i < reduceScatters; i++ {
				c.ReduceScatter(x, parts)
			}
			for i := 0; i < allGathers; i++ {
				c.AllGather(x, parts)
			}
			for i := 0; i < votes; i++ {
				c.AllReduce(one)
			}
		})
		if c.Rank() == 0 {
			p = commProbe{rs, ag, ar, serial}
		}
	})
	return p
}

type tensorProbe struct{ matmul, matmulBT, matmulATAdd float64 } // GFLOP/s

// probeTensor times the three dense kernels at the FC1 shape: X[m×k]·W[k×n]
// forward, dY[m×n]·Wᵀ for the input gradient, Xᵀ·dY for the weight gradient,
// which keeps accumulating into one buffer: only the kernel is timed.
func probeTensor(m, k, n, reps int) tensorProbe {
	x := make([]float32, m*k)
	w := make([]float32, k*n)
	y := make([]float32, m*n)
	for i := range x {
		x[i] = float32(i%7) * 0.25
	}
	for i := range w {
		w[i] = float32(i%5) * 0.5
	}
	for i := range y {
		y[i] = float32(i%3) * 0.125
	}
	dx := make([]float32, m*k)
	dw := make([]float32, k*n)
	if m*k*n < 1<<20 {
		reps *= probeTinyMult
	}
	gflops := func(sec float64) float64 { return 2 * float64(m) * float64(k) * float64(n) / sec / 1e9 }
	return tensorProbe{
		matmul:      gflops(timeReps(probeWarm, reps, func() { tensor.MatMul(y, x, w, m, k, n) })),
		matmulBT:    gflops(timeReps(probeWarm, reps, func() { tensor.MatMulBT(dx, y, w, m, n, k) })),
		matmulATAdd: gflops(timeReps(probeWarm, reps, func() { tensor.MatMulATAdd(dw, x, y, m, k, n) })),
	}
}

// probeModel is the comm-free reference: the plain single-worker forward
// and backward of one micro-batch, run N-wide on each rank's row shard so
// the cores are contended as they are in training. Returns rank 0's median
// seconds.
func probeModel(cfg engine.Config, reps int) float64 {
	seq := tokensPerStep(cfg) / cfg.GlobalBatch
	ids, targets := model.SyntheticBatch(cfg.Seed, cfg.MicroBatch, seq, cfg.Model.Vocab)
	return onRanks(cfg.Ranks, func(rank int) float64 {
		m := model.New(cfg.Model, cfg.Seed)
		if cfg.Precision != nil && cfg.Precision.FP16Compute {
			m.SetFP16Compute(true)
		}
		shardIDs, shardTargets, rows := model.ShardBatch(ids, targets, cfg.MicroBatch, cfg.Ranks, rank)
		return timeReps(probeWarm, reps, func() {
			m.ZeroGrads()
			m.Loss(shardIDs, shardTargets, rows)
			m.Backward()
		})
	})
}

// probeOptimizer times the configured update rule over a Ψ/N shard on N
// goroutines. Returns rank 0's median seconds.
func probeOptimizer(cfg engine.Config, psi, reps int) (float64, error) {
	kind, err := optimizer.ParseKind(cfg.Optimizer.Type)
	if err != nil {
		return 0, err
	}
	spec := optimizer.Spec{Kind: kind, LR: cfg.Optimizer.LR, Momentum: cfg.Optimizer.Momentum, WeightDecay: cfg.Optimizer.WeightDecay}
	shard := psi / cfg.Ranks
	opts := make([]optimizer.Optimizer, cfg.Ranks)
	for r := range opts {
		if opts[r], err = optimizer.New(spec, shard); err != nil {
			return 0, err
		}
	}
	return onRanks(cfg.Ranks, func(rank int) float64 {
		params := make([]float32, shard)
		grads := make([]float32, shard)
		for i := range grads {
			grads[i] = float32(i%11-5) * 1e-3
		}
		return timeReps(probeWarm, reps, func() { opts[rank].Step(params, grads) })
	}), nil
}

// probeData times the loader alone: tokens per second of NextBatch with no
// training between the calls. 0 for a config with no data section.
func probeData(cfg engine.Config) (float64, error) {
	if cfg.Data == nil {
		return 0, nil
	}
	ld, err := engine.OpenData(cfg)
	if err != nil {
		return 0, err
	}
	defer ld.Close()
	const warm, batches = 50, 2000
	for i := 0; i < warm; i++ {
		ld.NextBatch()
	}
	t := time.Now()
	for i := 0; i < batches; i++ {
		ld.NextBatch()
	}
	return float64(batches*cfg.MicroBatch*cfg.Data.SeqLen) / time.Since(t).Seconds(), nil
}

// modelFlops counts the multiply-add work of one rank's share of one
// micro-batch, forward plus backward (twice the forward), as 2 FLOPs per
// multiply-add: per layer the QKV, projection and two MLP matmuls (24·M·h²)
// and the attention scores and context (4·M·T·h), plus the tied head.
func modelFlops(mc model.Config, rowsPerRank, seq int) float64 {
	m := float64(rowsPerRank * seq)
	h := float64(mc.Hidden)
	forward := float64(mc.Layers)*(24*m*h*h+4*m*float64(seq)*h) + 2*m*h*float64(mc.Vocab)
	return 3 * forward
}
