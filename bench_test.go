// Package repro's top-level benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (regenerating the experiment
// end to end), plus microbenchmarks of the training engines themselves and
// ablations of the design choices called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/elastic"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/zero"
)

// --- One benchmark per paper table/figure -------------------------------

func benchTable(b *testing.B, driver func() experiments.Table) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := driver()
		t.Render(io.Discard)
	}
}

func BenchmarkFig1(b *testing.B)       { benchTable(b, experiments.Fig1) }
func BenchmarkTable1(b *testing.B)     { benchTable(b, experiments.Table1) }
func BenchmarkTable2(b *testing.B)     { benchTable(b, experiments.Table2) }
func BenchmarkFig2(b *testing.B)       { benchTable(b, experiments.Fig2) }
func BenchmarkFig3(b *testing.B)       { benchTable(b, experiments.Fig3) }
func BenchmarkFig4(b *testing.B)       { benchTable(b, experiments.Fig4) }
func BenchmarkFig5(b *testing.B)       { benchTable(b, experiments.Fig5) }
func BenchmarkFig6(b *testing.B)       { benchTable(b, experiments.Fig6) }
func BenchmarkFig7(b *testing.B)       { benchTable(b, experiments.Fig7) }
func BenchmarkFig8(b *testing.B)       { benchTable(b, experiments.Fig8) }
func BenchmarkCommVolume(b *testing.B) { benchTable(b, experiments.CommVolume) }

// --- Training-engine microbenchmarks -------------------------------------

func benchConfig() model.Config {
	return model.Config{Layers: 2, Hidden: 64, Heads: 4, Vocab: 64, Seq: 32}
}

// BenchmarkSingleProcessStep is the no-communication reference.
func BenchmarkSingleProcessStep(b *testing.B) {
	cfg := benchConfig()
	m := model.New(cfg, 1)
	ids, targets := model.SyntheticBatch(1, 4, cfg.Seq, cfg.Vocab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		m.Loss(ids, targets, 4)
		m.Backward()
	}
}

func benchWorld(b *testing.B, run func(c *comm.Comm, ids, targets []int)) {
	b.Helper()
	b.ReportAllocs()
	cfg := benchConfig()
	ids, targets := model.SyntheticBatch(1, 4, cfg.Seq, cfg.Vocab)
	w := comm.NewWorld(4)
	b.ResetTimer()
	w.Run(func(c *comm.Comm) {
		run(c, ids, targets)
	})
}

func benchZeROStage(b *testing.B, stage zero.Stage) {
	benchWorld(b, func(c *comm.Comm, ids, targets []int) {
		tr := zero.MustNew(c, benchConfig(), zero.Options{Stage: stage, LR: 1e-3, Seed: 1})
		for i := 0; i < b.N; i++ {
			tr.Step(ids, targets, 4)
		}
	})
}

func BenchmarkDDPStep(b *testing.B)        { benchZeROStage(b, zero.StageDDP) }
func BenchmarkZeROStage1Step(b *testing.B) { benchZeROStage(b, zero.StageOS) }
func BenchmarkZeROStage2Step(b *testing.B) { benchZeROStage(b, zero.StageOSG) }
func BenchmarkZeROStage3Step(b *testing.B) { benchZeROStage(b, zero.StageOSGP) }

// --- Ablations ------------------------------------------------------------

// Bucketed vs unfused reduce-scatter (the CB design choice): same math,
// different message framing.
func BenchmarkZeROStage2Bucketed(b *testing.B) {
	benchWorld(b, func(c *comm.Comm, ids, targets []int) {
		tr := zero.MustNew(c, benchConfig(), zero.Options{
			Stage: zero.StageOSG, LR: 1e-3, Seed: 1, BucketElems: 4096,
		})
		for i := 0; i < b.N; i++ {
			tr.Step(ids, targets, 4)
		}
	})
}

// Activation checkpointing trades ~33% recompute for activation memory.
func BenchmarkZeROStage2Checkpointed(b *testing.B) {
	benchWorld(b, func(c *comm.Comm, ids, targets []int) {
		tr := zero.MustNew(c, benchConfig(), zero.Options{
			Stage: zero.StageOSG, LR: 1e-3, Seed: 1, Checkpoint: true,
		})
		for i := 0; i < b.N; i++ {
			tr.Step(ids, targets, 4)
		}
	})
}

// FP16 simulation cost (rounding passes + master-shard bookkeeping).
func BenchmarkZeROStage2FP16(b *testing.B) {
	benchWorld(b, func(c *comm.Comm, ids, targets []int) {
		tr := zero.MustNew(c, benchConfig(), zero.Options{
			Stage: zero.StageOSG, LR: 1e-3, Seed: 1, FP16: true,
		})
		for i := 0; i < b.N; i++ {
			tr.Step(ids, targets, 4)
		}
	})
}

// Collective primitives at gradient-buffer scale.
func BenchmarkAllReduce1M(b *testing.B) {
	const n, elems = 4, 1 << 20
	w := comm.NewWorld(n)
	b.SetBytes(elems * 4)
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(c *comm.Comm) {
		x := make([]float32, elems)
		for i := 0; i < b.N; i++ {
			c.AllReduce(x)
		}
	})
}

func BenchmarkReduceScatter1M(b *testing.B) {
	const n, elems = 4, 1 << 20
	w := comm.NewWorld(n)
	b.SetBytes(elems * 4)
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(c *comm.Comm) {
		x := make([]float32, elems)
		parts := comm.Partition(elems, c.Size())
		for i := 0; i < b.N; i++ {
			c.ReduceScatter(x, parts)
		}
	})
}

// --- Extension benchmarks -------------------------------------------------

func BenchmarkAblations(b *testing.B) { benchTable(b, experiments.Ablations) }

func BenchmarkHierarchicalAllReduce1M(b *testing.B) {
	const n, elems, nodeSize = 8, 1 << 20, 4
	w := comm.NewWorld(n)
	b.SetBytes(elems * 4)
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(c *comm.Comm) {
		x := make([]float32, elems)
		for i := 0; i < b.N; i++ {
			if err := c.AllReduceHierarchical(comm.F32Buf(x), nodeSize); err != nil {
				b.Error(err)
			}
		}
	})
}

func BenchmarkZeROStage2Clipped(b *testing.B) {
	benchWorld(b, func(c *comm.Comm, ids, targets []int) {
		tr := zero.MustNew(c, benchConfig(), zero.Options{
			Stage: zero.StageOSG, LR: 1e-3, Seed: 1, ClipNorm: 1,
		})
		for i := 0; i < b.N; i++ {
			tr.Step(ids, targets, 4)
		}
	})
}

func BenchmarkSnapshotSaveLoad(b *testing.B) {
	cfg := benchConfig()
	ids, targets := model.SyntheticBatch(1, 4, cfg.Seq, cfg.Vocab)
	w := comm.NewWorld(4)
	var shared *zero.Snapshot
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(c *comm.Comm) {
		tr := zero.MustNew(c, cfg, zero.Options{Stage: zero.StageOSG, LR: 1e-3, Seed: 1})
		tr.Step(ids, targets, 4)
		for i := 0; i < b.N; i++ {
			// Load only copies out, so the ranks share rank 0's snapshot.
			if snap := tr.Save(); snap != nil {
				shared = snap
			}
			c.Barrier()
			if err := tr.Load(shared); err != nil {
				b.Error(err)
			}
			c.Barrier() // nobody saves the next one while a rank still reads this one
		}
	})
}

// --- Stage API / stream benchmarks ----------------------------------------

// BenchmarkStreamReduceScatter1M: a stream at gradient scale, submit + wait
// per iteration. Compare with the synchronous BenchmarkReduceScatter1M
// above: the delta is queue overhead alone, the win is the compute that can
// now ride under the wire time.
func BenchmarkStreamReduceScatter1M(b *testing.B) {
	const n, elems = 4, 1 << 20
	w := comm.NewWorld(n)
	b.SetBytes(elems * 4)
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(c *comm.Comm) {
		s := comm.NewScheduler(c)
		defer s.Close()
		st := s.Stream("grad")
		x := make([]float32, elems)
		parts := comm.Partition(elems, c.Size())
		for i := 0; i < b.N; i++ {
			st.ReduceScatter(comm.F32Buf(x), parts).Wait()
		}
	})
}

// benchStageConfig is larger than benchConfig so backward compute is deep
// enough for the overlap window to matter.
func benchStageConfig() model.Config {
	return model.Config{Layers: 4, Hidden: 128, Heads: 4, Vocab: 128, Seq: 32}
}

// BenchmarkStageStep sweeps the unified Stage API: ns/step for every stage
// with the synchronous and the overlapped bucket schedule, reporting the
// measured wire traffic per rank per step (the BENCH_*.json baseline).
func BenchmarkStageStep(b *testing.B) {
	const ranks, batch = 4, 8
	cfg := benchStageConfig()
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)
	for _, stage := range zero.AllStages {
		for _, overlap := range []bool{false, true} {
			name := fmt.Sprintf("stage=%d/overlap=%v", int(stage), overlap)
			b.Run(name, func(b *testing.B) {
				w := comm.NewWorld(ranks)
				b.ReportAllocs()
				b.ResetTimer()
				w.Run(func(c *comm.Comm) {
					tr := zero.MustNew(c, cfg, zero.Options{
						Stage: stage, LR: 1e-3, Seed: 1,
						BucketElems: 4096, Overlap: overlap, FP16: true,
					})
					defer tr.Close()
					for i := 0; i < b.N; i++ {
						tr.Step(ids, targets, batch)
					}
				})
				b.StopTimer()
				// Bytes are measured natively by the dtype-tagged buffers
				// (fp16 wire under the FP16 option), not inferred.
				bytesPerStep := float64(w.Stats(0).BytesSent) / float64(b.N)
				b.ReportMetric(bytesPerStep, "wire-B/rank/step")
			})
		}
	}
}

// BenchmarkFP16Step pits the true fp16 compute path against the f32 path
// on otherwise identical stage-2/overlap and stage-3/overlap+prefetch
// steps (the BENCH_FP16.json baseline). Beyond ns/op — the acceptance gate
// holds fp16 within 15% of f32 — each row reports the measured compute
// residency (step workspace + the parameter copy the kernels read), which
// the fp16 rows must keep under 60% of their f32 counterparts, and the
// allocs/op hard gate covers the half-kernel scratch pooling.
func BenchmarkFP16Step(b *testing.B) {
	const ranks, batch = 4, 8
	cfg := benchStageConfig()
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)
	for _, mode := range []struct {
		name              string
		stage             zero.Stage
		overlap, prefetch bool
	}{
		{"stage=2", zero.StageOSGrad, true, false},
		{"stage=3", zero.StageFull, true, true},
	} {
		for _, fp16 := range []bool{false, true} {
			prec := "fp32"
			if fp16 {
				prec = "fp16"
			}
			b.Run(mode.name+"/prec="+prec, func(b *testing.B) {
				w := comm.NewWorld(ranks)
				var resident int64
				b.ReportAllocs()
				b.ResetTimer()
				w.Run(func(c *comm.Comm) {
					tr := zero.MustNew(c, cfg, zero.Options{
						Stage: mode.stage, LR: 1e-3, Seed: 1,
						BucketElems: 4096, FP16: true,
						Overlap: mode.overlap, Prefetch: mode.prefetch,
						FP16Compute: fp16,
					})
					defer tr.Close()
					for i := 0; i < b.N; i++ {
						tr.Step(ids, targets, batch)
					}
					if c.Rank() == 0 {
						resident = tr.ComputeResidencyBytes()
					}
				})
				b.StopTimer()
				b.ReportMetric(float64(resident), "resident-B/rank")
				bytesPerStep := float64(w.Stats(0).BytesSent) / float64(b.N)
				b.ReportMetric(bytesPerStep, "wire-B/rank/step")
			})
		}
	}
}

// BenchmarkPrefetchStep: stage 3 with the synchronous parameter gathers,
// the pipelined prefetch schedule, and prefetch + gradient overlap (all
// three streams armed).
func BenchmarkPrefetchStep(b *testing.B) {
	const ranks, batch = 4, 8
	cfg := benchStageConfig()
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)
	for _, mode := range []struct {
		name              string
		overlap, prefetch bool
	}{
		{"sync", false, false},
		{"prefetch", false, true},
		{"prefetch+overlap", true, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			w := comm.NewWorld(ranks)
			b.ReportAllocs()
			b.ResetTimer()
			w.Run(func(c *comm.Comm) {
				tr := zero.MustNew(c, cfg, zero.Options{
					Stage: zero.StageFull, LR: 1e-3, Seed: 1,
					BucketElems: 4096, FP16: true,
					Overlap: mode.overlap, Prefetch: mode.prefetch,
				})
				defer tr.Close()
				for i := 0; i < b.N; i++ {
					tr.Step(ids, targets, batch)
				}
			})
			b.StopTimer()
			bytesPerStep := float64(w.Stats(0).BytesSent) / float64(b.N)
			b.ReportMetric(bytesPerStep, "wire-B/rank/step")
		})
	}
}

// BenchmarkHierarchicalStep sweeps the topology knob on an 8-rank stage-2
// world: flat routing versus hierarchical routing at node widths 2 and 4.
// Total volume is identical across rows — the hierarchy only re-splits it
// between the intra- and inter-node legs — so on this in-process simulator
// the interesting metric is the measured inter-node share, reported per
// rank per step.
func BenchmarkHierarchicalStep(b *testing.B) {
	const ranks, batch = 8, 8
	cfg := benchStageConfig()
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)
	for _, nodeSize := range []int{0, 2, 4} {
		name := "flat"
		if nodeSize > 0 {
			name = fmt.Sprintf("node=%d", nodeSize)
		}
		b.Run(name, func(b *testing.B) {
			w := comm.NewWorld(ranks)
			b.ReportAllocs()
			b.ResetTimer()
			w.Run(func(c *comm.Comm) {
				tr := zero.MustNew(c, cfg, zero.Options{
					Stage: zero.StageOSGrad, LR: 1e-3, Seed: 1,
					BucketElems: 4096, Overlap: true, FP16: true,
					Topology: zero.Topology{NodeSize: nodeSize},
				})
				defer tr.Close()
				for i := 0; i < b.N; i++ {
					tr.Step(ids, targets, batch)
				}
			})
			b.StopTimer()
			st := w.Stats(0)
			b.ReportMetric(float64(st.BytesSent)/float64(b.N), "wire-B/rank/step")
			b.ReportMetric(float64(st.PerGroup["hier-inter"].Bytes)/float64(b.N), "inter-B/rank/step")
		})
	}
}

// BenchmarkAccumStep sweeps GradAccumSteps through the Engine API at a
// fixed global batch: ns per optimizer step for k ∈ {1,2,4} micro-batches
// (stage 2, fp16, overlapped buckets), reporting measured wire bytes per
// boundary. Larger k trades step latency for the (k+1)/2k wire discount
// and a fixed Ψ/N accumulator.
func BenchmarkAccumStep(b *testing.B) {
	const globalBatch = 16
	base := engine.DefaultConfig()
	base.Model = benchStageConfig()
	base.Ranks = 4
	base.Stage = "2"
	base.Optimizer.LR = 1e-3
	base.Seed = 1
	base.FP16 = true
	base.BucketElems = 4096
	base.Overlap = true
	base.GlobalBatch = globalBatch
	ids, targets := model.SyntheticBatch(1, globalBatch, base.Model.Seq, base.Model.Vocab)
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("accum=%d", k), func(b *testing.B) {
			cfg := base
			cfg.GradAccumSteps = k
			cfg.MicroBatch = 0 // derive globalBatch/k
			b.ReportAllocs()
			b.ResetTimer()
			w, err := engine.Run(cfg, func(e *engine.Engine) {
				for i := 0; i < b.N; i++ {
					e.TrainBatch(ids, targets)
				}
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(w.Stats(0).BytesSent)/float64(b.N), "wire-B/rank/step")
		})
	}
}

// benchSnapshot builds a synthetic snapshot captured at n ranks with optK
// optimizer tensors, position-dependent values.
func benchSnapshot(n, numParams, optK int) *zero.Snapshot {
	s := &zero.Snapshot{
		Stage:     zero.StageOSG,
		WorldSize: n,
		NumParams: numParams,
		OptSteps:  3,
		Params:    make([]float32, numParams),
		Opt:       make([][]float32, optK),
	}
	for i := range s.Params {
		s.Params[i] = float32(i) * 0.5
	}
	for k := range s.Opt {
		s.Opt[k] = make([]float32, numParams)
		for i := range s.Opt[k] {
			s.Opt[k][i] = float32(k*numParams + i)
		}
	}
	return s
}

// BenchmarkElastic measures the elastic-checkpointing path against the
// BENCH_ELASTIC.json baseline: the asynchronous boundary snapshot as the
// training loop sees it (capture + submit; the gather rides the checkpoint
// stream), with the double buffer's exposed stall reported separately in
// stall-ns/op — the number that must stay near zero for "snapshots don't
// stall training" to hold — plus the ZELC encode/decode round trip of a
// snapshot.
func BenchmarkElastic(b *testing.B) {
	b.Run("snap", func(b *testing.B) {
		const ranks, batch = 4, 8
		cfg := benchStageConfig()
		ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)
		snapper, err := elastic.NewSnapshotter(elastic.Policy{Every: 1}, ranks)
		if err != nil {
			b.Fatal(err)
		}
		w := comm.NewWorld(ranks)
		// No ReportAllocs: the gather path rides sync.Pool-backed wire
		// buffers whose counts move with GC timing; the deterministic
		// alloc gate lives on encode/decode below.
		b.ResetTimer()
		w.Run(func(c *comm.Comm) {
			tr := zero.MustNew(c, cfg, zero.Options{Stage: zero.StageOSG, LR: 1e-3, Seed: 1})
			defer tr.Close()
			for i := 0; i < b.N; i++ {
				tr.Step(ids, targets, batch)
				snapper.Snap(i+1, tr)
			}
			snapper.Flush(c.Rank())
		})
		b.StopTimer()
		if err := snapper.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(snapper.StallNs())/float64(b.N), "stall-ns/op")
	})
	b.Run("encode-decode", func(b *testing.B) {
		snap := benchSnapshot(8, 1<<16, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blob, err := snap.Encode()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := zero.DecodeSnapshot(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServe measures the control plane against the BENCH_SERVE.json
// baseline: full submit-to-complete latency of a small job through the
// scheduler (jobs/s — world construction, one optimizer step, checkpoint
// consolidation and teardown), and the metric-ring hot path an HTTP
// follower rides (append + cursor read; allocs/op is the hard gate — the
// streaming path must not allocate per record).
func BenchmarkServe(b *testing.B) {
	b.Run("job", func(b *testing.B) {
		sched, err := serve.NewScheduler(serve.Config{MaxWorlds: 2, QueueDepth: 64})
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			sched.Drain(ctx) //nolint:errcheck // bench teardown
		}()
		cfg := engine.DefaultConfig()
		cfg.Model = model.Config{Layers: 1, Hidden: 16, Heads: 2, Vocab: 19, Seq: 8}
		cfg.Ranks = 2
		cfg.GlobalBatch, cfg.MicroBatch, cfg.GradAccumSteps = 8, 4, 2
		// No ReportAllocs here: job setup rides sync.Pool-backed wire
		// buffers whose counts move with GC timing; the deterministic
		// alloc gate lives on the metrics path below.
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(i + 1)
			j, err := sched.Submit(serve.Spec{Steps: 1, Config: cfg})
			if err != nil {
				b.Fatal(err)
			}
			for !j.State().Terminal() {
				time.Sleep(20 * time.Microsecond)
			}
			if st := j.State(); st != serve.StateSucceeded {
				b.Fatalf("job %s: state %s", j.ID(), st)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "jobs/s")
		}
	})
	b.Run("metrics", func(b *testing.B) {
		// 256 append+follow pairs per iteration keep the op long enough
		// for stable min-of-N ns while allocs/op stays an exact count.
		const pairs = 256
		ring := serve.NewRing(1024)
		rec := serve.Record{Loss: 2.5, GradNorm: 1.25, WireElems: 1 << 20, WireBytes: 4 << 20}
		var cursor int64
		step := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := 0; p < pairs; p++ {
				step++
				rec.Step = step
				ring.Append(rec)
				var ok bool
				if _, cursor, ok = ring.Next(cursor, nil); !ok {
					b.Fatal("follower lost the live ring")
				}
			}
		}
	})
}
