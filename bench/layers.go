package main

import (
	"fmt"
	"math"
	"path/filepath"
)

// tracePairs is how many untraced/traced block pairs the traced run
// alternates, so slow drift of the machine lands on both sides alike.
const tracePairs = 5

// traced is the per-layer run. The workload's config is trained directly
// for a third of the timed steps untraced and a third with a span around
// every call into a layer, in alternating blocks of one process so the two
// can be compared; then each layer's probe runs alone. A daemon workload is
// also driven through HTTP the same way, with spans around every request.
func traced(res *result, w workload, opts runOpts, cfgJSON []byte, tmp string) error {
	pairs, chunk := tracePairs, opts.timedSteps(w.StepsPerSec)/3/tracePairs
	if opts.steps > 0 || chunk == 0 {
		pairs, chunk = 1, opts.timedSteps(w.StepsPerSec)
	}
	job := trainJob{cfgJSON: cfgJSON, warm: opts.warmSteps(w)}
	for i := 0; i < pairs; i++ {
		job.blocks = append(job.blocks, blockPlan{steps: chunk}, blockPlan{traced: true, steps: chunk})
	}
	if w.Daemon != nil {
		job.snapEvery = w.Daemon.SnapshotEvery
		job.snapDir = filepath.Join(tmp, "direct")
	}
	tr, err := train(job)
	if err != nil {
		return err
	}
	var failedSteps int
	res.Checks, failedSteps = trainChecks(tr)
	res.Attempted, res.Failed = tr.steps, failedSteps

	ms := newMetricSet(perLayer)
	recs := tr.recs
	if err := trainerLayers(ms, res, w, opts, tr); err != nil {
		return err
	}
	if w.Daemon != nil {
		run, err := daemonLayers(ms, w, opts, tmp, tr)
		if err != nil {
			return err
		}
		recs = append(recs, run.rec)
		res.Checks = append(res.Checks, run.checks...)
		res.Attempted += run.requests + run.jobs
		res.Failed += run.failedRequests + run.failedJobs
	}
	spans, err := writeTrace(filepath.Join(opts.outDir, w.Name+".trace.json"), recs)
	if err != nil {
		return err
	}
	ms.set("bench.spans", float64(spans))
	res.finish(ms)
	return nil
}

// trainerLayers fills every metric that comes from the direct training run
// and the probes: all layers but serve.
func trainerLayers(ms *metricSet, res *result, w workload, opts runOpts, tr trainResult) error {
	cfg := tr.cfg
	n, k, psi := cfg.Ranks, cfg.GradAccumSteps, tr.numParams
	plain, spanned := mergeBlocks(tr.blocks, false), mergeBlocks(tr.blocks, true)
	steps := float64(len(plain.stepSec))
	stepSec := median(plain.stepSec)
	rec := tr.recs[0]

	// engine: the three calls of the step lifecycle, summed per step so
	// they add up to the step under gradient accumulation.
	phases := []string{spanForward, spanBackward, spanUpdate}
	var spread float64
	for _, name := range phases {
		lo, hi, mean := math.Inf(1), math.Inf(-1), 0.0
		for _, r := range tr.recs {
			p50 := median(r.sumByParent(spanStep, name))
			lo, hi, mean = min(lo, p50), max(hi, p50), mean+p50/float64(n)
		}
		spread = max(spread, (hi-lo)/mean)
	}
	ms.set("engine.forward_ms_p50", 1e3*median(rec.sumByParent(spanStep, spanForward)))
	ms.set("engine.backward_ms_p50", 1e3*median(rec.sumByParent(spanStep, spanBackward)))
	ms.set("engine.update_ms_p50", 1e3*median(rec.sumByParent(spanStep, spanUpdate)))
	ms.set("engine.loop_self_us_p50", 1e6*median(rec.selfTimes(spanStep)))
	ms.set("engine.rank_spread_pct", 100*spread)
	ms.set("engine.micro_per_step", float64(k))
	ms.set("engine.allocs_per_step", float64(plain.mallocs)/steps)
	ms.set("engine.loss_final", tr.lastLoss)

	// data: the batcher's calls as the step sees them, and the loader alone.
	batch := rec.durations(spanBatch)
	ms.set("data.next_batch_us_p50", 1e6*median(batch))
	ms.set("data.share_pct", 100*sum(batch)/sum(rec.durations(spanStep)))
	ms.set("data.open_s", tr.openSec)
	ms.set("data.epochs", float64(tr.epochs))
	tokPerSec, err := probeData(cfg)
	if err != nil {
		return err
	}
	ms.set("data.probe_tokens_per_s", tokPerSec)

	// comm: rank 0's counters over the untraced blocks. Rank 0 roots the
	// snapshot gather, so its counters hold training traffic only; what a
	// sending rank puts on the checkpoint stream is counted over the whole
	// job, because the gathers run behind the steps.
	perStream := func(name string) float64 {
		return float64(plain.wire.PerStream[name]) / steps
	}
	shard := float64(psi) * float64(n-1) / float64(n) // what one rank sends per full collective
	volume := float64(plain.wire.ElemsSent-plain.wire.PerStream["checkpoint"]) / steps / shard
	ms.set("comm.messages_per_rank_step", float64(plain.wire.Messages)/steps)
	ms.set("comm.grad_elems_per_step", perStream("grad"))
	ms.set("comm.prefetch_elems_per_step", perStream("prefetch"))
	ms.set("comm.priority_elems_per_step", perStream("priority"))
	ms.set("comm.checkpoint_elems_per_step", float64(tr.snapshotElems)/float64(tr.steps))
	ms.set("comm.default_elems_per_step", perStream("default"))
	ms.set("comm.volume_over_psi", volume)
	res.Checks = append(res.Checks, check{
		fmt.Sprintf("communication volume is %gΨ(N-1)/N per step", w.Volume),
		math.Abs(volume-w.Volume) <= 1e-3, fmt.Sprintf("measured %.6f", volume),
	})

	stage3 := cfg.Stage == "3"
	gathers, votes := 1, 0
	if stage3 {
		gathers = 2
	}
	if cfg.GradClip > 0 || (cfg.Precision != nil && cfg.Precision.FP16Compute) {
		votes = 1
	}
	cp := probeComm(n, psi, k, gathers, votes, opts.probeReps)
	ms.set("comm.probe_reduce_scatter_mbps", 4*shard/cp.reduceScatterSec/1e6)
	ms.set("comm.probe_all_gather_mbps", 4*shard/cp.allGatherSec/1e6)
	ms.set("comm.probe_all_reduce_1_us", 1e6*cp.allReduce1Sec)
	ms.set("comm.probe_serial_ms", 1e3*cp.serialSec)
	ms.set("comm.serial_share_pct", 100*cp.serialSec/stepSec)

	// tensor: the dense kernels at the FC1 shape of one rank's micro-batch.
	seq := tokensPerStep(cfg) / cfg.GlobalBatch
	rows := cfg.MicroBatch / n
	tp := probeTensor(rows*seq, cfg.Model.Hidden, 4*cfg.Model.Hidden, opts.probeReps)
	ms.set("tensor.matmul_gflops", tp.matmul)
	ms.set("tensor.matmul_bt_gflops", tp.matmulBT)
	ms.set("tensor.matmul_at_add_gflops", tp.matmulATAdd)

	// model: the comm-free replica, and what the step achieves against it.
	refSec := probeModel(cfg, opts.probeReps)
	flops := float64(k) * modelFlops(cfg.Model, rows, seq)
	ms.set("model.ref_fwdbwd_ms_p50", 1e3*refSec)
	ms.set("model.flops_per_rank_step", flops)
	ms.set("model.gflops_per_rank", flops/stepSec/1e9)
	ms.set("model.compute_share_pct", 100*float64(k)*refSec/stepSec)

	optSec, err := probeOptimizer(cfg, psi, opts.probeReps)
	if err != nil {
		return err
	}
	ms.set("optimizer.step_us_p50", 1e6*optSec)
	ms.set("optimizer.melems_per_s", float64(psi/n)/optSec/1e6)

	// zero: what is left of the step once the comm-free compute and the
	// optimizer are taken out is what partitioning exposes.
	exposed := stepSec - (float64(k)*refSec + optSec)
	ms.set("zero.exposed_ms_p50", 1e3*exposed)
	ms.set("zero.exposed_share_pct", 100*exposed/stepSec)
	ms.set("zero.model_state_bytes_per_rank", float64(tr.modelStateB))
	ms.set("zero.compute_residency_bytes_per_rank", float64(tr.residencyB))
	ms.set("zero.grad_accum_elems", float64(tr.gradAccumElems))
	ms.set("zero.overflow_steps", float64(tr.overflowSteps))
	ms.set("zero.loss_scale_final", tr.lossScale)

	// elastic: the snapshot hook on rank 0, where a snapshotter is hung.
	if tr.snapshots > 0 {
		ticks := rec.durations(spanTick)
		ms.set("elastic.tick_us_p50", 1e6*median(ticks))
		ms.set("elastic.tick_us_p95", 1e6*quantile(ticks, 0.95))
		ms.set("elastic.stall_ns_per_snapshot", float64(tr.stallNs)/float64(tr.snapshots))
		ms.set("elastic.snapshots", float64(tr.snapshots))
		ms.set("elastic.file_bytes", float64(tr.fileBytes))
	}

	ms.set("bench.trace_overhead_pct", 100*(median(spanned.stepSec)/stepSec-1))
	return nil
}

// daemonLayers drives the daemon for a third of the timed jobs untraced and
// a third traced, and fills the serve layer from the client's spans.
func daemonLayers(ms *metricSet, w workload, opts runOpts, tmp string, direct trainResult) (daemonRun, error) {
	shape, jobs := opts.daemonPlan(w, 1.0/3)
	run, err := driveDaemon(w, opts, shape, tmp, []jobBlock{{jobs: jobs}, {traced: true, jobs: jobs}})
	if err != nil {
		return run, err
	}
	var submit, first, whole, teardown, fetch, polls, allocs, ckpt []float64
	for _, b := range run.blocks {
		for _, jr := range b.results {
			submit = append(submit, jr.submitSec)
			first = append(first, jr.firstRecord.Sub(jr.submitted).Seconds())
			whole = append(whole, jr.done.Sub(jr.submitted).Seconds())
			teardown = append(teardown, jr.terminal.Sub(jr.lastRecord).Seconds())
			fetch = append(fetch, jr.done.Sub(jr.terminal).Seconds())
			polls = append(polls, jr.pollSec...)
			ckpt = append(ckpt, float64(jr.checkpoint))
			for _, r := range jr.records {
				allocs = append(allocs, float64(r.Allocs))
			}
		}
	}
	ms.set("serve.submit_ms_p50", 1e3*median(submit))
	ms.set("serve.first_record_ms_p50", 1e3*median(first))
	ms.set("serve.job_ms_p50", 1e3*median(whole))
	ms.set("serve.teardown_ms_p50", 1e3*median(teardown))
	ms.set("serve.checkpoint_fetch_ms_p50", 1e3*median(fetch))
	ms.set("serve.checkpoint_bytes", median(ckpt))
	ms.set("serve.status_poll_us_p50", 1e6*median(polls))
	ms.set("serve.record_allocs_p50", median(allocs))
	ms.set("serve.jobs", float64(run.jobs))
	ms.set("serve.http_requests", float64(run.requests))
	ms.set("serve.http_failed", float64(run.failedRequests))

	// Overhead of the job plane: the daemon's tokens per second against the
	// same config trained directly with the same snapshot cadence.
	plain := mergeBlocks(direct.blocks, false)
	directTok := float64(len(plain.stepSec)) / plain.wallSec
	var daemonSteps, daemonWall float64
	for _, b := range run.blocks {
		daemonSteps += float64(len(b.results) * shape.StepsPerJob)
		daemonWall += b.wallSec
	}
	ms.set("serve.overhead_pct", 100*(1-daemonSteps/daemonWall/directTok))
	return run, nil
}
