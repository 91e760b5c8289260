package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
)

// corpusText is the corpus-accum4 input: a copy of examples/corpus/corpus.txt
// kept beside the benchmark so an edit to the example cannot move a number.
//
//go:embed corpus.txt
var corpusText []byte

// setupRuns is how many times a run sets up; setup_s is their median. The
// daemon's set-up takes tens of milliseconds, so it can afford more of them.
const (
	setupRuns       = 3
	daemonSetupRuns = 9
)

// releaseMemory returns a finished set-up's garbage to the OS, so that
// peak_rss_mb is the footprint of one trainer or daemon and not of however
// many the collector had not yet got round to.
func releaseMemory() { debug.FreeOSMemory() }

// runOpts is one run of one workload.
type runOpts struct {
	seed      int64
	seconds   float64 // run budget; fixes the step count
	steps     int     // > 0 overrides the timed steps (and caps warm-up): the smoke test's lever
	traced    bool
	outDir    string // traces and temp dirs go here
	probeReps int    // repetitions of each probe call
}

// result is one run's outcome: the numbers, and whether they can be trusted.
type result struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds"`
	Traced      bool             `json:"traced"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	FailedShare float64          `json:"failed_share"`
	Samples     int              `json:"samples"` // step times behind step_ms_p50 and step_ms_p95
	Checks      []check          `json:"checks"`
	Metrics     map[string]value `json:"metrics"`
}

// finish folds the checks into the counts: a failed check is a failed
// operation, so the run is correct only when nothing failed.
func (r *result) finish(ms *metricSet) {
	for _, c := range r.Checks {
		if !c.OK {
			r.Failed++
		}
	}
	r.Attempted = max(r.Attempted, 1)
	r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0
	r.Metrics = ms.values()
}

// timedSteps is the optimizer steps of the timed region.
func (o runOpts) timedSteps(perSec float64) int {
	if o.steps > 0 {
		return o.steps
	}
	return max(int(math.Round(perSec*o.seconds)), 3)
}

// daemonPlan is the daemon's timed jobs, as a share of the run budget, and
// the steps of each.
func (o runOpts) daemonPlan(w workload, share float64) (shape daemonShape, jobs int) {
	shape = *w.Daemon
	if o.steps > 0 {
		shape.StepsPerJob = o.steps
		return shape, 2
	}
	return shape, max(int(math.Round(shape.JobsPerSec*o.seconds*share)), 2)
}

func (o runOpts) warmSteps(w workload) int {
	if o.steps > 0 {
		return min(w.Warm, o.steps)
	}
	return w.Warm
}

// runWorkload runs one workload once, untraced for the end-to-end metrics or
// traced for the per-layer ones. Everything it writes goes under a temp dir
// in opts.outDir that is removed on return, except the trace file.
func runWorkload(w workload, opts runOpts) (result, error) {
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(opts.outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	corpus, err := writeCorpus(tmp)
	if err != nil {
		return result{}, err
	}
	cfgJSON, err := json.Marshal(w.Config(opts.seed, corpus))
	if err != nil {
		return result{}, err
	}
	res := result{Workload: w.Name, Seed: opts.seed, Seconds: opts.seconds, Traced: opts.traced}
	switch {
	case !opts.traced && w.Daemon == nil:
		err = trainerEndToEnd(&res, w, opts, cfgJSON)
	case !opts.traced:
		err = daemonEndToEnd(&res, w, opts, cfgJSON, tmp)
	default:
		err = traced(&res, w, opts, cfgJSON, tmp)
	}
	return res, err
}

// trainerEndToEnd sets up setupRuns times, then times one closed loop of
// optimizer steps.
func trainerEndToEnd(res *result, w workload, opts runOpts, cfgJSON []byte) error {
	job := trainJob{cfgJSON: cfgJSON, warm: opts.warmSteps(w)}
	var setups []float64
	for i := 0; i < setupRuns-1; i++ {
		tr, err := train(job)
		if err != nil {
			return err
		}
		setups = append(setups, tr.setupSec)
		releaseMemory()
	}
	steps := opts.timedSteps(w.StepsPerSec)
	job.blocks = []blockPlan{{steps: steps}}
	tr, err := train(job)
	if err != nil {
		return err
	}
	setups = append(setups, tr.setupSec)
	b := tr.blocks[0]

	ms := newMetricSet(endToEnd)
	ms.set("tokens_per_s", float64(steps*tokensPerStep(tr.cfg))/b.wallSec)
	ms.set("step_ms_p50", 1e3*median(b.stepSec))
	ms.set("step_ms_p95", 1e3*quantile(b.stepSec, 0.95))
	ms.set("setup_s", median(setups))
	ms.set("wire_bytes_per_rank_step", float64(b.wire.BytesSent)/float64(steps))
	ms.set("peak_rss_mb", peakRSSMB())

	var failedSteps int
	res.Checks, failedSteps = trainChecks(tr)
	res.Attempted, res.Failed, res.Samples = tr.steps, failedSteps, len(b.stepSec)
	res.finish(ms)
	return nil
}

// daemonEndToEnd sets the daemon up setupRuns times, then drives a fresh one
// with one warm-up job and the timed jobs.
func daemonEndToEnd(res *result, w workload, opts runOpts, cfgJSON []byte, tmp string) error {
	shape, jobs := opts.daemonPlan(w, 1)
	setupSpec, err := jobSpec(cfgJSON, 2, shape.SnapshotEvery)
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < daemonSetupRuns; i++ {
		s, err := daemonSetup(filepath.Join(tmp, fmt.Sprintf("setup-%d", i)), setupSpec)
		if err != nil {
			return err
		}
		setups = append(setups, s)
		releaseMemory()
	}

	run, err := driveDaemon(w, opts, shape, tmp, []jobBlock{{jobs: jobs}})
	if err != nil {
		return err
	}
	b := run.blocks[0]
	ms := newMetricSet(endToEnd)
	ms.set("tokens_per_s", float64(jobs*shape.StepsPerJob*tokensPerStep(run.cfg))/b.wallSec)
	ms.set("step_ms_p50", 1e3*median(b.gapSec))
	ms.set("step_ms_p95", 1e3*quantile(b.gapSec, 0.95))
	ms.set("setup_s", median(setups))
	ms.set("wire_bytes_per_rank_step", median(b.wirePerStep))
	ms.set("peak_rss_mb", peakRSSMB())

	res.Checks = run.checks
	res.Attempted = run.requests + run.jobs + run.jobs*shape.StepsPerJob
	res.Failed = run.failedRequests + run.failedJobs + run.missingRecords
	res.Samples = len(b.gapSec)
	res.finish(ms)
	return nil
}

// jobBlock is a run of consecutive daemon jobs, traced or not.
type jobBlock struct {
	traced bool
	jobs   int
}

type jobBlockResult struct {
	wallSec     float64 // first submit → last job terminal
	gapSec      []float64
	wirePerStep []float64 // per job: last record's cumulative wire bytes ÷ steps
	results     []jobResult
}

type daemonRun struct {
	cfg            engine.Config
	blocks         []jobBlockResult
	rec            *recorder
	checks         []check
	requests       int
	failedRequests int
	jobs           int
	failedJobs     int
	missingRecords int // steps that produced no record
}

// driveDaemon starts one daemon, runs a short warm-up job, then the blocks.
// Job j is seeded seed+j, so no two jobs train the same model.
func driveDaemon(w workload, opts runOpts, shape daemonShape, tmp string, blocks []jobBlock) (daemonRun, error) {
	var run daemonRun
	d, err := startDaemon(filepath.Join(tmp, "snapshots"))
	if err != nil {
		return run, err
	}
	defer d.stop() //nolint:errcheck // the success path checks stop below; closing twice is harmless

	if run.cfg, err = w.Config(opts.seed, "").Normalized(); err != nil {
		return run, err
	}
	psi := len(model.New(run.cfg.Model, opts.seed).Params)
	job := 0
	next := func(steps int) (jobResult, error) {
		cfgJSON, err := json.Marshal(w.Config(opts.seed+int64(job), ""))
		if err != nil {
			return jobResult{}, err
		}
		job++
		spec, err := jobSpec(cfgJSON, steps, shape.SnapshotEvery)
		if err != nil {
			return jobResult{}, err
		}
		return d.runJob(spec, job), nil
	}

	warm := min(shape.StepsPerJob, 20)
	jr, err := next(warm)
	if err != nil {
		return run, err
	}
	if why := jr.failure(warm, psi); why != "" {
		return run, fmt.Errorf("warm-up job: %s", why)
	}
	d.requests, d.failed = 0, 0

	total := 0
	for _, b := range blocks {
		total += b.jobs
	}
	run.rec = newRecorder(clientRank, total*8)
	var failures []string
	for _, b := range blocks {
		d.rec = nil
		if b.traced {
			d.rec = run.rec
		}
		var br jobBlockResult
		var first, last time.Time
		for i := 0; i < b.jobs; i++ {
			jr, err := next(shape.StepsPerJob)
			if err != nil {
				return run, err
			}
			if i == 0 {
				first = jr.submitted
			}
			last = jr.terminal
			run.jobs++
			run.missingRecords += max(shape.StepsPerJob-len(jr.records), 0)
			if why := jr.failure(shape.StepsPerJob, psi); why != "" {
				run.failedJobs++
				failures = append(failures, fmt.Sprintf("job %d: %s", job, why))
				continue
			}
			br.gapSec = append(br.gapSec, jr.gapSec...)
			wire := jr.records[len(jr.records)-1].WireBytes
			br.wirePerStep = append(br.wirePerStep, float64(wire)/float64(shape.StepsPerJob))
			br.results = append(br.results, jr)
		}
		br.wallSec = last.Sub(first).Seconds()
		run.blocks = append(run.blocks, br)
	}
	run.requests, run.failedRequests = d.requests, d.failed
	run.checks = []check{
		{"every HTTP request returned 2xx", d.failed == 0, fmt.Sprintf("%d of %d failed", d.failed, d.requests)},
		{"every job succeeded with one record per step and a checkpoint of at least 4Ψ bytes",
			run.failedJobs == 0, strings.Join(failures, "; ")},
	}
	if run.failedJobs == run.jobs {
		return run, fmt.Errorf("no job succeeded: %s", strings.Join(failures, "; "))
	}
	return run, d.stop()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb) //nolint:errcheck // a parse failure leaves 0
			return kb / 1024
		}
	}
	return 0
}
