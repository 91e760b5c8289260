package main

import (
	"repro/internal/engine"
	"repro/internal/model"
)

// workload is one set of inputs the benchmark runs. Step counts are fixed
// per second of the run budget, at the rate the 2-vCPU reference box
// sustains, not time-boxed: every count is exact and the same seed replays
// the same steps, and on the reference box a run measures for about
// -seconds.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	// Config generates the training config from the seed; the library only
	// ever sees this config and the inputs it names.
	Config func(seed int64, corpus string) engine.Config
	// Warm is the optimizer steps run before the timed region.
	Warm int
	// StepsPerSec × -seconds is the timed optimizer steps.
	StepsPerSec float64
	// Volume is the §7 communication volume per step in units of Ψ(N−1)/N.
	Volume float64
	// Daemon, when set, runs the config as jobs through the HTTP daemon;
	// the trainer loop then only drives the traced run's direct reference.
	Daemon *daemonShape
}

type daemonShape struct {
	JobsPerSec    float64 // × -seconds is the timed jobs
	StepsPerJob   int
	SnapshotEvery int
}

var workloads = []workload{
	{
		Name: "dense-s2-fp32",
		Why:  "compute-bound stage 2: tensor and model do nearly all of the step, so a kernel speed-up shows here and a comm change must not",
		Config: func(seed int64, _ string) engine.Config {
			return engine.Config{
				Model:       model.Config{Layers: 4, Hidden: 128, Heads: 4, Vocab: 128, Seq: 32},
				Ranks:       2,
				Stage:       "2",
				Optimizer:   engine.OptimizerConfig{Type: "adam", LR: 3e-3},
				BucketElems: 4096,
				Overlap:     true,
				GlobalBatch: 8,
				MicroBatch:  8,
				Seed:        seed,
			}
		},
		Warm:        20,
		StepsPerSec: 20,
		Volume:      2,
	},
	{
		Name: "gather-s3-fp16",
		Why:  "one row per rank at stage 3 with fp16 compute on 4 ranks: ~70% of the step is gathers, reduce-scatters and stream scheduling, not matmul",
		Config: func(seed int64, _ string) engine.Config {
			return engine.Config{
				Model:       model.Config{Layers: 4, Hidden: 128, Heads: 4, Vocab: 128, Seq: 8},
				Ranks:       4,
				Stage:       "3",
				Optimizer:   engine.OptimizerConfig{Type: "adam", LR: 3e-3},
				Precision:   &engine.PrecisionConfig{FP16Compute: true},
				BucketElems: 4096,
				Overlap:     true,
				Prefetch:    true,
				GlobalBatch: 4,
				MicroBatch:  4,
				Seed:        seed,
			}
		},
		Warm:        20,
		StepsPerSec: 40,
		Volume:      3,
	},
	{
		Name: "corpus-accum4",
		Why:  "real corpus through BPE into a tiny model with 4 micro-batches per step: per-call overheads, the data pipeline and grad accumulation dominate",
		Config: func(seed int64, corpus string) engine.Config {
			return engine.Config{
				Model:          model.Config{Layers: 1, Hidden: 32, Heads: 2, Vocab: 512, Seq: 32},
				Ranks:          2,
				Stage:          "2",
				Optimizer:      engine.OptimizerConfig{Type: "adam", LR: 3e-3},
				GradClip:       1.0,
				BucketElems:    4096,
				Overlap:        true,
				GlobalBatch:    16,
				MicroBatch:     4,
				GradAccumSteps: 4,
				Seed:           seed,
				Data: &engine.DataConfig{
					Path: corpus, Tokenizer: "bpe", VocabSize: 512, SeqLen: 32, ShuffleBuffer: 8,
				},
			}
		},
		Warm:        50,
		StepsPerSec: 100,
		Volume:      5, // k reduce-scatters + one parameter all-gather
	},
	{
		Name: "serve-snap",
		Why:  "jobs through the HTTP daemon with a snapshot every 2 steps: job plane, per-step record and stop vote, and elastic state writes beside training",
		Config: func(seed int64, _ string) engine.Config {
			return engine.Config{
				Model:       model.Config{Layers: 2, Hidden: 64, Heads: 4, Vocab: 128, Seq: 32},
				Ranks:       2,
				Stage:       "2",
				Optimizer:   engine.OptimizerConfig{Type: "adam", LR: 3e-3},
				BucketElems: 4096,
				Overlap:     true,
				GlobalBatch: 8,
				MicroBatch:  8,
				Seed:        seed,
			}
		},
		Warm:        20,
		StepsPerSec: 80,
		Volume:      2,
		Daemon:      &daemonShape{JobsPerSec: 0.8, StepsPerJob: 100, SnapshotEvery: 2},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
