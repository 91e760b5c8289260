// Package engine is the user-facing entry point of the ZeRO reproduction:
// a declarative, JSON-loadable configuration (the shape of DeepSpeed's
// ds_config.json) compiled down to the internal zero.Options layer, and a
// training Engine whose lifecycle is the paper's three-call loop —
// Forward, Backward, Step — with gradient accumulation across micro-batches
// (§5.2): Backward reduce-scatters each micro-batch's gradient buckets into
// the rank's owned partition, and the optimizer fires only on the
// accumulation boundary.
//
// Every command, example and experiment constructs its training run through
// this one package, so a new knob lands in the config struct once instead
// of being duplicated as ad-hoc flags and hand-built option structs.
//
// Surface: Config with ParseConfig, LoadConfig, DefaultConfig and
// Normalized; Run starts one Engine per rank (Forward, Backward, Step,
// TrainStream, TrainLoop, Save, Load, Resume, Observe, OnBoundary and the
// accounting readers) and contains rank death; OpenData compiles the data
// section into a data.Loader; the Err* sentinels classify config errors
// (each wraps ErrConfig) and ErrRankFailed a job in which a rank died. Imported by
// internal/serve, internal/experiments, cmd/zerotrain, the examples and
// bench.
package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/zero"
)

// Sentinel errors for the distinct ways a config can be invalid, and for a
// job in which a rank died. Normalized (and everything built on it) wraps
// one of the config sentinels and Run wraps ErrRankFailed, so callers
// distinguish failure classes with errors.Is instead of string matching.
// Every config sentinel wraps ErrConfig, so "the config is invalid" is one
// errors.Is check.
var (
	// ErrConfig is the parent of every config sentinel below.
	ErrConfig = errors.New("engine: invalid config")
	// ErrJSON marks malformed or unknown-field config JSON.
	ErrJSON error = configError("engine: malformed config JSON")
	// ErrModel marks an invalid model shape.
	ErrModel error = configError("engine: invalid model")
	// ErrWorld marks an invalid rank count, or a world whose size does not
	// match the config at start-up.
	ErrWorld error = configError("engine: invalid world")
	// ErrStage marks an unknown ZeRO stage spelling.
	ErrStage error = configError("engine: invalid stage")
	// ErrOptimizer marks an unknown optimizer name or bad hyperparameters.
	ErrOptimizer error = configError("engine: invalid optimizer")
	// ErrBatch marks inconsistent batch geometry: global_batch must equal
	// grad_accum_steps × micro_batch, and micro_batch must divide by ranks.
	ErrBatch error = configError("engine: invalid batch geometry")
	// ErrTopology marks a node layout the world does not tile into.
	ErrTopology error = configError("engine: invalid topology")
	// ErrSchedule marks a bad communication-schedule knob (a negative
	// bucket size).
	ErrSchedule error = configError("engine: invalid schedule")
	// ErrData marks an invalid data section (missing corpus path, unknown
	// tokenizer, sequence length beyond the model, vocabulary mismatch).
	ErrData error = configError("engine: invalid data section")
	// ErrPrecision marks an invalid precision section (bad loss-scale
	// knobs).
	ErrPrecision error = configError("engine: invalid precision section")
	// ErrRankFailed marks a job in which a rank died mid-run; the wrapped
	// error joins every rank's comm.Killed or comm.RankFailure.
	ErrRankFailed = errors.New("engine: rank failed")
)

// configError is a config sentinel: its own message, wrapping ErrConfig.
type configError string

func (e configError) Error() string { return string(e) }
func (e configError) Unwrap() error { return ErrConfig }

// StageSpec is a ZeRO stage in config form: a JSON number 0-3 or a paper
// name ("ddp", "os", "os+g", "full", "pos+g+p", ...). The empty value means
// stage 0 (plain data parallelism), mirroring DeepSpeed's default.
type StageSpec string

// UnmarshalJSON accepts both `"stage": 2` and `"stage": "os+g"`.
func (s *StageSpec) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err == nil {
		*s = StageSpec(str)
		return nil
	}
	var num json.Number
	if err := json.Unmarshal(b, &num); err == nil {
		*s = StageSpec(num.String())
		return nil
	}
	return fmt.Errorf("stage must be a number or a string, got %s", b)
}

// Parse resolves the spec to a zero.Stage.
func (s StageSpec) Parse() (zero.Stage, error) {
	if s == "" {
		return zero.StageDDP, nil
	}
	return zero.ParseStage(string(s))
}

// OptimizerConfig is the "optimizer" block: which update rule drives the
// owned partition, and its hyperparameters.
type OptimizerConfig struct {
	Type        string  `json:"type"` // adam (default) | sgd | lamb
	LR          float64 `json:"lr"`
	Momentum    float64 `json:"momentum,omitempty"`     // sgd (0 → 0.9)
	WeightDecay float64 `json:"weight_decay,omitempty"` // adam / lamb
}

// DataConfig is the "data" block: a real text corpus streamed through the
// internal/data pipeline (tokenize → shard → shuffle → pack) instead of
// the synthetic batch generator. Omitting the block keeps the synthetic
// path; see OpenData for how a present block becomes a data.Loader.
type DataConfig struct {
	// Path is the corpus text file (blank-line-separated documents).
	// Relative paths in a loaded config file resolve against the config
	// file's directory, so a corpus can sit next to its config.
	Path string `json:"path"`
	// Tokenizer is "byte" (default), "bpe" (train byte-level BPE on the
	// corpus head at Open), or a ".json" vocab file path.
	Tokenizer string `json:"tokenizer,omitempty"`
	// VocabSize is the BPE vocabulary budget, ids including the 257
	// byte+EOT floor (0 = 512; "byte" ignores it).
	VocabSize int `json:"vocab_size,omitempty"`
	// SeqLen is the packed sequence length per row (0 = model seq; must
	// not exceed it).
	SeqLen int `json:"seq_len,omitempty"`
	// ShuffleBuffer is the per-shard shuffle-buffer size in documents
	// (0 = the data package default).
	ShuffleBuffer int `json:"shuffle_buffer,omitempty"`
	// Seed drives the shuffle order (0 = the top-level config seed, so
	// one field reproduces the whole run).
	Seed int64 `json:"seed,omitempty"`
}

// PrecisionConfig is the "precision" block: mixed-precision training
// (§3.1, taken all the way into the kernels) and its dynamic loss-scaling
// knobs. fp16_compute stores activations, the kernel-side weight copy and
// the wire in 2-byte form beside an fp32 master, with f32 accumulation
// inside the kernels; it is the one way to spell fp16.
type PrecisionConfig struct {
	// FP16Compute enables half-precision activation/weight storage,
	// gradients and wire. Composes with activation_checkpoint.
	FP16Compute bool `json:"fp16_compute,omitempty"`
	// InitialLossScale seeds the dynamic loss scaler (0 = 65536).
	InitialLossScale float64 `json:"initial_loss_scale,omitempty"`
	// LossScaleWindow is the overflow-free step count after which the
	// scale doubles (0 = 1000).
	LossScaleWindow int `json:"loss_scale_window,omitempty"`
}

// Config is the declarative training configuration. Zero values mean "use
// the documented default"; Normalized reports structured errors for every
// inconsistent combination. The batch geometry follows DeepSpeed's
// contract: global_batch = grad_accum_steps × micro_batch, with any one of
// the three derivable from the other two.
type Config struct {
	// Model is the transformer shape to train.
	Model model.Config `json:"model"`
	// Ranks is the simulated GPU count (the data-parallel degree).
	Ranks int `json:"ranks"`
	// Stage selects the ZeRO-DP stage (0-3 or a paper name; default 0).
	Stage StageSpec `json:"stage,omitempty"`
	// Optimizer selects adam|sgd|lamb plus hyperparameters.
	Optimizer OptimizerConfig `json:"optimizer"`
	// GradClip caps the global gradient L2 norm at the accumulation
	// boundary (0 disables).
	GradClip float64 `json:"grad_clip,omitempty"`
	// Precision opts into fp16 compute with dynamic loss scaling when set
	// (see PrecisionConfig).
	Precision *PrecisionConfig `json:"precision,omitempty"`
	// Checkpoint enables activation checkpointing.
	Checkpoint bool `json:"activation_checkpoint,omitempty"`
	// BucketElems is the gradient bucket size in elements (0 = one bucket
	// per gradient unit, a third of a block).
	BucketElems int `json:"bucket_elems,omitempty"`
	// Overlap rides gradient buckets on the grad stream under backward.
	Overlap bool `json:"overlap,omitempty"`
	// Prefetch pipelines the parameter all-gathers of stages 1-3 one layer
	// group ahead on the prefetch stream (§7.2.2).
	Prefetch bool `json:"prefetch,omitempty"`
	// NodeSize routes collectives hierarchically for worlds laid out as
	// nodes of NodeSize ranks (0 = flat).
	NodeSize int `json:"node_size,omitempty"`
	// GlobalBatch is the rows per optimizer step across all ranks.
	GlobalBatch int `json:"global_batch"`
	// MicroBatch is the rows per Forward/Backward across all ranks; the
	// engine accumulates GradAccumSteps of them per optimizer step.
	MicroBatch int `json:"micro_batch,omitempty"`
	// GradAccumSteps is the number of micro-batches folded into the
	// partitioned gradient accumulator per optimizer step (default 1).
	GradAccumSteps int `json:"grad_accum_steps,omitempty"`
	// Seed is the single top-level reproducibility knob: it drives
	// parameter init, synthetic data, and (unless data.seed overrides)
	// the corpus shuffle order.
	Seed int64 `json:"seed,omitempty"`
	// Data streams a real corpus instead of synthetic batches when set.
	Data *DataConfig `json:"data,omitempty"`
	// BaseDir anchors relative data paths (corpus and .json vocab). It is
	// not a JSON field: LoadConfig sets it to the config file's directory,
	// and CLIs set it to the working directory for flag-provided paths. A
	// config that arrives without a load site — an HTTP-submitted job has
	// no config directory — must use absolute paths; Normalized rejects a
	// relative path with no base as ErrData instead of silently resolving
	// against whatever the process's working directory happens to be.
	BaseDir string `json:"-"`
}

// DefaultConfig is the one constructor every entry point starts from: the
// stage-2 streamed schedule (overlap + prefetch, fp32 numerics — set
// Precision for fp16) on a small 4-rank world. cmd/zerotrain's
// flag defaults, cmd/zerobench's sweep base and the examples all derive
// from it, so a new knob defaults consistently everywhere.
func DefaultConfig() Config {
	return Config{
		Model:          model.Config{Layers: 4, Hidden: 64, Heads: 4, Vocab: 101, Seq: 32},
		Ranks:          4,
		Stage:          "2",
		Optimizer:      OptimizerConfig{Type: "adam", LR: 3e-3},
		BucketElems:    4096,
		Overlap:        true,
		Prefetch:       true,
		GlobalBatch:    8,
		MicroBatch:     8,
		GradAccumSteps: 1,
		Seed:           7,
	}
}

// ParseConfig decodes a JSON config strictly: unknown fields, trailing
// data and type mismatches are ErrJSON (catching ds_config-style typos at
// load time instead of silently training with defaults).
func ParseConfig(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("%w: %v", ErrJSON, err)
	}
	if dec.More() {
		return Config{}, fmt.Errorf("%w: trailing data after the config object", ErrJSON)
	}
	return c, nil
}

// LoadConfig reads and strictly parses a JSON config file, setting BaseDir
// to the file's directory so relative data paths (corpus and .json vocab)
// resolve against it at Normalized — `examples/corpus/config.json` can name
// the corpus sitting next to it and still load from any working directory.
func LoadConfig(path string) (Config, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("engine: reading config: %w", err)
	}
	c, err := ParseConfig(blob)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	c.BaseDir = filepath.Dir(path)
	return c, nil
}

// Normalized returns the config with derivable batch-geometry fields
// filled in (the config each rank actually runs), validating everything
// and wrapping one sentinel error per failure class.
func (c Config) Normalized() (Config, error) {
	if c.Ranks < 1 {
		return c, fmt.Errorf("%w: ranks %d (want ≥ 1)", ErrWorld, c.Ranks)
	}
	if err := c.Model.Validate(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrModel, err)
	}
	if _, err := c.Stage.Parse(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrStage, err)
	}
	if _, err := optimizer.ParseKind(c.Optimizer.Type); err != nil {
		return c, fmt.Errorf("%w: %v", ErrOptimizer, err)
	}
	if c.Optimizer.LR <= 0 {
		return c, fmt.Errorf("%w: lr %g (want > 0)", ErrOptimizer, c.Optimizer.LR)
	}
	if c.Optimizer.Momentum < 0 || c.Optimizer.Momentum >= 1 {
		return c, fmt.Errorf("%w: momentum %g (want [0,1))", ErrOptimizer, c.Optimizer.Momentum)
	}
	if c.Optimizer.WeightDecay < 0 || c.GradClip < 0 {
		return c, fmt.Errorf("%w: weight_decay %g / grad_clip %g (want ≥ 0)",
			ErrOptimizer, c.Optimizer.WeightDecay, c.GradClip)
	}
	if c.BucketElems < 0 {
		return c, fmt.Errorf("%w: bucket_elems %d (want ≥ 0)", ErrSchedule, c.BucketElems)
	}
	if c.NodeSize < 0 {
		return c, fmt.Errorf("%w: node_size %d (want ≥ 0)", ErrTopology, c.NodeSize)
	}
	if c.NodeSize != 0 {
		if err := comm.CheckNodeSize(c.Ranks, c.NodeSize); err != nil {
			return c, fmt.Errorf("%w: %v", ErrTopology, err)
		}
	}
	if p := c.Precision; p != nil {
		if p.InitialLossScale < 0 || p.LossScaleWindow < 0 {
			return c, fmt.Errorf("%w: initial_loss_scale %g / loss_scale_window %d (want ≥ 0)",
				ErrPrecision, p.InitialLossScale, p.LossScaleWindow)
		}
	}

	// Batch geometry: global = accum × micro, any one field derivable.
	switch {
	case c.GradAccumSteps < 0 || c.MicroBatch < 0 || c.GlobalBatch < 0:
		return c, fmt.Errorf("%w: negative batch field (global %d, micro %d, accum %d)",
			ErrBatch, c.GlobalBatch, c.MicroBatch, c.GradAccumSteps)
	case c.GradAccumSteps == 0 && c.GlobalBatch > 0 && c.MicroBatch > 0:
		if c.GlobalBatch%c.MicroBatch != 0 {
			return c, fmt.Errorf("%w: global_batch %d not a multiple of micro_batch %d",
				ErrBatch, c.GlobalBatch, c.MicroBatch)
		}
		c.GradAccumSteps = c.GlobalBatch / c.MicroBatch
	case c.GradAccumSteps == 0:
		c.GradAccumSteps = 1
	}
	if c.MicroBatch == 0 && c.GlobalBatch > 0 {
		if c.GlobalBatch%c.GradAccumSteps != 0 {
			return c, fmt.Errorf("%w: global_batch %d not a multiple of grad_accum_steps %d",
				ErrBatch, c.GlobalBatch, c.GradAccumSteps)
		}
		c.MicroBatch = c.GlobalBatch / c.GradAccumSteps
	}
	if c.GlobalBatch == 0 {
		c.GlobalBatch = c.GradAccumSteps * c.MicroBatch
	}
	if c.GlobalBatch <= 0 || c.MicroBatch <= 0 {
		return c, fmt.Errorf("%w: batch geometry unresolved (global %d, micro %d, accum %d)",
			ErrBatch, c.GlobalBatch, c.MicroBatch, c.GradAccumSteps)
	}
	if c.GradAccumSteps*c.MicroBatch != c.GlobalBatch {
		return c, fmt.Errorf("%w: grad_accum_steps %d × micro_batch %d = %d, want global_batch %d",
			ErrBatch, c.GradAccumSteps, c.MicroBatch, c.GradAccumSteps*c.MicroBatch, c.GlobalBatch)
	}
	if c.MicroBatch%c.Ranks != 0 {
		return c, fmt.Errorf("%w: micro_batch %d not divisible by ranks %d",
			ErrBatch, c.MicroBatch, c.Ranks)
	}

	// Data section: fill defaults (sequence length from the model, seed
	// from the top-level knob) and validate what is statically checkable;
	// file contents are OpenData's concern.
	if c.Data != nil {
		d := *c.Data
		if d.Path == "" {
			return c, fmt.Errorf("%w: path is required", ErrData)
		}
		p, err := c.resolve(d.Path)
		if err != nil {
			return c, err
		}
		d.Path = p
		if strings.HasSuffix(d.Tokenizer, ".json") {
			if p, err = c.resolve(d.Tokenizer); err != nil {
				return c, err
			}
			d.Tokenizer = p
		}
		switch {
		case d.Tokenizer == "" || d.Tokenizer == "byte":
			d.Tokenizer = "byte"
			if d.VocabSize != 0 {
				return c, fmt.Errorf("%w: vocab_size %d set with the byte tokenizer (fixed at 257)",
					ErrData, d.VocabSize)
			}
		case d.Tokenizer == "bpe":
			if d.VocabSize == 0 {
				d.VocabSize = 512
			}
			if d.VocabSize < 258 {
				return c, fmt.Errorf("%w: vocab_size %d (bpe wants ≥ 258: 257 byte ids plus merges)",
					ErrData, d.VocabSize)
			}
		case strings.HasSuffix(d.Tokenizer, ".json"):
			// Vocab size comes from the file; checked at OpenData.
		default:
			return c, fmt.Errorf("%w: tokenizer %q (want \"byte\", \"bpe\" or a .json vocab path)",
				ErrData, d.Tokenizer)
		}
		if d.SeqLen == 0 {
			d.SeqLen = c.Model.Seq
		}
		if d.SeqLen < 2 || d.SeqLen > c.Model.Seq {
			return c, fmt.Errorf("%w: seq_len %d (want 2 ≤ seq_len ≤ model seq %d)",
				ErrData, d.SeqLen, c.Model.Seq)
		}
		if d.ShuffleBuffer < 0 {
			return c, fmt.Errorf("%w: shuffle_buffer %d (want ≥ 0)", ErrData, d.ShuffleBuffer)
		}
		if d.Seed == 0 {
			d.Seed = c.Seed
		}
		if need := tokenizerFloor(d); c.Model.Vocab < need {
			return c, fmt.Errorf("%w: model vocab %d below tokenizer vocabulary %d",
				ErrData, c.Model.Vocab, need)
		}
		c.Data = &d
	}
	return c, nil
}

// resolve anchors a data-section file path: absolute paths pass through,
// relative ones join BaseDir, and a relative path with no base is ErrData —
// a config with no load site (an HTTP-submitted job) must not silently
// resolve against the process's working directory.
func (c Config) resolve(path string) (string, error) {
	if filepath.IsAbs(path) {
		return path, nil
	}
	if c.BaseDir == "" {
		return "", fmt.Errorf("%w: relative path %q in a config with no base directory (use an absolute path, or set BaseDir at the load site)", ErrData, path)
	}
	// Absolute output keeps resolution idempotent: Normalized runs both at
	// the entry point and inside engine initialization, and the second
	// pass must not re-join BaseDir onto an already-resolved path.
	p, err := filepath.Abs(filepath.Join(c.BaseDir, path))
	if err != nil {
		return "", fmt.Errorf("%w: resolving %q against %q: %v", ErrData, path, c.BaseDir, err)
	}
	return p, nil
}

// tokenizerFloor returns the statically-known minimum model vocabulary the
// data section requires (the byte+EOT floor, or the BPE budget).
func tokenizerFloor(d DataConfig) int {
	if d.Tokenizer == "bpe" {
		return d.VocabSize
	}
	return 257
}

// OpenData compiles the config's data section into a streaming
// data.Loader producing MicroBatch-row global micro-batches (engine
// Batcher contract). Each rank opens its own Loader; determinism of the
// pipeline makes every rank's batch stream identical. The loader's actual
// vocabulary (known only after training or loading a vocab file) must fit
// the model's.
func OpenData(cfg Config) (*data.Loader, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if norm.Data == nil {
		return nil, fmt.Errorf("%w: config has no data section", ErrData)
	}
	d := norm.Data
	l, err := data.Open(data.Config{
		Path:          d.Path,
		Tokenizer:     d.Tokenizer,
		VocabSize:     d.VocabSize,
		SeqLen:        d.SeqLen,
		ShuffleBuffer: d.ShuffleBuffer,
		Seed:          d.Seed,
	}, norm.MicroBatch, norm.Ranks)
	if err != nil {
		return nil, err
	}
	if l.VocabSize() > norm.Model.Vocab {
		l.Close()
		return nil, fmt.Errorf("%w: model vocab %d below tokenizer vocabulary %d",
			ErrData, norm.Model.Vocab, l.VocabSize())
	}
	return l, nil
}

// compile lowers the validated config to the internal zero.Options layer.
func (c Config) compile() (zero.Options, error) {
	stage, err := c.Stage.Parse()
	if err != nil {
		return zero.Options{}, fmt.Errorf("%w: %v", ErrStage, err)
	}
	kind, err := optimizer.ParseKind(c.Optimizer.Type)
	if err != nil {
		return zero.Options{}, fmt.Errorf("%w: %v", ErrOptimizer, err)
	}
	opts := zero.Options{
		Stage:       stage,
		Seed:        c.Seed,
		BucketElems: c.BucketElems,
		Overlap:     c.Overlap,
		Prefetch:    c.Prefetch,
		NodeSize:    c.NodeSize,
		Checkpoint:  c.Checkpoint,
		ClipNorm:    c.GradClip,
		Optimizer: optimizer.Spec{
			Kind:        kind,
			LR:          c.Optimizer.LR,
			Momentum:    c.Optimizer.Momentum,
			WeightDecay: c.Optimizer.WeightDecay,
		},
	}
	if p := c.Precision; p != nil {
		opts.FP16Compute = p.FP16Compute
		opts.InitialLossScale = p.InitialLossScale
		opts.LossScaleWindow = p.LossScaleWindow
	}
	return opts, nil
}
