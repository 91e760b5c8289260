// Package serve is the training-as-a-service control plane of the ZeRO
// reproduction: a long-running HTTP/JSON daemon that accepts engine.Config
// job submissions, runs each job in its own isolated comm.World under a
// bounded multi-job scheduler, streams live per-step metrics from a
// bounded ring buffer, and serves consolidated checkpoints — the front
// door the one-shot CLIs (zerotrain, zerobench) never were.
//
// The paper's pitch is that ZeRO "democratizes" large-model training by
// shipping as a service-grade library (§1, §9); this package is that claim
// made literal for the reproduction: many simulated worlds coexist in one
// process, each job's rank goroutines, wire channels and traffic counters
// fully contained in its private comm.World.
//
// # Job lifecycle
//
//	queued ──▶ running ──▶ succeeded
//	   │          ├──────▶ failed
//	   └──────────┴──────▶ cancelled
//
// Submission validates the engine.Config strictly (the engine's Err*
// sentinels map to HTTP 400) before the job is admitted to a FIFO queue;
// at most MaxWorlds jobs train concurrently. DELETE cancels: queued jobs
// die immediately, running jobs stop collectively at the next accumulation
// boundary and checkpoint what they have. Graceful drain (SIGTERM) is the
// same mechanism applied to every job at once.
//
// Surface: New builds a Server from a Config (ParseConfig, DefaultConfig,
// Normalized) and exposes Handler, Config and Drain; NewScheduler, Job,
// Spec, State, Status and Record are the job plane the routes speak.
// Imported by cmd/zeroserve, examples/elastic and bench.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Sentinel errors for the server's own failure classes. Handlers map each
// to one HTTP status (see statusFor); job-config failures reuse the engine
// package's sentinels.
var (
	// ErrConfig marks an invalid server configuration.
	ErrConfig = errors.New("serve: invalid server config")
	// ErrSpec marks an invalid job spec (bad steps, malformed JSON).
	ErrSpec = errors.New("serve: invalid job spec")
	// ErrUnknownJob marks a job id the scheduler has never seen.
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrQueueFull marks a submission rejected by queue backpressure.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining marks a submission rejected because the server is
	// shutting down.
	ErrDraining = errors.New("serve: server draining")
	// ErrJobTerminal marks an operation on a job that already finished.
	ErrJobTerminal = errors.New("serve: job already terminal")
	// ErrNoCheckpoint marks a checkpoint request the job cannot satisfy
	// (still running, or it failed before consolidating state).
	ErrNoCheckpoint = errors.New("serve: checkpoint not available")
)

// Defaults for the zero-valued Config fields.
const (
	// DefaultAddr is the listen address when none is configured.
	DefaultAddr = ":8400"
	// DefaultMaxWorlds bounds concurrently training jobs (each is a full
	// comm.World of rank goroutines).
	DefaultMaxWorlds = 2
	// DefaultQueueDepth bounds jobs waiting behind the running ones.
	DefaultQueueDepth = 16
	// DefaultMetricRing is the per-job retained step-record count.
	DefaultMetricRing = 1024
	// DefaultMaxSteps caps a single job's optimizer steps.
	DefaultMaxSteps = 100000
	// DefaultJobSteps is the step count of a spec that omits it.
	DefaultJobSteps = 10
	// DefaultSnapshotKeep is the per-job checkpoint-file retention bound.
	DefaultSnapshotKeep = 2
)

// Config is the declarative server configuration, with the same
// strict-JSON treatment as engine.Config: zero values mean "use the
// documented default", ParseConfig rejects unknown fields, and Normalized
// validates everything with wrapped ErrConfig errors.
type Config struct {
	// Addr is the HTTP listen address (default ":8400").
	Addr string `json:"addr,omitempty"`
	// Token, when set, requires `Authorization: Bearer <token>` on every
	// endpoint except /healthz.
	Token string `json:"token,omitempty"`
	// MaxWorlds is the number of jobs training concurrently, each in its
	// own comm.World (default 2).
	MaxWorlds int `json:"max_worlds,omitempty"`
	// QueueDepth is how many admitted jobs may wait behind the running
	// ones before submissions bounce with 429 (default 16).
	QueueDepth int `json:"queue_depth,omitempty"`
	// MetricRing is the per-job metric ring capacity in step records;
	// slow metric readers skip over evicted records (default 1024).
	MetricRing int `json:"metric_ring,omitempty"`
	// MaxSteps caps the optimizer steps a single job may request
	// (default 100000).
	MaxSteps int `json:"max_steps,omitempty"`
	// SnapshotDir is where every job's final checkpoint is written
	// (<dir>/<job-id>/final.zelc) and where jobs that take elastic
	// snapshots persist them beside it (ckpt-<step>.zelc, atomic
	// rename-into-place, pruned to SnapshotKeep files); a restart reads the
	// newest of those files. Empty puts both in a private temp directory
	// that Drain removes, so nothing survives the process.
	SnapshotDir string `json:"snapshot_dir,omitempty"`
	// SnapshotKeep bounds the elastic snapshot files retained per job
	// (default 2).
	SnapshotKeep int `json:"snapshot_keep,omitempty"`
}

// DefaultConfig returns the server configuration every entry point starts
// from: all documented defaults, no auth token.
func DefaultConfig() Config {
	return Config{
		Addr:       DefaultAddr,
		MaxWorlds:  DefaultMaxWorlds,
		QueueDepth: DefaultQueueDepth,
		MetricRing: DefaultMetricRing,
		MaxSteps:   DefaultMaxSteps,
	}
}

// ParseConfig decodes a JSON server config strictly: unknown fields,
// trailing data and type mismatches are ErrConfig.
func ParseConfig(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if dec.More() {
		return Config{}, fmt.Errorf("%w: trailing data after the config object", ErrConfig)
	}
	return c, nil
}

// Normalized returns the config with defaults filled in, validating every
// field. Negative sizing knobs are ErrConfig.
func (c Config) Normalized() (Config, error) {
	if c.MaxWorlds < 0 || c.QueueDepth < 0 || c.MetricRing < 0 || c.MaxSteps < 0 || c.SnapshotKeep < 0 {
		return c, fmt.Errorf("%w: max_worlds %d, queue_depth %d, metric_ring %d, max_steps %d, snapshot_keep %d (want ≥ 0)",
			ErrConfig, c.MaxWorlds, c.QueueDepth, c.MetricRing, c.MaxSteps, c.SnapshotKeep)
	}
	if c.Addr == "" {
		c.Addr = DefaultAddr
	}
	if c.MaxWorlds == 0 {
		c.MaxWorlds = DefaultMaxWorlds
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MetricRing == 0 {
		c.MetricRing = DefaultMetricRing
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = DefaultMaxSteps
	}
	if c.SnapshotKeep == 0 {
		c.SnapshotKeep = DefaultSnapshotKeep
	}
	return c, nil
}
