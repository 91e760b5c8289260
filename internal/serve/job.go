package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// State is a job's position in the queued→running→terminal state machine.
type State string

// The five job states. Transitions: queued→running, queued→cancelled,
// running→{succeeded,failed,cancelled}. Terminal states never change.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Spec is a job submission: how many optimizer steps to run, and the full
// training configuration. The config goes through the exact
// engine.Config.Normalized gate the CLIs use; relative data paths are
// rejected because an HTTP submission has no config directory (set
// absolute paths server-side).
type Spec struct {
	// Steps is the optimizer-step budget (0 = DefaultJobSteps).
	Steps int `json:"steps,omitempty"`
	// Config is the training job, ds_config-style.
	Config engine.Config `json:"config"`

	// SnapshotEvery takes an asynchronous elastic snapshot every so many
	// optimizer steps (0 = none, unless MaxRestarts forces a cadence of 1).
	// Snapshots ride the checkpoint stream and are what the supervisor
	// restarts from.
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// MaxRestarts is the supervisor's restart budget: how many times a job
	// whose world lost a rank is restarted from its last boundary snapshot
	// before it is declared failed (0 = a rank death fails the job).
	MaxRestarts int `json:"max_restarts,omitempty"`
	// RestartRanks, when non-zero, is the world size restarted attempts run
	// at — the elastic shrink/grow path: each rank of the new world copies
	// its own partition out of the snapshot's slabs. Must satisfy the same
	// batch-geometry divisibility as Config.Ranks.
	RestartRanks int `json:"restart_ranks,omitempty"`
	// Fault, when set, deterministically kills one rank of the FIRST
	// attempt at a given optimizer step — the built-in failure-injection
	// harness for exercising the recovery path end to end.
	Fault *FaultSpec `json:"fault,omitempty"`
}

// FaultSpec names the deterministic kill: Rank dies right after optimizer
// step Step fires (before the step's snapshot is taken, so recovery resumes
// from the previous snapshot boundary).
type FaultSpec struct {
	Rank int `json:"rank"`
	Step int `json:"step"`
}

// parseSpec decodes a job submission strictly: unknown fields anywhere in
// the document (including inside the engine config) are ErrSpec.
func parseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("%w: trailing data after the spec object", ErrSpec)
	}
	return s, nil
}

// Job is one admitted training run: the normalized spec, its isolated
// metric ring, and the mutable state the scheduler and handlers share.
type Job struct {
	id     string
	spec   Spec // config normalized at admission
	ring   *metricRing
	ctx    context.Context // cancelled by DELETE, drain, or terminal cleanup
	cancel context.CancelFunc

	mu         sync.Mutex
	state      State
	err        string
	stepsDone  int
	lastLoss   float64
	restarts   int // supervisor restarts consumed after rank deaths
	ranks      int // current world size (shrinks on elastic restart)
	submitted  time.Time
	started    time.Time
	finished   time.Time
	checkpoint string // the final snapshot's ZELC file, when consolidated
}

// newJob builds a queued job around a normalized spec.
func newJob(id string, spec Spec, ringCap int) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		id:        id,
		spec:      spec,
		ring:      newMetricRing(ringCap),
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		ranks:     spec.Config.Ranks,
		submitted: time.Now(),
	}
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Checkpoint returns the path of the final snapshot's ZELC file, or "" if
// none was consolidated (job still running, failed, or cancelled before
// starting).
func (j *Job) Checkpoint() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoint
}

// transition moves from→to atomically and reports whether it applied;
// a job in any other state is left untouched.
func (j *Job) transition(from, to State) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != from {
		return false
	}
	j.state = to
	if to == StateRunning {
		j.started = time.Now()
	}
	return true
}

// finish moves the job to a terminal state (unless it already is in one),
// records the failure cause, stamps the finish time, releases the cancel
// context and closes the metric ring so streaming readers drain and EOF.
func (j *Job) finish(state State, err error) {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.state = state
		if err != nil {
			j.err = err.Error()
		}
		j.finished = time.Now()
	}
	j.mu.Unlock()
	j.cancel()
	j.ring.close()
}

// noteStep records boundary progress (called from the rank-0 observer).
func (j *Job) noteStep(step int, loss float64) {
	j.mu.Lock()
	j.stepsDone = step
	j.lastLoss = loss
	j.mu.Unlock()
}

// noteRestart records one consumed supervisor restart and the world size
// the next attempt runs at.
func (j *Job) noteRestart(ranks int) {
	j.mu.Lock()
	j.restarts++
	j.ranks = ranks
	j.mu.Unlock()
}

// setCheckpoint records the consolidated snapshot's file.
func (j *Job) setCheckpoint(path string) {
	j.mu.Lock()
	j.checkpoint = path
	j.mu.Unlock()
}

// Status is the JSON view of a job served by GET /v1/jobs[/{id}].
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Steps is the requested optimizer-step budget; StepsDone how many
	// boundaries have fired so far.
	Steps     int     `json:"steps"`
	StepsDone int     `json:"steps_done"`
	LastLoss  float64 `json:"last_loss,omitempty"`
	// Ranks and Stage echo the world geometry for list readability; Ranks
	// is the CURRENT world size, which shrinks when an elastic restart
	// moved the job to Spec.RestartRanks.
	Ranks int    `json:"ranks"`
	Stage string `json:"stage"`
	// Restarts counts supervisor restarts consumed after rank deaths.
	Restarts int    `json:"restarts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Checkpoint reports whether GET /v1/jobs/{id}/checkpoint will serve
	// a consolidated snapshot.
	Checkpoint  bool      `json:"checkpoint"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// Status snapshots the job for its JSON view.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	stage, _ := j.spec.Config.Stage.Parse()
	return Status{
		ID:          j.id,
		State:       j.state,
		Steps:       j.spec.Steps,
		StepsDone:   j.stepsDone,
		LastLoss:    j.lastLoss,
		Ranks:       j.ranks,
		Stage:       stage.String(),
		Restarts:    j.restarts,
		Error:       j.err,
		Checkpoint:  j.checkpoint != "",
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
}
