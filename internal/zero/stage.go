// Package zero implements the paper's contribution: the Zero Redundancy
// Optimizer.
//
//   - The stages (this file): which model states ZeRO-DP partitions. Their
//     closed-form memory — Figure 1, Table 1 and Table 2 — is
//     internal/perfmodel's ModelStateBytes, keyed by int(Stage).
//   - The ZeRO-DP trainer (trainer.go): working data-parallel training
//     engines for stage 1 (Pos), stage 2 (Pos+g) and stage 3 (Pos+g+p)
//     over the real collectives in internal/comm, numerically equivalent
//     to baseline training.
//   - ZeRO-R (zeror.go): partitioned activation checkpointing (Pa), CPU
//     offload (Pa+cpu), and constant-size communication buffers (CB);
//     memory defragmentation (MD) lives in internal/device.
//
// Surface: New builds a Trainer from Options (Forward, Backward, Update,
// Step, Save, SaveFile, Load, CaptureShard and the accounting readers) with
// one stream scheduler over the rank's node layout (Options.NodeSize),
// which Scheduler shares with the rank's other components; Snapshot — the
// capturing ranks' slabs — with WriteTo, Regroup, DecodeSnapshot and
// ReadSnapshotFile is the ZELC checkpoint, and WriteSnapshotFile writes it
// collectively, each rank its own slab, with no slab on the wire; Stage and
// ParseStage name the stages; NewPartitionedStore is Pa and Pa+cpu, set as
// Model.Store on the scheduler's StreamCheckpoint stream.
// Imported by engine, elastic, serve, experiments, cmd/zerobench,
// cmd/zerotrain and the examples.
package zero

import (
	"fmt"
	"strings"
)

// Stage selects how much of the model state ZeRO-DP partitions. Its values
// are the 0-3 that perfmodel.ZeROConfig.Stage takes.
type Stage int

const (
	// StageDDP is baseline data parallelism run through the unified code
	// path: everything replicated, gradients averaged collectively.
	StageDDP Stage = iota
	// StageOS partitions optimizer states (Pos): 4Ψ + KΨ/Nd.
	StageOS
	// StageOSGrad adds gradient partitioning (Pos+g): 2Ψ + (2+K)Ψ/Nd.
	StageOSGrad
	// StageFull adds parameter partitioning (Pos+g+p): (2+2+K)Ψ/Nd.
	StageFull
)

// String returns the paper's name for the stage.
func (s Stage) String() string {
	switch s {
	case StageDDP:
		return "DP"
	case StageOS:
		return "Pos"
	case StageOSGrad:
		return "Pos+g"
	case StageFull:
		return "Pos+g+p"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// AllStages lists every stage the unified trainer accepts, in order of
// increasing partitioning.
var AllStages = []Stage{StageDDP, StageOS, StageOSGrad, StageFull}

// Valid reports whether s names a real ZeRO-DP stage.
func (s Stage) Valid() bool { return s >= StageDDP && s <= StageFull }

// ParseStage converts a user-facing stage spelling — a digit 0-3 or a paper
// name (ddp, dp, os, pos, os+g, pos+g, full, pos+g+p) — into a Stage.
func ParseStage(s string) (Stage, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "0", "ddp", "dp":
		return StageDDP, nil
	case "1", "os", "pos":
		return StageOS, nil
	case "2", "osg", "os+g", "pos+g":
		return StageOSGrad, nil
	case "3", "full", "osgp", "os+g+p", "pos+g+p":
		return StageFull, nil
	}
	return 0, fmt.Errorf("zero: unknown stage %q (want 0-3, ddp, os, os+g or full)", s)
}
