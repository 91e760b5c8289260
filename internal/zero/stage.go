package zero

import (
	"fmt"
	"strings"
)

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
