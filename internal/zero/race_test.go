//go:build race

package zero

// raceEnabled reports a -race build, where exact allocation counts stop
// being deterministic. Nothing on the step path uses sync.Pool (the arena
// and the tensor scratch are free lists that never drop a buffer); what
// allocates under -race is not yet known (ROADMAP item 18).
const raceEnabled = true
