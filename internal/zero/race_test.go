//go:build race

package zero

// raceEnabled reports a -race build, where sync.Pool drops puts at random
// and exact allocation counts stop being deterministic.
const raceEnabled = true
