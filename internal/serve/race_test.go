//go:build race

package serve

// raceEnabled reports a -race build, whose shadow memory and instrumented
// allocations make heap readings unfit for byte budgets.
const raceEnabled = true
