//go:build race

package optimizer

// The race detector slows the exactness sweep's loops twentyfold and finds
// no shared state in them; the plain test run covers the sweep.
func init() { skipSweep = true }
